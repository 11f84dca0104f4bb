"""Arithmetic in F_{p^m} for odd p, with the power-of-Frobenius twist x -> x^(p^t).

An element is its integer code: the power-basis coordinates of its residue
modulo a user-supplied monic irreducible polynomial, read as base-p digits
with the constant coefficient least significant. make_field builds, once per
field, tables on logarithms to the base g, the smallest code that generates
the multiplicative group (Huber 1990, "Some comments on Zech's logarithms"),
with Z = 2(q-1) standing for the logarithm of 0 so that no table needs a
case for zero:

    log[c]          logarithm of the element with code c (log[0] = Z),
    exp[k]          g^k for k < Z, the zero element up to k = 2Z, so
                    exp[log x + log y] = x*y,
    plus[k + Z]     for k = log y - log x: the Zech logarithm
                    log(1 + g^k) when x and y are nonzero (Z where
                    1 + g^k = 0), k when x = 0 and 0 when y = 0, so
                    exp[log x + plus[log y - log x + Z]] = x + y,
    wrap[k]         k mod (q-1) for k < Z, Z up to k = 2Z, so
                    wrap[log x + log y] = log(x*y) and
                    wrap[log x + plus[log y - log x + Z]] = log(x + y),
    neg[c]          code of -c,
    theta[c]        the FieldElement theta(c) = c^(p^t),

plus one FieldElement per code. Every index into exp or wrap is a sum of
two table values, each below q-1 or equal to Z, so it is at most 2Z = 4(q-1)
(plus reads a negative value only where log x = Z, and the sum is then
log y). With half = (q-1)/2, the logarithm of -1, wrap[l + half] = log(-x).
Every operation is then a few list lookups on codes, with no branch on
zero, and allocates nothing. Inverses and powers multiply logarithms modulo
q - 1, and so does the twist x -> x^(p^(t*i)): FieldSpec.twist applies it
to a list of logarithms, the one place outside FieldElement that does.
theta holds the twist once, x -> x^(p^t), by code, for FieldElement.frob(1)
and ring4's RingElement.frob(1).

Fields are interned: FieldSpec builds one object per (p, m, modulus mod p,
t), and make_field, copy and pickle return it, so a field check is `is`.
The tables take O(q) memory, so make_field refuses q = p^m above MAX_Q
before it builds anything. FieldSpec.arrays() gives the same tables as
numpy arrays (FieldArrays), built on first use, for arithmetic on many
elements at once.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .errors import (
    BadTwistError,
    DivisionByZeroError,
    FieldTooLargeError,
    MixedRingsError,
    NonPrimeError,
    ReducibleModulusError,
)

# The largest field make_field builds: 3^11. Building its tables takes about
# 0.3 s and keeps about 54 MB, 1.4 MB of it the theta table's q pointers
# (87 MB at the peak of the build, by tracemalloc; the process peaks at
# about 122 MB), on a 2-core x86-64 VM.
MAX_Q = 3 ** 11


def _prime_factors(n: int):
    out = []
    r = 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        out.append(n)
    return out


# --- dense polynomial helpers over F_p (coefficient lists, ascending) ---

def _pp_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pp_mulmod(f, g, mod, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _pp_divmod(out, mod, p)[1]


def _pp_divmod(f, g, p):
    f = list(f)
    _pp_trim(f)
    dg = len(g) - 1
    inv_lead = pow(g[-1], p - 2, p)
    q = [0] * max(0, len(f) - dg)
    while len(f) - 1 >= dg and f:
        c = f[-1] * inv_lead % p
        d = len(f) - 1 - dg
        q[d] = c
        for i, b in enumerate(g):
            f[d + i] = (f[d + i] - c * b) % p
        _pp_trim(f)
    return q, f


def _pp_gcd(f, g, p):
    f, g = list(f), list(g)
    _pp_trim(f)
    _pp_trim(g)
    while g:
        f, g = g, _pp_divmod(f, g, p)[1]
    return f


def _pp_powmod(base, e, mod, p):
    # base^e mod (mod) by square and multiply
    result = [1]
    while e:
        if e & 1:
            result = _pp_mulmod(result, base, mod, p)
        base = _pp_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _is_irreducible(modulus, p) -> bool:
    """Rabin's test: x^(p^m) == x mod f, and gcd(x^(p^(m/r)) - x, f) = 1 for
    every prime r | m. A linear modulus is irreducible outright (x^p would be
    compared against x unreduced)."""
    m = len(modulus) - 1
    if m == 1:
        return True
    xq = _pp_powmod([0, 1], p ** m, modulus, p)
    if _pp_trim([(a - b) % p for a, b in itertools.zip_longest(xq, [0, 1], fillvalue=0)]):
        return False
    for r in _prime_factors(m):
        xe = _pp_powmod([0, 1], p ** (m // r), modulus, p)
        diff = _pp_trim([(a - b) % p for a, b in itertools.zip_longest(xe, [0, 1], fillvalue=0)])
        g = _pp_gcd(list(modulus), diff, p)
        if len(g) - 1 != 0:
            return False
    return True


def _digits(code: int, p: int, m: int):
    out = []
    for _ in range(m):
        code, r = divmod(code, p)
        out.append(r)
    return out


_FIELDS = {}  # (p, m, modulus mod p, t) -> the one FieldSpec built for it


class FieldSpec:
    """Immutable description of F_{p^m} with twist x -> x^(p^t).

    Build it with make_field, which validates its parameters. A field is
    one object: FieldSpec(p, m, modulus, t), a copy and an unpickled spec
    all return the one built for (p, m, modulus mod p, t), so FieldSpecs
    compare and hash by identity. A new key is built only after Rabin's
    test and the twist check pass. Its tables (see the module docstring) are
    `exp` (FieldElements, length 4(q-1) + 1), `log`, `plus`, `wrap`
    (logarithms, log_zero = 2(q-1) standing for log 0), `neg` (codes) and
    `theta` (FieldElements, one per code).
    """

    __slots__ = (
        "p", "m", "modulus", "t", "q", "k", "log_zero", "exp", "log", "plus", "wrap", "neg", "theta",
        "_elems", "_frob_mult", "_arrays",
    )

    def __new__(cls, p: int, m: int, modulus, t: int):
        key = (p, m, tuple(c % p for c in modulus), t)
        spec = _FIELDS.get(key)
        if spec is None:
            # checked before the cache entry: none may hold an invalid field
            if not _is_irreducible(key[2], p):
                raise ReducibleModulusError(f"modulus {list(key[2])} is reducible over F_{p}")
            if t < 1 or m % t != 0:
                raise BadTwistError(f"t = {t} does not divide m = {m}")
            spec = object.__new__(cls)
            spec.p, spec.m, spec.modulus, spec.t = key
            spec.q = p ** m
            spec.k = m // t
            spec._arrays = None
            spec._build_tables()
            _FIELDS[key] = spec
        return spec

    def __reduce__(self):
        return FieldSpec, (self.p, self.m, self.modulus, self.t)

    def _primitive_code(self) -> int:
        """Smallest code whose powers give every nonzero element."""
        p, m, q = self.p, self.m, self.q
        cofactors = [(q - 1) // r for r in _prime_factors(q - 1)]
        for code in range(2, q):
            base = _pp_trim(_digits(code, p, m))
            if all(_pp_powmod(base, e, self.modulus, p) != [1] for e in cofactors):
                return code
        raise AssertionError("the multiplicative group of a finite field is cyclic")

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        order = q - 1
        zero = self.log_zero = 2 * order
        g = _digits(self._primitive_code(), p, m)
        # times_g[c] = code of c * g, via the matrix of y -> g*y (row i: g*x^i)
        rows = []
        row = g
        for _ in range(m):
            rows.append(row + [0] * (m - len(row)))
            row = _pp_mulmod(row, [0, 1], self.modulus, p)
        weights = p ** np.arange(m, dtype=np.int64)
        digits = np.arange(q, dtype=np.int64)[:, None] // weights % p
        times_g = ((digits @ np.array(rows, dtype=np.int64)) % p @ weights).tolist()
        exp = [0] * order
        c = 1
        for i in range(order):
            exp[i] = c
            c = times_g[c]
        exp_codes = np.array(exp, dtype=np.int64)
        log = np.full(q, zero, dtype=np.int64)
        log[exp_codes] = np.arange(order)
        residues = list(range(order))
        self.wrap = residues + residues + [zero] * (zero + 1)
        # log, and zech through it, hold wrap's int objects, not copies
        self.log = list(map(self.wrap.__getitem__, log.tolist()))
        # adding 1 changes only the constant digit; 1 + g^k = 0 reads log 0
        one_plus = np.where(exp_codes % p == p - 1, exp_codes + 1 - p, exp_codes + 1)
        zech = list(map(self.log.__getitem__, one_plus.tolist()))
        # index k + zero, k = log y - log x: k < -(q-2) means x = 0 (the sum
        # is y), |k| <= q-2 reads zech[k mod (q-1)], k > q-2 means y = 0.
        # Slices of one list, so the two zech copies share their ints.
        self.plus = list(range(-zero, -order)) + [0] + zech[1:] + zech + [0] * (order + 1)
        self.neg = ((-digits) % p @ weights).tolist()
        del digits  # q * m int64s, freed before the element lists are built
        self._elems = [FieldElement(self, c) for c in range(q)]
        powers = [self._elems[c] for c in exp]
        self.exp = [*powers, *powers, *itertools.repeat(self._elems[0], zero + 1)]
        self._frob_mult = [pow(p, self.t * i, q - 1) for i in range(self.k)]
        # theta(g^l) = g^(l p^t); code 0 reads log_zero, whose exp is 0
        twisted = np.where(log == zero, zero, log * pow(p, self.t, order) % order)
        self.theta = list(map(self.exp.__getitem__, twisted.tolist()))

    def twist(self, logs, i: int = 1):
        """The logarithms of theta^i (i any integer) of the elements with
        logarithms `logs`: each nonzero one times p^(ti) mod (q - 1), and
        log_zero kept."""
        mult, order, zero = self._frob_mult[i % self.k], self.q - 1, self.log_zero
        return [l * mult % order if l != zero else zero for l in logs]

    def arrays(self) -> "FieldArrays":
        """The tables as numpy arrays, built on first use."""
        if self._arrays is None:
            self._arrays = FieldArrays(self)
        return self._arrays

    # --- element constructors ---

    def constant(self, c: int) -> "FieldElement":
        """The prime-subfield constant c*1, c an integer mod p, never an
        element code (FieldSpec.from_int reads codes)."""
        return self._elems[c % self.p]

    def from_int(self, code: int) -> "FieldElement":
        if not 0 <= code < self.q:
            raise ValueError(f"element code {code} out of range [0, {self.q})")
        return self._elems[code]

    def root(self) -> "FieldElement":
        """The residue class of x, i.e. the adjoined root of the modulus."""
        if self.m == 1:
            return self.constant(-self.modulus[0])
        return self._elems[self.p]

    @property
    def zero(self) -> "FieldElement":
        return self._elems[0]

    @property
    def one(self) -> "FieldElement":
        return self._elems[1]

    def elements(self):
        """All q elements in integer-code order."""
        yield from self._elems

    def random_element(self, rng: random.Random) -> "FieldElement":
        return self._elems[rng.randrange(self.q)]

    def __repr__(self):
        return f"GF({self.p}^{self.m}; t={self.t})"


class FieldArrays:
    """The FieldSpec's tables as numpy arrays of intp, the type numpy indexes
    with, for batched arithmetic on logarithms (zero = 2(q-1) standing for
    the logarithm of 0): log, wrap and plus are the spec's lists, exp[k] is
    the code of the spec's exp[k], half = (q-1)/2 is the logarithm of -1,
    and frob[l] = twist([l])[0] is the logarithm of x^(p^t) for the element
    x with logarithm l < q-1 or l = zero (zero in between)."""

    __slots__ = ("zero", "half", "log", "exp", "wrap", "plus", "frob")

    def __init__(self, spec: FieldSpec):
        order = spec.q - 1
        zero = self.zero = spec.log_zero
        self.half = order // 2
        self.log, self.wrap, self.plus = (np.array(table, dtype=np.intp) for table in (spec.log, spec.wrap, spec.plus))
        self.exp = np.array([x.code for x in spec.exp], dtype=np.intp)
        self.frob = np.array(spec.twist(spec.wrap[:order] + [zero] * (order + 1)), dtype=np.intp)


def make_field(p: int, m: int, modulus, t: int = 1) -> FieldSpec:
    """Validate and build a FieldSpec, or return the one already built.

    modulus is the coefficient list of a monic degree-m polynomial over F_p,
    ascending (constant term first). q = p^m may be at most MAX_Q.
    FieldSpec checks irreducibility and t | m when it builds.
    """
    if p < 3 or p % 2 == 0:
        raise NonPrimeError(f"p = {p} is not an odd prime")
    if m < 1:
        raise ValueError("extension degree m must be positive")
    q = 1
    for _ in range(m):  # at most log_3(MAX_Q) + 1 steps, whatever m is
        q *= p
        if q > MAX_Q:
            raise FieldTooLargeError(f"q = {p}^{m} exceeds MAX_Q = {MAX_Q}")
    if _prime_factors(p) != [p]:
        raise NonPrimeError(f"p = {p} is not an odd prime")
    modulus = [int(c) % p for c in modulus]
    if len(modulus) != m + 1 or modulus[-1] != 1:
        raise ReducibleModulusError(
            f"modulus must be monic of degree {m}, got {modulus}"
        )
    return FieldSpec(p, m, modulus, t)


class FieldElement:
    """Element of F_{p^m}, held as its integer code.

    make_field builds one element per code; operations return those.
    """

    __slots__ = ("spec", "code")

    def __init__(self, spec: FieldSpec, code: int):
        self.spec = spec
        self.code = code

    # --- helpers ---

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.spec is not self.spec:
                raise MixedRingsError("field elements from different fields")
            return other
        if isinstance(other, int):
            return self.spec.constant(other)
        return NotImplemented

    @property
    def is_zero(self) -> bool:
        return not self.code

    @property
    def is_unit(self) -> bool:
        return bool(self.code)

    @property
    def digits(self) -> tuple:
        """Power-basis coordinates, constant coefficient first."""
        return tuple(_digits(self.code, self.spec.p, self.spec.m))

    def to_int(self) -> int:
        return self.code

    # --- ring operations ---

    def __add__(self, other):
        spec = self.spec
        if other.__class__ is not FieldElement or other.spec is not spec:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        log = spec.log
        la = log[self.code]
        return spec.exp[la + spec.plus[log[other.code] - la + spec.log_zero]]

    __radd__ = __add__

    def __sub__(self, other):
        spec = self.spec
        if other.__class__ is not FieldElement or other.spec is not spec:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        log = spec.log
        la = log[self.code]
        return spec.exp[la + spec.plus[log[spec.neg[other.code]] - la + spec.log_zero]]

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        spec = self.spec
        return spec._elems[spec.neg[self.code]]

    def __mul__(self, other):
        spec = self.spec
        if other.__class__ is not FieldElement or other.spec is not spec:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        log = spec.log
        return spec.exp[log[self.code] + log[other.code]]

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if not self.code:
            raise DivisionByZeroError("zero has no multiplicative inverse")
        spec = self.spec
        return spec.exp[spec.q - 1 - spec.log[self.code]]

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def pow_int(self, e: int) -> "FieldElement":
        spec = self.spec
        if self.code:
            return spec.exp[spec.log[self.code] * e % (spec.q - 1)]
        if e < 0:
            raise DivisionByZeroError("zero has no multiplicative inverse")
        return spec._elems[0 if e else 1]

    __pow__ = pow_int

    def frob(self, i: int = 1) -> "FieldElement":
        """Apply x -> x^(p^t) i times (i may be any integer); once is a
        lookup in the spec's theta table."""
        spec = self.spec
        if i == 1:
            return spec.theta[self.code]
        i %= spec.k
        if not (i and self.code):
            return self
        return spec.exp[spec.log[self.code] * spec._frob_mult[i] % (spec.q - 1)]

    # --- comparisons / display ---

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.code == other.code and self.spec is other.spec
        if isinstance(other, int):
            return self == self.spec.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.code)

    def __repr__(self):
        terms = []
        digits = self.digits
        for i in range(self.spec.m - 1, -1, -1):
            d = digits[i]
            if d == 0:
                continue
            if i == 0:
                terms.append(str(d))
            else:
                coef = "" if d == 1 else str(d)
                var = "a" if i == 1 else f"a^{i}"
                terms.append(coef + var)
        return "+".join(terms) if terms else "0"

