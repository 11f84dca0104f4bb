"""Skew polynomials over F_q or over R, with the twisted product

    (a x^i) * (b x^j) = a theta^i(b) x^(i+j)

where theta is the configured power of Frobenius. Division is always by a
divisor on the RIGHT with the quotient on the LEFT, matching the single
factorization shape used by every construction in this package:
x^n - alpha = h(x) * f(x).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    DivisionByZeroPolyError,
    HypothesisViolatedError,
    LengthMismatchError,
    MixedRingsError,
    NonUnitLeadingCoeffError,
    NotADivisorError,
    NotAUnitError,
    VerificationError,
    ZeroPolynomialError,
)
from .gf import FieldElement, FieldSpec
from .linalg import Span
from .ring4 import RingElement, ring_one, ring_zero, split_word
# No search here lists R; the name stays bound so that tests can patch it.
from .ring4 import ring_elements  # noqa: F401


def _is_unit_coeff(c) -> bool:
    return c.is_unit if isinstance(c, RingElement) else not c.is_zero


def is_theta_fixed(c) -> bool:
    return c.frob(1) == c


class SkewPoly:
    """Coefficient vector (ascending powers) over F_q or over R.

    Trailing zeros are trimmed; the zero polynomial has degree None.
    """

    __slots__ = ("spec", "ring", "coeffs")

    def __init__(self, spec: FieldSpec, ring: str, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        self.spec = spec
        self.ring = ring
        self.coeffs = tuple(coeffs)

    # --- constructors ---

    @classmethod
    def zero(cls, spec: FieldSpec, ring: str = "fq") -> "SkewPoly":
        return cls(spec, ring, [])

    def _zero_coeff(self):
        return ring_zero(self.spec) if self.ring == "R" else self.spec.zero

    def _one_coeff(self):
        return ring_one(self.spec) if self.ring == "R" else self.spec.one

    # --- structure ---

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self):
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.lead == self._one_coeff()

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self._zero_coeff()

    def _check_compatible(self, other: "SkewPoly"):
        if (self.spec is not other.spec and self.spec != other.spec) or self.ring != other.ring:
            raise MixedRingsError(
                f"polynomials over different rings: {self.spec}/{self.ring}"
                f" vs {other.spec}/{other.ring}"
            )

    # --- arithmetic ---

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        self._check_compatible(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(self.spec, self.ring, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        self._check_compatible(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(self.spec, self.ring, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> "SkewPoly":
        return SkewPoly(self.spec, self.ring, [-c for c in self.coeffs])

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        return self._mul(other, twisted=True)

    def _mul(self, other: "SkewPoly", twisted: bool) -> "SkewPoly":
        self._check_compatible(other)
        if self.is_zero or other.is_zero:
            return SkewPoly.zero(self.spec, self.ring)
        out = [self._zero_coeff()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero:
                    continue
                bb = b.frob(i) if twisted else b
                out[i + j] = out[i + j] + a * bb
        return SkewPoly(self.spec, self.ring, out)

    def scale_left(self, c) -> "SkewPoly":
        """Left multiplication by a constant: c * f."""
        return SkewPoly(self.spec, self.ring, [c * x for x in self.coeffs])

    def times_x_power(self, j: int) -> "SkewPoly":
        """x^j * f: coefficients twisted by theta^j, degrees raised by j."""
        if self.is_zero or j == 0:
            return self if j == 0 else SkewPoly.zero(self.spec, self.ring)
        z = self._zero_coeff()
        return SkewPoly(self.spec, self.ring, [z] * j + [c.frob(j) for c in self.coeffs])

    def monic(self) -> "SkewPoly":
        if self.is_zero:
            raise ZeroPolynomialError("cannot normalize the zero polynomial")
        if not _is_unit_coeff(self.lead):
            raise NonUnitLeadingCoeffError(f"leading coefficient {self.lead!r} is not a unit")
        return self.scale_left(self.lead.inverse())

    # --- comparison / display ---

    def __eq__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return (
            (self.spec is other.spec or self.spec == other.spec)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.spec, self.ring, self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero:
                continue
            cs = repr(c)
            if i == 0:
                parts.append(cs if ("+" not in cs or self.ring == "fq") else f"({cs})")
            else:
                var = "x" if i == 1 else f"x^{i}"
                if cs == "1":
                    parts.append(var)
                else:
                    cs = f"({cs})" if "+" in cs else cs
                    parts.append(f"{cs}*{var}")
        return " + ".join(parts)


# --- convenience constructors ---

def fq_poly(spec: FieldSpec, coeffs) -> SkewPoly:
    """Polynomial over F_q; integer coefficients mean prime-subfield constants."""
    conv = lambda c: c if isinstance(c, FieldElement) else spec.constant(c)
    return SkewPoly(spec, "fq", [conv(c) for c in coeffs])


def r_poly(spec: FieldSpec, coeffs) -> SkewPoly:
    """Polynomial over R; field or integer coefficients are promoted."""

    def conv(c):
        if isinstance(c, RingElement):
            return c
        if isinstance(c, FieldElement):
            return RingElement.from_field(c)
        return RingElement.from_ints(spec, c)

    return SkewPoly(spec, "R", [conv(c) for c in coeffs])


@dataclass(frozen=True)
class ModulusSpec:
    """Quotient modulus x^n - alpha; alpha is a FieldElement or RingElement."""

    n: int
    alpha: object

    @property
    def ring(self) -> str:
        return "R" if isinstance(self.alpha, RingElement) else "fq"

    @property
    def spec(self) -> FieldSpec:
        return self.alpha.spec

    def poly(self) -> SkewPoly:
        """x^n - alpha in the coefficient ring of alpha."""
        spec, ring = self.spec, self.ring
        zero = ring_zero(spec) if ring == "R" else spec.zero
        one = ring_one(spec) if ring == "R" else spec.one
        return SkewPoly(spec, ring, [-self.alpha] + [zero] * (self.n - 1) + [one])


# --- division ---

def _divmod(f: SkewPoly, g: SkewPoly, twisted: bool):
    """(quot, rem) with f = quot * g + rem and deg rem < deg g, for the
    twisted product or, with twisted=False, the commutative one."""
    f._check_compatible(g)
    if g.is_zero:
        raise DivisionByZeroPolyError("division by the zero polynomial")
    if not _is_unit_coeff(g.lead):
        raise NonUnitLeadingCoeffError(
            f"leading coefficient {g.lead!r} of the divisor is not a unit"
        )
    quot = SkewPoly.zero(f.spec, f.ring)
    rem = f
    dg = g.degree
    glead = g.lead
    while not rem.is_zero and rem.degree >= dg:
        d = rem.degree - dg
        c = rem.lead * (glead.frob(d) if twisted else glead).inverse()
        term = SkewPoly(f.spec, f.ring, [f._zero_coeff()] * d + [c])
        quot = quot + term
        rem = rem - (term * g if twisted else c_mul(term, g))
    return quot, rem


def right_divmod(f: SkewPoly, g: SkewPoly):
    """(quot, rem) with f = quot * g + rem and deg rem < deg g."""
    return _divmod(f, g, twisted=True)


def reduce_mod(f: SkewPoly, mod: ModulusSpec) -> SkewPoly:
    """Canonical degree < n representative modulo x^n - alpha."""
    return right_divmod(f, mod.poly())[1]


def is_right_divisor(g: SkewPoly, mod: ModulusSpec) -> bool:
    """True when x^n - alpha = h * g for some h."""
    return right_divmod(mod.poly(), g)[1].is_zero


# Candidate divisors screened per numpy batch. A search's working memory is
# about 64 bytes per candidate and coefficient, so this bounds it whatever
# the candidate count; batches of 2^14 rows raised the peak RSS of a
# process running searches by about 0.4 MB.
_CHUNK = 1 << 11


def _batched_divisor_codes(f: SkewPoly, degree: int):
    """Coefficient codes (g_0, ..., g_{degree-1}) of the monic degree-`degree`
    polynomials g over F_q whose right remainder of f is zero, in
    itertools.product order (g_0 most significant).

    g right-divides f exactly when f lies in the left ideal generated by g.
    Modulo that ideal, left multiplication by x maps a residue r of degree
    below `degree` to shift(theta(r)) - theta(r_{degree-1}) * (g_0..g_{degree-1}),
    so stepping the residues x^j mod g from x^0 = 1 and adding up
    f_j * (x^j mod g) gives the remainder of f for every candidate at once.
    The arithmetic runs on logarithms (gf.FieldArrays), chunk by chunk.
    """
    if not degree:
        yield ()
        return
    spec = f.spec
    q = spec.q
    arrays = spec.arrays()
    zero, wrap, plus, frob = arrays.zero, arrays.wrap, arrays.plus, arrays.frob
    terms = [(j, spec.log[c.code]) for j, c in enumerate(f.coeffs) if not c.is_zero]
    place = q ** np.arange(degree - 1, -1, -1)
    count = q ** degree
    for start in range(0, count, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, count))[:, None] // place % q
        neg_g = wrap[arrays.log[codes] + arrays.half]
        rem = np.full(codes.shape, zero, dtype=np.int32)
        power = rem.copy()
        power[:, 0] = 0  # x^0 = 1
        j = 0
        for k, log_fk in terms:
            for _ in range(k - j):
                twisted = frob[power]
                power = wrap[twisted[:, -1:] + neg_g]
                low = twisted[:, :-1]
                power[:, 1:] = wrap[low + plus[(power[:, 1:] + zero) - low]]
            j = k
            term = wrap[power + log_fk]
            rem = wrap[rem + plus[(term + zero) - rem]]
        yield from map(tuple, codes[(rem == zero).all(axis=1)].tolist())


def _monic_right_factors(f: SkewPoly, degree: int):
    """All monic degree-`degree` right divisors of an arbitrary polynomial f,
    in lexicographic coefficient order: ascending powers, each coefficient
    by its integer element code, or over R by its (a, b, c, d) codes.

    Over F_q the q^degree candidates are screened in numpy batches
    (_batched_divisor_codes), and each divisor found is certified by one
    right division. Over R it is four searches over F_q, one per CRT
    component, since a monic g right-divides f exactly when each component
    g_i right-divides f_i. Every combination of component divisors is then
    certified by one right division over R.
    """
    if f.ring == "R":
        out = []
        found = [_monic_right_factors(fi, degree) for fi in component_polys(f)]
        for parts in itertools.product(*found):
            g = from_components(*parts)
            if not right_divmod(f, g)[1].is_zero:
                raise VerificationError(f"assembled divisor {g!r} does not right-divide {f!r}")
            out.append(g)
        out.sort(key=lambda g: [(c.a.code, c.b.code, c.c.code, c.d.code) for c in g.coeffs])
        return out
    spec = f.spec
    out = []
    for codes in _batched_divisor_codes(f, degree):
        g = SkewPoly(spec, "fq", [spec.from_int(c) for c in codes] + [spec.one])
        if not right_divmod(f, g)[1].is_zero:
            raise VerificationError(f"candidate divisor {g!r} does not right-divide {f!r}")
        out.append(g)
    return out


def random_right_divisor(mod: ModulusSpec, rng, degree: int) -> SkewPoly:
    """A random monic right divisor of x^n - alpha of degree at most `degree`.

    Peels random factors of degree 1 (or 2 when no linear factor exists) off
    the successive cofactors; stops early if the cofactor has no small right
    factor. The chain x^n - alpha = cofactor * divisor makes every
    intermediate divisor a genuine right divisor.
    """
    cofactor = mod.poly()
    divisor = SkewPoly(mod.spec, mod.ring, [cofactor._one_coeff()])
    while (divisor.degree or 0) < degree and cofactor.degree > 0:
        remaining = degree - divisor.degree
        candidates = []
        for d in (1, 2):
            if d > remaining or d > cofactor.degree:
                continue
            candidates = _monic_right_factors(cofactor, d)
            if candidates:
                break
        if not candidates:
            break
        g = rng.choice(candidates)
        divisor = g * divisor
        cofactor = right_divmod(cofactor, g)[0]
    return divisor


# Python's default limit on the digits of an int converted to str: a larger
# candidate count is printed as a power.
_PRINTED_DIGITS = 4300


def right_divisor_search(mod: ModulusSpec, degree: int, budget: int = 10**7):
    """All monic right divisors of x^n - alpha of the given degree, in the
    order of _monic_right_factors.

    None exists above degree n. Otherwise the candidate count, q^degree or
    q^(4*degree) over R, is checked against the budget before anything is
    enumerated. The F_q screen tries all q^degree candidates; over R the
    count is still that of a search over all of R, though the four component
    searches try 4*q^degree.
    """
    if degree > mod.n:
        return []
    q = mod.spec.q
    exponent = 4 * degree if mod.ring == "R" else degree
    # q >= 3, so q**exponent > budget once exponent reaches budget's bit length
    if exponent >= budget.bit_length() or q ** exponent > budget:
        count = q ** exponent if exponent * math.log10(q) < _PRINTED_DIGITS else f"{q}^{exponent}"
        raise BudgetExceededError(f"{count} candidates exceed the budget of {budget}")
    return _monic_right_factors(mod.poly(), degree)


# --- word <-> polynomial ---

def poly_to_word(f: SkewPoly, n: int):
    if not f.is_zero and f.degree >= n:
        raise LengthMismatchError(f"degree {f.degree} polynomial in a length-{n} word")
    return tuple(f.coeff(i) for i in range(n))


def word_to_poly(word, spec: FieldSpec, ring: str = None) -> SkewPoly:
    word = list(word)
    if ring is None:
        ring = "R" if (word and isinstance(word[0], RingElement)) else "fq"
    return SkewPoly(spec, ring, word)


def span_words(f: SkewPoly, mod: ModulusSpec):
    """Words of x^j * f mod (x^n - alpha), j = 0..n-1.

    Their linear span over the coefficient ring is the left submodule <f>.
    """
    return [poly_to_word(reduce_mod(f.times_x_power(j), mod), mod.n) for j in range(mod.n)]


def generator_basis_words(f: SkewPoly, mod: ModulusSpec):
    """The nominal basis x^j * f, j = 0..n-deg(f)-1, for a right-divisor generator."""
    if f.is_zero:
        return []
    return [poly_to_word(f.times_x_power(j), mod.n) for j in range(mod.n - f.degree)]


# --- dual cofactor generator ---

def dual_generator(h: SkewPoly) -> SkewPoly:
    """Coefficient reversal with iterated twist: result_i = theta^i(h_{deg-i}).

    Applied to the cofactor h of x^n - alpha = h * f, it generates the dual
    of <f>; the iterated-power form is validated against a brute-force dual
    oracle in the test suite.
    """
    if h.is_zero:
        raise ZeroPolynomialError("dual generator of the zero polynomial")
    r = h.degree
    return SkewPoly(h.spec, h.ring, [h.coeff(r - i).frob(i) for i in range(r + 1)])


# --- commutative helpers (used by the idempotent construction) ---

def c_mul(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    return f._mul(g, twisted=False)


def c_divmod(f: SkewPoly, g: SkewPoly):
    """(quot, rem) with f = quot g + rem under the commutative product."""
    return _divmod(f, g, twisted=False)


def c_xgcd(a: SkewPoly, b: SkewPoly):
    """(g, s, t) with s*a + t*b = g, commutative products."""
    spec, ring = a.spec, a.ring
    r0, r1 = a, b
    s0, s1 = SkewPoly(spec, ring, [a._one_coeff()]), SkewPoly.zero(spec, ring)
    t0, t1 = SkewPoly.zero(spec, ring), SkewPoly(spec, ring, [a._one_coeff()])
    while not r1.is_zero:
        q, r = c_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - c_mul(q, s1)
        t0, t1 = t1, t0 - c_mul(q, t1)
    return r0, s0, t0


# --- idempotent generators ---

def idempotent_generator(f: SkewPoly, mod: ModulusSpec) -> SkewPoly:
    """Idempotent e with e*e = e mod (x^n - alpha) and <e> = <f>.

    Requires gcd(n, k) = 1 and gcd(n, q) = 1. Under these hypotheses the
    code is closed under the untwisted shift, so e is found by commutative
    extended Euclid on (f, h) where x^n - alpha = h f, then verified in the
    skew ring.
    """
    spec = f.spec
    n = mod.n
    if math.gcd(n, spec.k) != 1 or math.gcd(n, spec.q) != 1:
        raise HypothesisViolatedError(
            f"need gcd(n,k)=1 and gcd(n,q)=1; got n={n}, k={spec.k}, q={spec.q}"
        )
    modulus_poly = mod.poly()
    if not right_divmod(modulus_poly, f)[1].is_zero:
        raise NotADivisorError(f"{f!r} does not right-divide x^{n} - {mod.alpha!r}")
    h, rem = c_divmod(modulus_poly, f)
    if not rem.is_zero:
        raise VerificationError(
            "right divisor is not a commutative factor despite gcd(n,k)=1"
        )
    g, s, _ = c_xgcd(f, h)
    if g.is_zero or g.degree != 0:
        raise HypothesisViolatedError(
            f"x^{n} - {mod.alpha!r} is not squarefree: gcd(f, h) = {g!r}"
        )
    e = c_divmod(c_mul(s.scale_left(g.coeff(0).inverse()), f), modulus_poly)[1]
    square = reduce_mod(e * e, mod)
    if square != e:
        raise VerificationError(f"constructed polynomial is not skew-idempotent: e*e = {square!r}")
    if Span(span_words(e, mod)) != Span(span_words(f, mod)):
        raise VerificationError("idempotent generates a different submodule than f")
    return e


def dual_idempotent(e: SkewPoly, mod: ModulusSpec) -> SkewPoly:
    """1 - e(x^{-1}) reduced mod x^n - alpha (alpha a theta-fixed unit)."""
    alpha = mod.alpha
    if not _is_unit_coeff(alpha):
        raise NotAUnitError(f"shift constant {alpha!r} is not a unit")
    if not is_theta_fixed(alpha):
        raise HypothesisViolatedError("shift constant must be fixed by the twist")
    n = mod.n
    if not e.is_zero and e.degree >= n:
        raise LengthMismatchError("idempotent must already be reduced")
    ainv = alpha.inverse()
    word = [e._zero_coeff()] * n
    for i, c in enumerate(e.coeffs):
        if i == 0:
            word[0] = word[0] + c
        else:
            # x^{-i} = alpha^{-1} x^{n-i} in the quotient
            word[n - i] = word[n - i] + c * ainv
    result = SkewPoly(e.spec, e.ring, word)
    one = SkewPoly(e.spec, e.ring, [e._one_coeff()])
    return one - result


# --- CRT component assembly ---

def from_components(f1: SkewPoly, f2: SkewPoly, f3: SkewPoly, f4: SkewPoly) -> SkewPoly:
    """The R-polynomial whose CRT component polynomials are f1..f4."""
    spec = f1.spec
    for f in (f2, f3, f4):
        if f.spec != spec or f.ring != "fq":
            raise MixedRingsError("components must share one base field")
    if f1.ring != "fq":
        raise MixedRingsError("components must be base-field polynomials")
    top = max(len(f.coeffs) for f in (f1, f2, f3, f4))
    coeffs = [
        RingElement.from_crt(spec, f1.coeff(i), f2.coeff(i), f3.coeff(i), f4.coeff(i))
        for i in range(top)
    ]
    return SkewPoly(spec, "R", coeffs)


def component_polys(f: SkewPoly):
    """The four CRT component polynomials of an R-polynomial."""
    if f.ring != "R":
        raise MixedRingsError("expected a polynomial over R")
    return tuple(SkewPoly(f.spec, "fq", comp) for comp in split_word(f.coeffs))
