"""Skew polynomials over F_q or over R, with the twisted product

    (a x^i) * (b x^j) = a theta^i(b) x^(i+j)

where theta is the configured power of Frobenius. Division is always by a
divisor on the RIGHT with the quotient on the LEFT, matching the single
factorization shape used by every construction in this package:
x^n - alpha = h(x) * f(x).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DEFAULT_BUDGET,
    BadIndexError,
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
    charge,
)
from .gf import FieldElement, FieldSpec
from .linalg import nullspace, rref
from .ring4 import RingElement, join_word, ring_one, ring_zero, split_word


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

    def monic(self) -> "SkewPoly":
        if self.is_zero:
            raise ZeroPolynomialError("cannot normalize the zero polynomial")
        if not self.lead.is_unit:
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
    """Polynomial over F_q; an integer coefficient is the prime-subfield
    constant c*1 mod p, never an element code."""
    conv = lambda c: c if isinstance(c, FieldElement) else spec.constant(c)
    return SkewPoly(spec, "fq", [conv(c) for c in coeffs])


def r_poly(spec: FieldSpec, coeffs) -> SkewPoly:
    """Polynomial over R; field or integer coefficients are promoted, an
    integer being the constant c*1 mod p, never an element code."""

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

def _check_divisor(f: SkewPoly, g: SkewPoly):
    """Refuse a right division of f by g: mixed rings, zero g or a lead
    that is not a unit."""
    f._check_compatible(g)
    if g.is_zero:
        raise DivisionByZeroPolyError("division by the zero polynomial")
    if not g.lead.is_unit:
        raise NonUnitLeadingCoeffError(
            f"leading coefficient {g.lead!r} of the divisor is not a unit"
        )


def _divmod(f: SkewPoly, g: SkewPoly):
    """(quot, rem) with f = quot * g + rem and deg rem < deg g."""
    _check_divisor(f, g)
    # In place: step d subtracts (c x^d) * g = x^d * (c * theta^d(g)) from
    # rem[d:], so it costs O(deg g) and not O(deg f). theta^d depends only on
    # d mod k, so each twisted divisor and its lead's inverse is built once.
    dg = g.degree
    rem = list(f.coeffs)
    quot = [f._zero_coeff()] * max(len(rem) - dg, 0)
    twists = {}
    while len(rem) > dg:
        d = len(rem) - 1 - dg
        r = d % g.spec.k
        if r not in twists:
            gd = SkewPoly(g.spec, g.ring, [b.frob(r) for b in g.coeffs]) if r else g
            twists[r] = gd, gd.lead.inverse()
        gd, lead_inv = twists[r]
        c = quot[d] = rem[-1] * lead_inv
        for j, s in enumerate((SkewPoly(f.spec, f.ring, [c]) * gd).coeffs, d):
            rem[j] = rem[j] - s
        while rem and rem[-1].is_zero:
            rem.pop()
    return SkewPoly(f.spec, f.ring, quot), SkewPoly(f.spec, f.ring, rem)


def right_divmod(f: SkewPoly, g: SkewPoly):
    """(quot, rem) with f = quot * g + rem and deg rem < deg g."""
    return _divmod(f, g)


def residues(g: SkewPoly):
    """The rows x^D mod g on the right, D = deg g, deg g + 1, ..., each as
    deg g coefficients (below deg g, x^D mod g is x^D itself).

    They form the systematic parity check of <g>: right division is
    left-linear, so f mod g = sum_D f_D * (x^D mod g). x^(D+1) mod g is
    x * (x^D mod g): the row twisted by theta and shifted up one degree,
    its new x^d term c reduced to c * (x^d mod g) = -c * lead^-1 * g_low.
    """
    lead_inv = g.lead.inverse()
    top = [-(lead_inv * b) for b in g.coeffs[:-1]]  # x^d mod g
    row = top
    while True:
        yield row
        if top:
            c = row[-1].frob(1)
            row = [c * top[0]] + [r.frob(1) + c * t for r, t in zip(row, top[1:])]


def residue_sum(coeffs, g: SkewPoly, rows) -> SkewPoly:
    """sum_D coeffs_D * (x^D mod g), the right remainder by g of the
    polynomial with these coefficients, given rows = residues(g) or at
    least its first len(coeffs) - deg g rows. Zero coefficients cost no
    arithmetic."""
    d = g.degree
    rem = list(coeffs[:d]) + [g._zero_coeff()] * (d - len(coeffs))
    for c, row in zip(coeffs[d:], rows):
        if not c.is_zero:
            rem = [r + c * s for r, s in zip(rem, row)]
    return SkewPoly(g.spec, g.ring, rem)


def right_remainder(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """right_divmod(f, g)[1], read off the streamed residues x^D mod g:
    O(deg f * deg g) ring operations in O(deg g) memory, and no quotient.
    Refuses what right_divmod refuses."""
    _check_divisor(f, g)
    return residue_sum(f.coeffs, g, residues(g))


def reduce_mod(f: SkewPoly, mod: ModulusSpec) -> SkewPoly:
    """Canonical degree < n representative modulo x^n - alpha."""
    return right_divmod(f, mod.poly())[1]


def is_right_divisor(g: SkewPoly, mod: ModulusSpec) -> bool:
    """True when x^n - alpha = h * g for some h."""
    return right_remainder(mod.poly(), g).is_zero


# Candidate divisors screened per numpy batch. A search's working memory is
# about 64 bytes per candidate and coefficient, so this bounds it whatever
# the candidate count; batches of 2^14 rows raised the peak RSS of a
# process running searches by about 0.4 MB.
_CHUNK = 1 << 11


def _batched_divisor_codes(f: SkewPoly, degree: int):
    """Coefficient codes (g_0, ..., g_{degree-1}) of the monic degree-`degree`
    polynomials g over F_q whose right remainder of f is zero, in
    itertools.product order (g_0 most significant).

    At degree 1, a binomial f = x^n - c (monic, n >= 1, no other nonzero
    term) is solved in closed form (_binomial_root_codes), with no
    candidate screened. Every other f is screened: the remainder of f is
    sum_k f_k * (x^k mod g) (see residues), added up for every candidate at
    once on logarithms (gf.FieldArrays), chunk by chunk; _linear_terms and
    _stepped_terms give its terms.
    """
    if not degree:
        yield ()
        return
    spec = f.spec
    if degree == 1 and f.degree and f.is_monic and all(c.is_zero for c in f.coeffs[1:-1]):
        yield from ((code,) for code in _binomial_root_codes(spec, f.degree, -f.coeffs[0]))
        return
    q = spec.q
    arrays = spec.arrays()
    zero, wrap, plus = arrays.zero, arrays.wrap, arrays.plus
    terms = [(j, spec.log[c.code]) for j, c in enumerate(f.coeffs) if not c.is_zero]
    place = q ** np.arange(degree - 1, -1, -1)
    count = q ** degree
    summands = _linear_terms if degree == 1 else _stepped_terms
    for start in range(0, count, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, count))[:, None] // place % q
        neg_g = wrap[arrays.log[codes] + arrays.half]
        rem = np.full(codes.shape, zero, dtype=np.int32)
        for term in summands(spec, neg_g, terms):
            rem = wrap[rem + plus[(term + zero) - rem]]
        yield from map(tuple, codes[(rem == zero).all(axis=1)].tolist())


def _stepped_terms(spec: FieldSpec, neg_g, terms):
    """Logarithms of f_k * (x^k mod g) for each term (k, log f_k), per
    candidate g with logarithms -g_low = neg_g. Modulo the left ideal of g,
    left multiplication by x maps a residue r of degree below deg g to
    shift(theta(r)) - theta(r_top) * g_low, so the residues are stepped up
    from x^0 = 1."""
    arrays = spec.arrays()
    wrap, plus, frob = arrays.wrap, arrays.plus, arrays.frob
    power = np.full(neg_g.shape, arrays.zero, dtype=np.int32)
    power[:, 0] = 0  # x^0 = 1
    j = 0
    for k, log_fk in terms:
        for _ in range(k - j):
            twisted = frob[power]
            power = wrap[twisted[:, -1:] + neg_g]
            low = twisted[:, :-1]
            power[:, 1:] = wrap[low + plus[(power[:, 1:] + arrays.zero) - low]]
        j = k
        yield wrap[power + log_fk]


def _norm_exponent(spec: FieldSpec, k: int) -> int:
    """e_k = 1 + r + ... + r^(k-1) mod (q - 1), r = p^t: the norm
    N_k(a) = theta^(k-1)(a) ... theta(a) a of a field element is a^(e_k)."""
    order = spec.q - 1
    r = spec.p ** spec.t
    # r^k = 1 mod (r - 1), so reducing r^k mod order * (r - 1) keeps
    # (r^k - 1) / (r - 1) mod order exact
    return (pow(r, k, order * (r - 1)) - 1) // (r - 1)


def _linear_terms(spec: FieldSpec, neg_g, terms):
    """_stepped_terms for g = x - a, a = -g_0, in closed form: x^k mod g is
    the norm N_k(a) = a^(e_k) (_norm_exponent); N_0 = 1 and N_k(0) = 0 for
    k >= 1. One exponent per term, not k steps. A binomial x^n - c never
    gets here: _binomial_root_codes solves it without a screen."""
    arrays = spec.arrays()
    order = spec.q - 1
    log_a = neg_g.astype(np.int64)
    a_is_zero = log_a == arrays.zero
    for k, log_fk in terms:
        term = arrays.wrap[log_a * _norm_exponent(spec, k) % order + log_fk]
        if k:
            term[a_is_zero] = arrays.zero
        yield term


def _binomial_root_codes(spec: FieldSpec, n: int, c: FieldElement):
    """Ascending codes of the g_0 for which x + g_0 right-divides x^n - c
    (n >= 1). With a = -g_0, the remainder is N_n(a) - c, so the roots are
    the solutions of a^(e_n) = c: a = 0 alone when c = 0; otherwise, with
    gcd = gcd(e_n, q - 1), none unless gcd divides log c, and then the gcd
    logarithms L_0 + j * (q - 1) / gcd, L_0 solving
    e_n * L = log c (mod q - 1)."""
    if c.is_zero:
        return [0]
    order = spec.q - 1
    e_n = _norm_exponent(spec, n)
    gcd = math.gcd(e_n, order)
    log_c = spec.log[c.code]
    if log_c % gcd:
        return []
    step = order // gcd
    base = log_c // gcd * pow(e_n // gcd, -1, step) % step
    half = order // 2  # log(-a) = log a + half
    return sorted(spec.exp[base + j * step + half].code for j in range(gcd))


def _monic_divisors(spec: FieldSpec, found):
    """The monic polynomials whose CRT components have the low coefficient
    codes listed in `found`, one list per component: over F_q (one list)
    in its order, over R (four lists) every combination, in lexicographic
    coefficient order by the (a, b, c, d) codes of ascending powers."""
    polys = [[SkewPoly(spec, "fq", [spec.from_int(c) for c in codes] + [spec.one]) for codes in part]
             for part in found]
    if len(polys) == 1:
        return polys[0]
    out = [from_components(*parts) for parts in itertools.product(*polys)]
    out.sort(key=lambda g: [(c.a.code, c.b.code, c.c.code, c.d.code) for c in g.coeffs])
    return out


def _monic_right_factors(f: SkewPoly, degree: int):
    """The monic degree-`degree` right divisors of an arbitrary polynomial f
    that the screen finds, in the order of _monic_divisors: ascending
    powers, each coefficient by its integer element code, or over R by its
    (a, b, c, d) codes.

    Each CRT component f_i (f itself over F_q) is screened on its own
    (_batched_divisor_codes), since a monic g right-divides f exactly when
    each component g_i right-divides f_i. Nothing is certified here: a
    caller certifies a divisor by the right remainder or division it makes
    with it.
    """
    parts = component_polys(f) if f.ring == "R" else (f,)
    return _monic_divisors(f.spec, [list(_batched_divisor_codes(fi, degree)) for fi in parts])


def _check_certificate(f: SkewPoly, g: SkewPoly, rem: SkewPoly):
    """Raise VerificationError unless rem, the right remainder of f by the
    screened divisor g, is zero."""
    if not rem.is_zero:
        raise VerificationError(f"candidate divisor {g!r} does not right-divide {f!r}")


def _certify(f: SkewPoly, g: SkewPoly):
    """The quotient of f by a screened divisor g; a nonzero remainder raises."""
    quot, rem = right_divmod(f, g)
    _check_certificate(f, g, rem)
    return quot


def random_right_divisor(mod: ModulusSpec, rng, degree: int) -> SkewPoly:
    """A random monic right divisor of x^n - alpha of degree at most `degree`.

    Peels random factors of degree 1 (or 2 when no linear factor exists) off
    the successive cofactors; stops early if the cofactor has no small right
    factor. The chain x^n - alpha = cofactor * divisor makes every
    intermediate divisor a genuine right divisor: the division that gives
    the next cofactor certifies the factor picked, and only that one.
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
        cofactor = _certify(cofactor, g)
        divisor = g * divisor
    return divisor


def right_divisor_search(mod: ModulusSpec, degree: int, budget: int = DEFAULT_BUDGET):
    """All monic right divisors of x^n - alpha of the given degree, in the
    order of _monic_divisors, each certified by the right remainder of
    x^n - alpha (right_remainder: streamed residues, no division).

    A monic g right-divides x^n - alpha exactly when each CRT component g_i
    right-divides x^n - beta_i, (beta_1, ..., beta_4) = alpha.crt(); over
    F_q the one component is alpha. At degree 1 each component's roots
    come in closed form from (n, beta_i) (_binomial_root_codes), with no
    candidate tried; at any other degree each x^n - beta_i is screened over
    its q^degree candidates. None exists above degree n.

    Work is charged in (n - degree + 1)(degree + 1) steps, those of one
    division of x^n - alpha: once per candidate screened, before the first
    screen, then once more per divisor certificate, cumulatively, before
    x^n - alpha is built. A search with no divisor returns at once,
    whatever n. A screen of more candidates per component than the budget
    is refused first, its count written as a power, so that no refusal
    prints a count much longer than the budget.
    """
    n = mod.n
    if degree > n:
        return []
    spec, q = mod.spec, mod.spec.q
    betas = mod.alpha.crt() if mod.ring == "R" else (mod.alpha,)
    certificate = (n - degree + 1) * (degree + 1)
    screened = 0
    if degree == 1:
        found = [[(c,) for c in _binomial_root_codes(spec, n, beta)] for beta in betas]
    else:
        # q >= 3, so q^degree > budget once degree reaches budget's bit length
        if degree >= budget.bit_length() or q ** degree > budget:
            raise BudgetExceededError(f"{q}^{degree} candidates per component exceed the budget of {budget}")
        candidates = len(betas) * q ** degree
        screened = candidates * certificate
        charge(budget, screened, f"{candidates} candidates * (n - degree + 1)(degree + 1)", "division steps")
        found = [list(_batched_divisor_codes(ModulusSpec(n, beta).poly(), degree)) for beta in betas]
    count = math.prod(map(len, found))
    needs = f"{count} divisors * (n - degree + 1)(degree + 1)"
    charge(budget, screened + count * certificate, f"{screened} + {needs}" if screened else needs, "division steps")
    if not count:
        return []
    f = mod.poly()
    divisors = _monic_divisors(spec, found)
    for g in divisors:
        _check_certificate(f, g, right_remainder(f, g))
    return divisors


# --- word <-> polynomial ---

def poly_to_word(f: SkewPoly, n: int):
    if not f.is_zero and f.degree >= n:
        raise LengthMismatchError(f"degree {f.degree} polynomial in a length-{n} word")
    return f.coeffs + (f._zero_coeff(),) * (n - len(f.coeffs))


def skew_constacyclic_shift(word, alpha):
    """tau_alpha: (c_0..c_{n-1}) -> (alpha * theta(c_{n-1}), theta(c_0), ..,
    theta(c_{n-2})). The skew cyclic shift sigma is tau with alpha = 1."""
    word = tuple(word)
    return (alpha * word[-1].frob(1),) + tuple(c.frob(1) for c in word[:-1])


def _blocks(word, count: int):
    """`word` cut into `count` equal chunks."""
    word = tuple(word)
    n = len(word)
    if count < 1 or n % count != 0:
        raise BadIndexError(f"{count} blocks do not divide length {n}")
    size = n // count
    return [word[b * size:(b + 1) * size] for b in range(count)]


def blockwise_constacyclic_shift(word, constants):
    """omega: split into len(constants) equal chunks; chunk b gets the skew
    constacyclic shift with constants[b]. The blockwise skew cyclic shift
    pi_b is omega with b unit constants."""
    return sum(map(skew_constacyclic_shift, _blocks(word, len(constants)), constants), ())


def quasi_twist_shift(word, alpha, block: int):
    """Rotate by one size-`block` chunk; the wrapped chunk is scaled by alpha.

    This is the untwisted quasi-twisted shift of index `block`; index 1 is
    the untwisted constacyclic shift, x* in F_q[x]/(x^n - alpha).
    """
    word = tuple(word)
    n = len(word)
    if block < 1 or n % block != 0:
        raise BadIndexError(f"block size {block} does not divide length {n}")
    return tuple(alpha * c for c in word[n - block:]) + word[: n - block]


def _shift_orbit(f: SkewPoly, mod: ModulusSpec):
    """Words of x^j * f mod (x^n - alpha), j = 0, 1, ...: f's remainder, then
    its shifts tau_alpha, which is left multiplication by x (x^n = alpha).
    Mixed rings are refused at once, even when no word is read; f of degree
    below n is its own remainder, so only a longer f is divided."""
    f._check_compatible(mod)  # reads only .spec and .ring, which mod has
    if not f.is_zero and f.degree >= mod.n:
        f = right_remainder(f, mod.poly())
    word = poly_to_word(f, mod.n)
    return itertools.accumulate(itertools.repeat(mod.alpha), skew_constacyclic_shift, initial=word)


def span_words(f: SkewPoly, mod: ModulusSpec):
    """The first n words of f's shift orbit, x^j * f mod (x^n - alpha), with
    no division. Their span over the coefficient ring is the module <f>."""
    return list(itertools.islice(_shift_orbit(f, mod), mod.n))


def generator_basis_words(f: SkewPoly, mod: ModulusSpec):
    """The nominal basis x^j * f, j < n - deg f, of a right-divisor
    generator: the head of the shift orbit, and [] for f = 0."""
    count = 0 if f.is_zero else max(mod.n - f.degree, 0)
    return list(itertools.islice(_shift_orbit(f, mod), count))


# --- dual cofactor generator ---

def dual_generator(h: SkewPoly, n: int) -> SkewPoly:
    """Coefficient reversal with iterated twist:
    result_i = theta^(i - n)(h_{deg - i}).

    Applied to the cofactor h of x^n - alpha = h * f, it generates the dual
    of <f>. When theta's order k divides n, theta^(i - n) is theta^i. The
    form is validated against brute-force dual oracles in the test suite.
    """
    if h.is_zero:
        raise ZeroPolynomialError("dual generator of the zero polynomial")
    r = h.degree
    return SkewPoly(h.spec, h.ring, [h.coeff(r - i).frob(i - n) for i in range(r + 1)])


# --- idempotent generators ---

def c_mul(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """The commutative product f g, x b = b x."""
    return f._mul(g, twisted=False)


def _fold(f: SkewPoly, mod: ModulusSpec):
    """The word of f mod (x^n - alpha) in the commutative quotient: from
    the top, x^(n + i) = alpha x^i."""
    n = mod.n
    word = list(f.coeffs) + [f._zero_coeff()] * (n - len(f.coeffs))
    for i in range(len(word) - 1, n - 1, -1):
        word[i - n] = word[i - n] + mod.alpha * word[i]
    return tuple(word[:n])


def idempotent_generator(f: SkewPoly, mod: ModulusSpec) -> SkewPoly:
    """Idempotent e with e*e = e mod (x^n - alpha) and <e> = <f>.

    Requires gcd(n, k) = 1 and gcd(n, q) = 1. Then, for an alpha that
    theta fixes, <f> is closed under the untwisted shift
    rho = quasi_twist_shift(., alpha, 1), x* in F_q[x]/(x^n - alpha), so it
    is an ideal there with basis rho^j(f) = x^j f, j < n - deg f. In
    that semisimple ring its idempotent is its one element that acts as the
    identity on it (MacWilliams and Sloane, The Theory of Error-Correcting
    Codes, ch. 8 §3), so e = sum_j a_j x^j f for the one solution of
    e f = sum_j a_j rho^j(f f) = f: one linear solve, no quotient. No
    unique solution means that x^n - alpha is not squarefree (alpha = 0)
    or, for an alpha that theta moves, that <f> is no such ideal.

    e is then verified in the skew ring. f right-divides x^n - alpha, so
    <f>, the words of degree < n that f right-divides, is closed under x*
    and of dimension n - deg f: it is <e> once f right-divides e and its n
    span words have that rank. A failed check is a HypothesisViolatedError
    if theta moves alpha, which the construction assumes it fixes.
    """
    spec = f.spec
    n = mod.n
    if math.gcd(n, spec.k) != 1 or math.gcd(n, spec.q) != 1:
        raise HypothesisViolatedError(
            f"need gcd(n,k)=1 and gcd(n,q)=1; got n={n}, k={spec.k}, q={spec.q}"
        )
    if not is_right_divisor(f, mod):
        raise NotADivisorError(f"{f!r} does not right-divide x^{n} - {mod.alpha!r}")
    dim = n - f.degree
    rho = functools.partial(quasi_twist_shift, block=1)
    columns = itertools.accumulate(itertools.repeat(mod.alpha), rho, initial=_fold(c_mul(f, f), mod))
    solutions = nullspace(list(zip(*itertools.islice(columns, dim), _fold(f, mod))), dim + 1, spec)
    if len(solutions) != 1 or solutions[0][dim] != spec.one:
        raise HypothesisViolatedError(
            f"<{f!r}> has no idempotent generator mod x^{n} - {mod.alpha!r}:"
            " no unique e in it with e f = f in the commutative quotient"
        )
    e = c_mul(SkewPoly(spec, f.ring, [-a for a in solutions[0][:dim]]), f)
    moved = "" if is_theta_fixed(mod.alpha) else f"theta(alpha) != alpha ({mod.alpha.frob(1)!r} != {mod.alpha!r}): "
    error = HypothesisViolatedError if moved else VerificationError
    square = reduce_mod(e * e, mod)
    if square != e:
        raise error(f"{moved}constructed polynomial is not skew-idempotent: e*e = {square!r}")
    if not right_remainder(e, f).is_zero or len(rref(span_words(e, mod))[0]) != dim:
        raise error(f"{moved}idempotent generates a different submodule than f")
    return e


def dual_idempotent(e: SkewPoly, mod: ModulusSpec) -> SkewPoly:
    """1 - e(x^{-1}) reduced mod x^n - alpha (alpha a theta-fixed unit)."""
    alpha = mod.alpha
    if not alpha.is_unit:
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
    parts = (f1, f2, f3, f4)
    if any(f.spec != f1.spec or f.ring != "fq" for f in parts):
        raise MixedRingsError("components must be base-field polynomials over one field")
    top = max(len(f.coeffs) for f in parts)
    return SkewPoly(f1.spec, "R", join_word(poly_to_word(f, top) for f in parts))


def component_polys(f: SkewPoly):
    """The four CRT component polynomials of an R-polynomial."""
    if f.ring != "R":
        raise MixedRingsError("expected a polynomial over R")
    return tuple(SkewPoly(f.spec, "fq", comp) for comp in split_word(f.coeffs))
