"""Skew polynomials over F_q or over R, with the twisted product

    (a x^i) * (b x^j) = a theta^i(b) x^(i+j)

where theta is the configured power of Frobenius. Division is always by a
divisor on the RIGHT with the quotient on the LEFT, matching the single
factorization shape used by every construction in this package:
x^n - alpha = h(x) * f(x).

_log_divmod is the one division, on logarithm lists (see gf): right_divmod
is its adapter for polynomials, and DivisorSampler.random_right_divisor
peels with it. A question that needs only a remainder reads it off the
streamed residues x^D mod g instead (right_remainder, residue_sum), which
measured faster than a division on the lists for the membership, search
and certificate reads that ask it.
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
from .linalg import nullspace
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
        if self.spec is not other.spec or self.ring != other.ring:
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
        return self.spec is other.spec and self.ring == other.ring and self.coeffs == other.coeffs

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

    @property
    def coeffs(self):
        """The coefficients of x^n - alpha, ascending powers."""
        spec = self.spec
        zero = ring_zero(spec) if self.ring == "R" else spec.zero
        one = ring_one(spec) if self.ring == "R" else spec.one
        return [-self.alpha] + [zero] * (self.n - 1) + [one]

    def poly(self) -> SkewPoly:
        """x^n - alpha in the coefficient ring of alpha."""
        return SkewPoly(self.spec, self.ring, self.coeffs)


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


def right_divmod(f: SkewPoly, g: SkewPoly):
    """(quot, rem) with f = quot * g + rem and deg rem < deg g.

    With c = lead(g)^-1, _log_divmod divides f's logarithm lists by those
    of the monic c * g: f = quot' * (c * g) + rem, so quot = quot' * c, one
    skew product."""
    _check_divisor(f, g)
    c = g.lead.inverse()
    quot, rem = _log_divmod(f.spec, _logs(f), _logs(g.scale_left(c)))
    return _poly_of_logs(f.spec, f.ring, quot) * SkewPoly(f.spec, f.ring, [c]), _poly_of_logs(f.spec, f.ring, rem)


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


# Candidate divisors screened per numpy batch. A screen's working memory on
# its intp rows peaks at 75-90 bytes per candidate and coefficient
# (tracemalloc, degrees 2 to 5 over F9, F25 and F243), so this bounds it
# whatever the candidate count: about 0.36 MB at degree 2.
_CHUNK = 1 << 11


def _batched_divisor_codes(spec: FieldSpec, f, degree: int):
    """Coefficient codes (g_0, ..., g_{degree-1}) of the monic degree-`degree`
    polynomials g over F_q whose right remainder of f is zero, in
    itertools.product order (g_0 most significant). f is a logarithm list
    (see gf), ascending powers, with a nonzero top.

    At degree deg f the one such g is lead(f)^-1 * f, with no screen. At
    degree 1, a binomial f = x^n - c (monic, n >= 1, no other nonzero term)
    is solved in closed form (_binomial_root_codes), and any other f is
    screened on the spec's lists (_linear_root_codes). At other degrees d
    the remainder of f is sum_k f_k * (x^k mod g) (see residues), added up
    for every candidate at once on logarithms (gf.FieldArrays), chunk by
    chunk, one row per coefficient; _stepped_terms gives its terms.

    That screen tries one candidate per orbit of the scalings that fix f up
    to a constant. phi_c: x -> cx (c != 0) is a ring automorphism with
    phi_c(x^j) = N_j(c) x^j = c^(e_j) x^j (_norm_exponent). For the c of the
    group K_f = {c : c^(e_j - e_low) = 1 over f's nonzero terms}, of order
    G = gcd(q - 1, e_j - e_low), phi_c(f) is a constant times f, so phi_c
    maps each monic right divisor g of f to another, g'_j = g_j c^(e_j - e_d).
    On g_(d-1) != 0 it acts freely, g'_(d-1) = g_(d-1) theta^(d-1)(c)^-1, so
    the screen tries only the g with g_(d-1) = 0 or log g_(d-1) < (q - 1) / G,
    q^(d-1) (1 + (q - 1) / G) of the q^d, and adds the G - 1 other images of
    each hit with g_(d-1) != 0 (_orbit_images). With G = 1 it tries all q^d
    candidates, in order, and sorts nothing.
    """
    if not degree:
        return [()]
    if degree == len(f) - 1:
        inverse = -f[-1] % (spec.q - 1)
        return [tuple(spec.exp[l + inverse].code for l in f[:-1])]
    if degree == 1:
        binomial = len(f) > 1 and f[-1] == 0 and f[1:-1] == [spec.log_zero] * (len(f) - 2)
        roots = _binomial_root_codes(spec, len(f) - 1, -spec.exp[f[0]]) if binomial else _linear_root_codes(spec, f)
        return [(code,) for code in roots]
    q = spec.q
    arrays = spec.arrays()
    zero, log, wrap, plus = arrays.zero, arrays.log, arrays.wrap, arrays.plus
    terms = [(j, l) for j, l in enumerate(f) if l != zero]
    norms = [_norm_exponent(spec, j) for j, _ in terms]
    group = math.gcd(q - 1, *(e - norms[0] for e in norms))
    # g_(d-1): 0, then the code of each coset of K_f with log below (q - 1) / G
    tops = np.concatenate(([0], np.flatnonzero(log < (q - 1) // group)))
    width = len(tops)
    places = width * q ** np.arange(degree - 2, -1, -1)[:, None]
    count = q ** (degree - 1) * width
    hits = []
    for start in range(0, count, _CHUNK):
        index = np.arange(start, min(start + _CHUNK, count))
        codes = np.empty((degree, len(index)), dtype=np.intp)
        codes[:-1] = index // places % q
        codes[-1] = tops[index % width]
        rem = np.full(codes.shape, zero)
        for term in _stepped_terms(spec, wrap[log[codes] + arrays.half], terms):
            rem = wrap[rem + plus[(term + zero) - rem]]
        hits.append(codes[:, (rem == zero).all(axis=0)].T)
    hits = np.concatenate(hits)
    return list(map(tuple, hits.tolist())) if group == 1 else _orbit_images(spec, hits, group)


def _stepped_terms(spec: FieldSpec, neg_g, terms):
    """Logarithms of f_k * (x^k mod g) for each term (k, log f_k), per
    candidate g with logarithms -g_low = neg_g, one row per coefficient and
    one column per candidate. Modulo the left ideal of g, left
    multiplication by x maps a residue r of degree below deg g to
    shift(theta(r)) - theta(r_top) * g_low, so the residues are stepped up
    from x^0 = 1. Arrays and tables are intp, the type numpy indexes with,
    so that no lookup converts its index."""
    arrays = spec.arrays()
    zero, wrap, plus, frob = arrays.zero, arrays.wrap, arrays.plus, arrays.frob
    power = np.full(neg_g.shape, zero)
    power[0] = 0  # x^0 = 1
    j = 0
    for k, log_fk in terms:
        for _ in range(k - j):
            twisted = frob[power]
            power = wrap[twisted[-1] + neg_g]
            low = twisted[:-1]
            power[1:] = wrap[low + plus[(power[1:] + zero) - low]]
        j = k
        yield wrap[power + log_fk]


def _orbit_images(spec: FieldSpec, hits, group: int):
    """The screened divisors `hits` (rows of codes g_0, ..., g_(d-1)) with
    the images g'_j = g_j c^(e_j - e_d) of each row with g_(d-1) != 0 under
    the G - 1 scalings c != 1 of K_f (see _batched_divisor_codes), the c
    with logarithms l (q - 1) / G, 0 < l < G; as code tuples in
    itertools.product order."""
    order, degree = spec.q - 1, hits.shape[1]
    arrays = spec.arrays()
    e_d = _norm_exponent(spec, degree)
    shifts = np.array([(_norm_exponent(spec, j) - e_d) % order for j in range(degree)])
    turns = np.arange(1, group)[:, None] * (order // group) * shifts % order
    moved = arrays.log[hits[hits[:, -1] != 0]][:, None, :]
    images = arrays.exp[arrays.wrap[moved + turns]].reshape(-1, degree)
    return sorted(map(tuple, np.concatenate([hits, images]).tolist()))


def _norm_exponent(spec: FieldSpec, k: int) -> int:
    """e_k = 1 + r + ... + r^(k-1) mod (q - 1), r = p^t: the norm
    N_k(a) = theta^(k-1)(a) ... theta(a) a of a field element is a^(e_k)."""
    order = spec.q - 1
    r = spec.p ** spec.t
    # r^k = 1 mod (r - 1), so reducing r^k mod order * (r - 1) keeps
    # (r^k - 1) / (r - 1) mod order exact
    return (pow(r, k, order * (r - 1)) - 1) // (r - 1)


def _linear_root_codes(spec: FieldSpec, f):
    """Ascending codes of the g_0 for which x + g_0 right-divides the
    polynomial over F_q with logarithm list f, one candidate at a time: with
    a = -g_0, x^k mod (x - a) is the norm N_k(a) = a^(e_k) (_norm_exponent),
    so the remainder sum_k f_k a^(e_k) is f_0 at a = 0, and otherwise one
    exponent and one Zech addition per term."""
    order, zero, log, plus, wrap = spec.q - 1, spec.log_zero, spec.log, spec.plus, spec.wrap
    terms = [(_norm_exponent(spec, k), l) for k, l in enumerate(f) if l != zero]
    out = [0] if f[0] == zero else []
    for code in range(1, spec.q):
        log_a, rem = log[spec.neg[code]], zero
        for e_k, log_fk in terms:
            rem = wrap[rem + plus[(log_a * e_k + log_fk) % order - rem + zero]]
        if rem == zero:
            out.append(code)
    return out


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


def _binomial_cofactor_codes(spec: FieldSpec, n: int, roots):
    """Ascending code tuples (g_0, ..., g_{n-2}) of the monic degree-(n - 1)
    right divisors g of x^n - c (n >= 2), the right cofactors of its linear
    left factors: x^n - c = (x - b) * g. Comparing coefficients, g_{n-1} = 1,
    g_{i-1} = theta^-1(b g_i) and b g_0 = c, so
    c = b theta^-1(b) ... theta^-(n-1)(b) and N_n(b) = theta^(n-1)(c): the b
    are the negated codes `roots` = _binomial_root_codes(n, theta^(n-1)(c)),
    b = 0 alone when c = 0, which gives g = x^(n-1)."""
    out = []
    for code in roots:
        b = -spec.from_int(code)
        g = [spec.one]
        for _ in range(n - 1):
            g.append((b * g[-1]).frob(-1))
        out.append(tuple(x.code for x in reversed(g[1:])))
    return sorted(out)


def _divisor_codes(spec: FieldSpec, found):
    """Every choice of one entry from each list in `found`, the low
    coefficient codes of monic divisors, one list per CRT component, as a
    tuple of code tuples, one per component: over F_q (one list) in its
    order, over R (four lists) in lexicographic order of the (a, b, c, d)
    codes of ascending powers."""
    choices = list(itertools.product(*found))
    if len(found) > 1:
        choices.sort(key=lambda choice: [(c.a.code, c.b.code, c.c.code, c.d.code)
                                         for c in join_word([map(spec.from_int, codes) for codes in choice])])
    return choices


def _logs(f):
    """The logarithm lists of the CRT components of f, a SkewPoly or the
    ModulusSpec of x^n - alpha (it reads .spec, .ring and .coeffs), ascending
    powers: one list over F_q and four over R. The inverse of _poly_of_logs."""
    log = f.spec.log
    return [[log[c.code] for c in part] for part in (split_word(f.coeffs) if f.ring == "R" else (f.coeffs,))]


def _monic_logs(spec: FieldSpec, choice):
    """The logarithm lists of the monic polynomials whose low coefficient
    codes are the tuples of `choice`, one per CRT component."""
    log = spec.log
    return [[log[c] for c in codes] + [0] for codes in choice]


def _poly_of_logs(spec: FieldSpec, ring: str, parts) -> SkewPoly:
    """The polynomial whose CRT components have the logarithm lists `parts`,
    all of one length: one list over F_q and four over R."""
    exp = spec.exp
    words = [[exp[l] for l in part] for part in parts]
    return SkewPoly(spec, ring, join_word(words) if ring == "R" else words[0])


def _monic_divisors(spec: FieldSpec, found):
    """The monic polynomials of _divisor_codes(spec, found), in its order."""
    ring = "R" if len(found) > 1 else "fq"
    return [_poly_of_logs(spec, ring, _monic_logs(spec, choice)) for choice in _divisor_codes(spec, found)]


def _monic_right_factors(spec: FieldSpec, parts, degree: int):
    """The monic degree-`degree` right divisors that the screen finds of the
    polynomial whose CRT components (itself over F_q) have the logarithm
    lists `parts`, as _divisor_codes' code tuples, in its order: ascending
    powers, each coefficient by its integer element code, or over R by its
    (a, b, c, d) codes. No polynomial is built.

    Each component f_i is screened on its own (_batched_divisor_codes),
    since a monic g right-divides f exactly when each component g_i
    right-divides f_i. Nothing is certified here: a caller certifies a
    divisor by the right remainder or division it makes with it.
    """
    return _divisor_codes(spec, [_batched_divisor_codes(spec, f, degree) for f in parts])


def _log_divmod(spec: FieldSpec, f, g):
    """The right division of f by a monic g, on logarithm lists, one per
    CRT component of each: the quotient's lists and the remainder's, deg g
    logarithms each (f's own where deg f < deg g). From the top, step d
    reads quot_d, the x^(d + deg g) coefficient left, and adds
    quot_d theta^d(-g_j) to the x^(d + j) one, j < deg g. theta^d depends
    only on d mod k, so each twisted -g is built once. It is the one loop
    that divides: right_divmod and DivisorSampler.random_right_divisor's
    peel call it."""
    zero, plus, wrap, half, k = spec.log_zero, spec.plus, spec.wrap, (spec.q - 1) // 2, spec.k
    quots, rems = [], []
    for rem, gi in zip(f, g):
        rem, low, quot = list(rem), len(gi) - 1, []
        neg = [wrap[l + half] for l in gi[:-1]]  # log(-x) = log x + (q - 1)/2
        twists = [neg] + [spec.twist(neg, r) for r in range(1, min(k, len(rem) - low))]
        for d in range(len(rem) - 1 - low, -1, -1):
            c = rem.pop()
            quot.append(c)
            if c == zero:
                continue
            for j, l in enumerate(twists[d % k], d):
                if l != zero:
                    rem[j] = wrap[rem[j] + plus[wrap[c + l] - rem[j] + zero]]
        quots.append(quot[::-1])
        rems.append(rem)
    return quots, rems


def _log_product(spec: FieldSpec, f, g):
    """The skew product f * g of two polynomials over F_q as logarithm
    lists: sum f_i theta^i(g_j) x^(i+j), with theta^i(g) built once per
    residue of i mod k."""
    zero, plus, wrap, k = spec.log_zero, spec.plus, spec.wrap, spec.k
    twists = [g] + [spec.twist(g, r) for r in range(1, min(k, len(f)))]
    out = [zero] * (len(f) + len(g) - 1)
    for i, lf in enumerate(f):
        if lf == zero:
            continue
        for j, lg in enumerate(twists[i % k], i):
            if lg != zero:
                out[j] = wrap[out[j] + plus[wrap[lf + lg] - out[j] + zero]]
    return out


class DivisorSampler:
    """Random monic right divisors whose draws share their screens.

    Each draw's screens, _monic_right_factors's lists of the monic right
    factors of a cofactor, are kept in a table keyed by (field, the
    cofactor's logarithm lists, degree): a later draw that meets the same
    cofactor reads the list instead of screening again, and so picks from
    the same list: a draw with a new sampler is the same draw. The table
    lives as long as the sampler: the decomposition suite makes one per
    request, and there is none at module level.
    """

    __slots__ = ("_screens",)

    def __init__(self):
        self._screens = {}

    def _factors(self, spec: FieldSpec, parts, degree: int):
        """_monic_right_factors(spec, parts, degree), screened once per key;
        called through the module attribute, which a tracer may wrap."""
        key = (spec, tuple(map(tuple, parts)), degree)
        found = self._screens.get(key)
        if found is None:
            found = self._screens[key] = _monic_right_factors(spec, parts, degree)
        return found

    def random_right_divisor(self, mod: ModulusSpec, rng, degree: int) -> SkewPoly:
        """A random monic right divisor of x^n - alpha of degree at most
        `degree`.

        Peels random factors of degree 1 (or 2 when no linear factor
        exists) off the successive cofactors; stops early if the cofactor
        has no small right factor. The chain x^n - alpha = cofactor *
        divisor makes every intermediate divisor a genuine right divisor:
        the remainder of the next cofactor certifies the factor picked, and
        only that one.

        It runs on logarithm lists, one per CRT component, from start to
        end. The sampler's table gives the cofactor's screen (_factors),
        rng picks from its code tuples, and only the pick becomes lists
        (_monic_logs). One right division on the lists (_log_divmod) gives
        the next cofactor, and its all-zero remainder is the pick's
        certificate. The pick is multiplied onto the divisor on the lists
        (_log_product), and the divisor is the one polynomial built. A
        nonzero remainder raises VerificationError.
        """
        spec, ring = mod.spec, mod.ring
        parts = _logs(mod)
        divisor = [[0]] * len(parts)  # the logarithm of 1
        while len(divisor[0]) <= degree and len(parts[0]) > 1:
            remaining = degree + 1 - len(divisor[0])
            candidates = []
            for d in range(1, min(2, remaining, len(parts[0]) - 1) + 1):
                candidates = self._factors(spec, parts, d)
                if candidates:
                    break
            if not candidates:
                break
            factor = _monic_logs(spec, rng.choice(candidates))
            quot, rem = _log_divmod(spec, parts, factor)
            if any(l != spec.log_zero for part in rem for l in part):
                raise VerificationError(f"candidate divisor {_poly_of_logs(spec, ring, factor)!r}"
                                        f" does not right-divide {_poly_of_logs(spec, ring, parts)!r}")
            parts = quot
            divisor = [_log_product(spec, gi, di) for gi, di in zip(factor, divisor)]
        return _poly_of_logs(spec, ring, divisor)


def right_divisor_search(mod: ModulusSpec, degree: int, budget: int = DEFAULT_BUDGET):
    """All monic right divisors of x^n - alpha of the given degree, in the
    order of _monic_divisors, each certified by the right remainder of
    x^n - alpha (right_remainder: streamed residues, no division).

    A monic g right-divides x^n - alpha exactly when each CRT component g_i
    right-divides x^n - beta_i, (beta_1, ..., beta_4) = alpha.crt(); over
    F_q the one component is alpha. At degree 1 each component's roots
    come in closed form from (n, beta_i) (_binomial_root_codes), and at
    degree n - 1 >= 2 the cofactors of its linear left factors
    (_binomial_cofactor_codes), and at degree n the one divisor x^n - alpha,
    with no candidate tried; at any other degree each x^n - beta_i is
    screened (_batched_divisor_codes), over at most q^degree candidates.
    None exists above degree n.

    Work is charged in (n - degree + 1)(degree + 1) steps, those of one
    division of x^n - alpha: once per candidate of q^degree per component,
    before the first screen, then once more per divisor certificate,
    cumulatively, before x^n - alpha or a cofactor is built. A search with
    no divisor returns at once, whatever n. A screen of more candidates per
    component than the budget is refused first, its count written as a
    power, so that no refusal prints a count much longer than the budget.
    """
    n = mod.n
    if degree > n:
        return []
    spec, q = mod.spec, mod.spec.q
    betas = mod.alpha.crt() if mod.ring == "R" else (mod.alpha,)
    certificate = (n - degree + 1) * (degree + 1)
    screened = 0
    cofactors = degree == n - 1 > 1
    if degree == 1:
        found = [[(c,) for c in _binomial_root_codes(spec, n, beta)] for beta in betas]
    elif cofactors:
        # one divisor per left root, counted here and built once charged
        found = [_binomial_root_codes(spec, n, beta.frob(n - 1)) for beta in betas]
    elif degree < n:
        # q >= 3, so q^degree > budget once degree reaches budget's bit length
        if degree >= budget.bit_length() or q ** degree > budget:
            raise BudgetExceededError(f"{q}^{degree} candidates per component exceed the budget of {budget}")
        candidates = len(betas) * q ** degree
        screened = candidates * certificate
        charge(budget, screened, f"{candidates} candidates * (n - degree + 1)(degree + 1)", "division steps")
        found = [_batched_divisor_codes(spec, part, degree) for part in _logs(mod)]
    else:  # degree n: x^n - alpha itself, one divisor per component, built once charged
        found = [[()]] * len(betas)
    count = math.prod(map(len, found))
    needs = f"{count} divisors * (n - degree + 1)(degree + 1)"
    charge(budget, screened + count * certificate, f"{screened} + {needs}" if screened else needs, "division steps")
    if not count:
        return []
    if cofactors:
        found = [_binomial_cofactor_codes(spec, n, roots) for roots in found]
    f = mod.poly()
    divisors = [f] if degree == n else _monic_divisors(spec, found)
    for g in divisors:
        if not right_remainder(f, g).is_zero:
            raise VerificationError(f"candidate divisor {g!r} does not right-divide {f!r}")
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
    return (alpha * word[-1].frob(1),) + tuple([c.frob(1) for c in word[:-1]])


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
    generator, and [] for f = 0 or deg f >= n. Below degree n nothing is
    reduced, so word j is the head of the shift orbit in closed form:
    x^j * f = sum_i theta^j(f_i) x^(i + j), f's coefficients twisted j times
    (each twist one theta-table lookup per coefficient, see gf) and shifted
    j places. Mixed rings are refused at once, as _shift_orbit refuses
    them."""
    f._check_compatible(mod)  # reads only .spec and .ring, which mod has
    n, pad, coeffs = mod.n, (f._zero_coeff(),), f.coeffs
    words = []
    for j in range(0 if f.is_zero else max(n - f.degree, 0)):
        words.append(pad * j + coeffs + pad * (n - j - len(coeffs)))
        coeffs = tuple([c.frob(1) for c in coeffs])
    return words


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
    or, for an alpha that theta moves, that <f> is no such ideal; the
    refusal then names theta(alpha) != alpha.

    e is then verified in the skew ring, by two inclusions and no rank:
    f right-dividing e puts e in <f>, and f*e = f mod (x^n - alpha) puts f
    in <e>. f*e is sum_j f_j tau_alpha^j(e), a combination of the first
    deg f + 1 words of e's shift orbit, with no product and no division.
    A failed check is a HypothesisViolatedError if theta moves alpha, which
    the construction assumes it fixes.
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
    moved = "" if is_theta_fixed(mod.alpha) else f"theta(alpha) != alpha ({mod.alpha.frob(1)!r} != {mod.alpha!r}): "
    if len(solutions) != 1 or solutions[0][dim] != spec.one:
        raise HypothesisViolatedError(
            f"{moved}<{f!r}> has no idempotent generator mod x^{n} - {mod.alpha!r}:"
            " no unique e in it with e f = f in the commutative quotient"
        )
    e = c_mul(SkewPoly(spec, f.ring, [-a for a in solutions[0][:dim]]), f)
    error = HypothesisViolatedError if moved else VerificationError
    square = reduce_mod(e * e, mod)
    if square != e:
        raise error(f"{moved}constructed polynomial is not skew-idempotent: e*e = {square!r}")
    f_times_e = [e._zero_coeff()] * n
    for c, word in zip(f.coeffs, _shift_orbit(e, mod)):
        f_times_e = [s + c * w for s, w in zip(f_times_e, word)]
    if not right_remainder(e, f).is_zero or tuple(f_times_e) != next(_shift_orbit(f, mod)):
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
    # x^{-j} = alpha^{-1} x^{n-j} in the quotient, so e(x^{-1}) has the
    # coefficient e_{n-j} alpha^{-1} at x^j, j > 0
    word = [e.coeff(0)] + [e.coeff(n - j) * ainv for j in range(1, n)]
    return SkewPoly(e.spec, e.ring, [e._one_coeff()]) - SkewPoly(e.spec, e.ring, word)


# --- CRT component assembly ---

def from_components(f1: SkewPoly, f2: SkewPoly, f3: SkewPoly, f4: SkewPoly) -> SkewPoly:
    """The R-polynomial whose CRT component polynomials are f1..f4."""
    parts = (f1, f2, f3, f4)
    if any(f.spec is not f1.spec or f.ring != "fq" for f in parts):
        raise MixedRingsError("components must be base-field polynomials over one field")
    top = max(len(f.coeffs) for f in parts)
    return SkewPoly(f1.spec, "R", join_word(poly_to_word(f, top) for f in parts))
