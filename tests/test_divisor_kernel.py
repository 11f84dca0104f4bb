"""Tests of the batched divisor search over F_q: the numpy field arrays, and
the remainder screen of skewpoly._batched_divisor_codes against the loop it
replaced, one right division per candidate, and against the screen of all
q^d candidates that preceded its one candidate per scaling orbit.

Fields are those of test_kernel.py, which include twists strictly between
the identity and the full Frobenius (1 < t < m).
"""

import contextlib
import gc
import hashlib
import io
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    component_polys,
    full_divisor_screen,
    monic_right_factors,
    object_divmod,
    object_random_right_divisor,
    random_right_divisor,
    random_ring_element,
    spy_log_divisions,
)
from test_kernel import FIELDS

import skewcodes.skewpoly as skewpoly
from skewcodes import cli
from skewcodes.errors import BudgetExceededError, VerificationError
from skewcodes.gf import FieldSpec, make_field
from skewcodes.ring4 import RingElement
from skewcodes.skewpoly import (
    DivisorSampler,
    ModulusSpec,
    SkewPoly,
    from_components,
    r_poly,
    right_divisor_search,
    right_divmod,
)

# candidate counts up to which the whole list is compared with the loop
FULL = 800
# and up to which a sample of candidates is
SAMPLED = 600_000


def loop_divisors(f, degree, candidates=None):
    """The monic right divisors of f among the candidates (default: all
    q^degree of them, in itertools.product order), one right division each."""
    spec = f.spec
    if candidates is None:
        candidates = itertools.product(range(spec.q), repeat=degree)
    out = []
    for codes in candidates:
        g = SkewPoly(spec, "fq", [spec.from_int(c) for c in codes] + [spec.one])
        if right_divmod(f, g)[1].is_zero:
            out.append(g)
    return out


def random_poly(spec, rng, degree, monic=False):
    lead = spec.one if monic else spec.from_int(rng.randrange(1, spec.q))
    return SkewPoly(spec, "fq", [spec.from_int(rng.randrange(spec.q)) for _ in range(degree)] + [lead])


def dividends(spec, rng, n, degree):
    """(f, a divisor f is known to have, or None): x^n - alpha, a random f
    with a non-monic lead, and h * g for a random monic g of the searched
    degree and a random h with a non-monic lead."""
    alpha = spec.from_int(rng.randrange(1, spec.q))
    out = [(ModulusSpec(n, alpha).poly(), None), (random_poly(spec, rng, n), None)]
    if degree <= n:
        g = random_poly(spec, rng, degree, monic=True)
        out.append((random_poly(spec, rng, n - degree) * g, g))
    return out


def codes_of(g):
    return tuple(c.code for c in g.coeffs[:-1])


def screen_codes(f, degree):
    """skewpoly._batched_divisor_codes of a polynomial f over F_q."""
    return list(skewpoly._batched_divisor_codes(f.spec, skewpoly._logs(f)[0], degree))


def test_field_arrays_match_element_arithmetic():
    for name in ("F81t2", "F7", "F125"):
        spec = make_field(*FIELDS[name])
        arrays = spec.arrays()
        elems = list(spec.elements())
        logs = arrays.log
        lx, ly = logs[:, None], logs[None, :]
        product = arrays.wrap[lx + ly]
        total = arrays.wrap[lx + arrays.plus[(ly + arrays.zero) - lx]]
        for x in elems:
            assert logs[(-x).code] == arrays.wrap[logs[x.code] + arrays.half]
            assert logs[x.frob(1).code] == arrays.frob[logs[x.code]]
            for y in elems:
                assert product[x.code, y.code] == logs[(x * y).code]
                assert total[x.code, y.code] == logs[(x + y).code]
                assert arrays.exp[logs[x.code] + logs[y.code]] == (x * y).code
        assert arrays.exp[arrays.zero] == 0 and logs[0] == arrays.zero


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_batched_search_matches_the_division_loop(name):
    spec = make_field(*FIELDS[name])
    rng = random.Random(name)
    for degree in range(4):
        count = spec.q ** degree
        if count > SAMPLED:
            continue
        for n in (max(degree - 1, 1), degree + 1, degree + 3):
            for f, known in dividends(spec, rng, n, degree):
                found = monic_right_factors(f, degree)
                if known is not None:
                    assert known in found
                if count <= FULL:
                    assert found == loop_divisors(f, degree)
                    continue
                # too many candidates for the loop: every divisor found is
                # certified, the list is in order, and a sample of candidates
                # divides f exactly when the list holds it
                keys = [codes_of(g) for g in found]
                assert keys == sorted(keys)
                assert all(right_divmod(f, g)[1].is_zero for g in found)
                sample = sorted(tuple(rng.randrange(spec.q) for _ in range(degree)) for _ in range(300))
                hits = set(keys)
                assert [codes_of(g) for g in loop_divisors(f, degree, sample)] == [c for c in sample if c in hits]


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_chunk_boundaries_do_not_change_the_list(chunk, monkeypatch):
    cases = [
        (make_field(3, 2, [1, 0, 1]), 6, 2, 3),
        (make_field(7, 2, [3, 6, 1]), 4, 1, 2),
        (make_field(*FIELDS["F81t2"]), 3, 5, 2),
    ]
    expected = [right_divisor_search(ModulusSpec(n, spec.from_int(a)), d) for spec, n, a, d in cases]
    assert all(expected)
    monkeypatch.setattr("skewcodes.skewpoly._CHUNK", chunk)
    for (spec, n, a, d), want in zip(cases, expected):
        assert right_divisor_search(ModulusSpec(n, spec.from_int(a)), d) == want


SCREEN_FIELDS = {
    **FIELDS,
    "F9": (3, 2, [1, 0, 1], 1),
    "F25": (5, 2, [1, 1, 1], 1),
    "F27": (3, 3, [1, 2, 0, 1], 1),
    "F49": (7, 2, [3, 6, 1], 1),
}
# fields up to which every shift constant is screened; above, a sample
EVERY_ALPHA = 49
# candidates up to which degree 3 is compared with the full screen
DEGREE_3 = 2 * 10 ** 4


def scaling_group(f):
    """|K_f|, by brute force: the c != 0 for which phi_c(f), with
    coefficients f_j N_j(c), N_j(c) = theta^(j-1)(c) ... theta(c) c, is a
    constant times f."""
    spec = f.spec
    size = 0
    for c in list(spec.elements())[1:]:
        norm, scaled = spec.one, []
        for fj in f.coeffs:
            scaled.append(fj * norm)
            norm = norm.frob(1) * c
        ratios = {s * fj.inverse() for s, fj in zip(scaled, f.coeffs) if not fj.is_zero}
        size += len(ratios) <= 1
    return size


def screened_dividends(spec, rng, degree):
    """x^n - alpha for every alpha and n = degree + 1 .. degree + 4, or above
    EVERY_ALPHA for a sample of 5 alpha (zero, 1 and -1 among them) and
    n = degree + 1, degree + 2; the dense cofactor of the first linear right
    factor of each x^n - alpha that has one; sparse f of even degree with
    only even powers; and f with f_0 = 0."""
    lengths = range(degree + 1, degree + 5)
    if spec.q <= EVERY_ALPHA:
        alphas = list(spec.elements())
    else:
        alphas = [spec.zero, spec.one, -spec.one] + [spec.from_int(rng.randrange(2, spec.q)) for _ in range(2)]
        lengths = lengths[:2]
    out = []
    for n in lengths:
        for alpha in alphas:
            f = ModulusSpec(n, alpha).poly()
            out.append(f)
            linear = monic_right_factors(f, 1)[:1]
            out += [right_divmod(f, g)[0] for g in linear if n - 1 > degree]
    for half in (degree, degree + 1):
        coeffs = [spec.from_int(rng.randrange(1, spec.q)) if i % 2 == 0 else spec.zero for i in range(2 * half)]
        out.append(SkewPoly(spec, "fq", coeffs + [spec.one]))
        low_zero = [spec.zero] + [spec.from_int(rng.randrange(spec.q)) for _ in range(2 * half - 1)]
        out.append(SkewPoly(spec, "fq", low_zero + [spec.from_int(rng.randrange(1, spec.q))]))
    return out


@pytest.mark.parametrize("name", sorted(SCREEN_FIELDS))
def test_the_orbit_screen_is_the_full_screen(name):
    """One candidate per orbit of the scalings x -> cx that fix f up to a
    constant, with the other images of each hit, gives the full screen's
    list in its order, at degree 2, and at degree 3 where q^3 <= 2 * 10^4."""
    spec = make_field(*SCREEN_FIELDS[name])
    rng = random.Random(name)
    orbits = False
    for degree in (2, 3):
        if degree == 3 and spec.q ** 3 > DEGREE_3:
            continue
        for f in screened_dividends(spec, rng, degree):
            found = screen_codes(f, degree)
            assert found == full_divisor_screen(f, degree)
            orbits = orbits or (any(codes[-1] for codes in found) and scaling_group(f) > 1)
    assert orbits


@pytest.mark.parametrize("name", ["F3", "F5"])
def test_the_orbit_screen_over_r_is_the_full_screen(name):
    """x^n - alpha over R at degree 2, n = 3 .. 6, for the 16 sign patterns
    and 8 random alpha: each component's screen is the full screen."""
    spec = make_field(*RING_FIELDS[name])
    rng = random.Random(name)
    hits = 0
    for n in range(3, 7):
        for alpha in signs_and_random_constants(spec, rng):
            for fi in component_polys(ModulusSpec(n, alpha).poly()):
                found = screen_codes(fi, 2)
                assert found == full_divisor_screen(fi, 2)
                hits += len(found)
    assert hits


def spy_screened_rows(monkeypatch):
    """The number of candidates each call of the screen steps, in order."""
    rows = []
    stepped, screen = skewpoly._stepped_terms, skewpoly._batched_divisor_codes

    def spied(spec, neg_g, terms):
        rows[-1] += len(neg_g[0])
        return stepped(spec, neg_g, terms)

    monkeypatch.setattr("skewcodes.skewpoly._stepped_terms", spied)
    monkeypatch.setattr(
        "skewcodes.skewpoly._batched_divisor_codes", lambda spec, f, degree: rows.append(0) or screen(spec, f, degree)
    )
    return rows


def test_the_screen_tries_one_candidate_per_orbit(monkeypatch):
    """q^(d-1) (1 + (q - 1) / G) candidates: F49 x^4 - alpha (G = 16) 196 of
    2401 at degree 2, F9 x^6 - alpha (G = 4) 243 of 729 at degree 3 and 27
    of 81 at degree 2, F25 x^5 - alpha (G = 1) all 625 at degree 2, each
    split into chunks of _CHUNK rows. G of a sparse and a dense f over F49
    is that of the brute-force group."""
    rows = spy_screened_rows(monkeypatch)
    monkeypatch.setattr("skewcodes.skewpoly._CHUNK", 100)
    f9, f25, f49 = (make_field(*SCREEN_FIELDS[name]) for name in ("F9", "F25", "F49"))
    cases = [(f49, 4, 2, 196), (f9, 6, 3, 243), (f9, 6, 2, 27), (f25, 5, 2, 625)]
    for spec, n, degree, count in cases:
        for code in range(1, spec.q):
            rows.clear()
            right_divisor_search(ModulusSpec(n, spec.from_int(code)), degree)
            assert rows == [count]
    # x^4 + a x^2 + b: G = gcd(48, e_2, e_4) = gcd(48, 8, 400) = 8, so
    # 49 * (1 + 6) candidates; a dense f has e_1 = 1 among its exponents
    a, b = f49.from_int(3), f49.from_int(10)
    sparse = SkewPoly(f49, "fq", [b, f49.zero, a, f49.zero, f49.one])
    dense = SkewPoly(f49, "fq", [b, a, a, b, f49.one])
    for f, group in ((sparse, 8), (dense, 1)):
        assert scaling_group(f) == group
        rows.clear()
        assert monic_right_factors(f, 2) == loop_divisors(f, 2)
        assert rows == [49 * (1 + 48 // group)]


def with_false_hit(monkeypatch, only=False):
    """Make the screen report x^degree, which never right-divides x^n - alpha
    for a unit alpha, before its true hits, or (only=True) in their place."""
    screen = skewpoly._batched_divisor_codes

    def screened(spec, f, degree):
        return [(0,) * degree] + ([] if only else screen(spec, f, degree))

    monkeypatch.setattr("skewcodes.skewpoly._batched_divisor_codes", screened)


def test_a_false_hit_fails_its_certificate(monkeypatch):
    with_false_hit(monkeypatch)
    f9 = make_field(3, 2, [1, 0, 1])
    with pytest.raises(VerificationError):
        right_divisor_search(ModulusSpec(4, f9.one), 2)


def test_a_false_hit_fails_its_certificate_over_r(monkeypatch):
    """A false hit x in each component's closed-form roots (degree 1), and
    x^2 in each component's screen (degree 2), meets its R certificate."""
    roots = skewpoly._binomial_root_codes
    monkeypatch.setattr("skewcodes.skewpoly._binomial_root_codes", lambda spec, n, c: [0] + roots(spec, n, c))
    f3 = make_field(3, 1, [0, 1])
    with pytest.raises(VerificationError):
        right_divisor_search(ModulusSpec(2, RingElement.from_crt(f3, 1, -1, 1, -1)), 1)
    with_false_hit(monkeypatch)
    with pytest.raises(VerificationError):
        right_divisor_search(ModulusSpec(4, RingElement.from_crt(f3, 1, -1, 1, -1)), 2)


@pytest.mark.parametrize("ring", ["fq", "R"])
def test_a_false_pick_fails_the_division_that_peels_it(monkeypatch, ring):
    with_false_hit(monkeypatch, only=True)
    f9 = make_field(3, 2, [1, 0, 1])
    alpha = f9.one if ring == "fq" else RingElement.from_crt(f9, 1, 1, -1, 1)
    with pytest.raises(VerificationError):
        random_right_divisor(ModulusSpec(3, alpha), random.Random(0), 2)


class CountingRandom(random.Random):
    """random.Random that counts its choice calls: one per factor peeled."""

    picks = 0

    def choice(self, seq):
        self.picks += 1
        return super().choice(seq)


def test_a_random_divisor_divides_once_per_factor(monkeypatch):
    """One certificate per factor peeled, linear or of degree 2: the
    all-zero remainder of the division on logarithm lists that gives its
    cofactor. No polynomial is divided."""
    divisions = spy_log_divisions(monkeypatch)
    f3, f9, f25 = make_field(3, 1, [0, 1]), make_field(3, 2, [1, 0, 1]), make_field(5, 2, [1, 1, 1])
    cases = [(spec, n, spec.constant(s)) for spec in (f9, f25) for n in (2, 4, 6) for s in (1, -1)]
    cases += [(f3, n, RingElement.from_crt(f3, 1, -1, -1, 1)) for n in (2, 3, 4)]
    peeled = linear = quadratic = 0
    for seed, (spec, n, alpha) in enumerate(cases):
        rng = CountingRandom(seed)
        divisions.clear()
        g = random_right_divisor(ModulusSpec(n, alpha), rng, n)
        assert "right_divmod" not in divisions
        certified = [h for _, h in divisions["random_right_divisor"]]
        assert len(certified) == rng.picks
        assert g.degree >= rng.picks
        peeled += rng.picks
        linear += sum(len(h[0]) == 2 for h in certified)
        quadratic += sum(len(h[0]) == 3 for h in certified)
    assert peeled > len(cases) and linear > len(cases) and quadratic


def spy_certificates(monkeypatch):
    """The divisor of every _log_remainder certificate, in order."""
    calls = []
    remainder = skewpoly._log_remainder
    monkeypatch.setattr(
        "skewcodes.skewpoly._log_remainder",
        lambda g, parts: calls.append(g) or remainder(g, parts),
    )
    return calls


def test_a_search_over_r_certifies_once_per_divisor(monkeypatch):
    """Each divisor returned has one certificate, the remainder of
    x^n - alpha read off its residues, and no division is made."""
    divisions = spy_log_divisions(monkeypatch)
    certified = spy_certificates(monkeypatch)
    f3, f5 = make_field(3, 1, [0, 1]), make_field(5, 1, [0, 1])
    for spec, n, signs, degree in ((f3, 4, (1, 1, 1, 1), 1), (f3, 4, (1, -1, -1, 1), 2), (f5, 4, (1, 1, 1, 1), 1)):
        certified.clear()
        found = right_divisor_search(ModulusSpec(n, RingElement.from_crt(spec, *signs)), degree)
        assert found
        assert certified == found
    assert not divisions


@pytest.mark.parametrize("ring", ["fq", "R"])
def test_a_divisor_search_makes_no_division(monkeypatch, ring):
    divisions = spy_log_divisions(monkeypatch)
    spec = make_field(3, 2, [1, 0, 1]) if ring == "fq" else make_field(3, 1, [0, 1])
    for n, signs, degree in ((4, (1, 1, 1, 1), 1), (3, (1, 1, -1, -1), 1), (4, (-1, -1, 1, 1), 2)):
        alpha = RingElement.from_crt(spec, *signs) if ring == "R" else spec.constant(signs[1])
        assert right_divisor_search(ModulusSpec(n, alpha), degree)
    assert not divisions


LINEAR_FIELDS = {**FIELDS, "F3": (3, 1, [0, 1], 1), "F9": (3, 2, [1, 0, 1], 1), "F25": (5, 2, [1, 1, 1], 1)}
# coefficient fields of the searches over R
RING_FIELDS = {"F3": (3, 1, [0, 1]), "F5": (5, 1, [0, 1]), "F9": (3, 2, [1, 0, 1])}


def linear_screens(spec, rng):
    """Dividends for the degree-1 screen: x^n - beta for n <= 8 and four
    constants beta (1, -1, a generator of the field and zero), random f
    with f_0 = 0, and dense f with many terms and a non-monic lead."""
    betas = [spec.one, -spec.one, spec.root() if spec.m > 1 else spec.constant(2), spec.zero]
    out = [ModulusSpec(n, beta).poly() for n in range(1, 9) for beta in betas]
    for degree in (1, 3, 8):
        out.append(SkewPoly(spec, "fq", [spec.zero] + [spec.from_int(rng.randrange(spec.q)) for _ in range(degree)]
                            + [spec.one]))
    for degree in (5, 12):
        coeffs = [spec.from_int(rng.randrange(1, spec.q)) for _ in range(degree + 1)]
        out.append(SkewPoly(spec, "fq", coeffs))
    return out


@pytest.mark.parametrize("name", sorted(LINEAR_FIELDS))
def test_the_linear_screen_is_the_division_loop(name):
    """The closed-form norms of the degree-1 screen against one right
    division for each of the q candidates x + c."""
    spec = make_field(*LINEAR_FIELDS[name])
    rng = random.Random(name)
    hits = 0
    for f in linear_screens(spec, rng):
        found = monic_right_factors(f, 1)
        assert found == loop_divisors(f, 1)
        hits += len(found)
    assert hits


def log_divmod(f, g):
    """skewpoly._log_divmod of f by a monic g on their logarithm lists, one
    per CRT component, read back as (quot, rem)."""
    spec = f.spec
    quot, rem = skewpoly._log_divmod(spec, skewpoly._logs(f), skewpoly._logs(g))
    return skewpoly._poly_of_logs(spec, f.ring, quot), skewpoly._poly_of_logs(spec, f.ring, rem)


@pytest.mark.parametrize("name", sorted(LINEAR_FIELDS))
def test_the_linear_cofactor_is_the_right_division(name):
    """The quotient and remainder of a monic linear divisor on logarithm
    lists against object_divmod, for every candidate x + c of each dividend
    with at most 81 candidates, and for the screen's hits and a sample
    otherwise: the remainder is zero exactly for the hits."""
    spec = make_field(*LINEAR_FIELDS[name])
    rng = random.Random(name)
    hits = 0
    for n in (1, 2, 4, 7):
        for f, _known in dividends(spec, rng, n, 1):
            found = monic_right_factors(f, 1)
            codes = range(spec.q)
            if spec.q > 81:
                codes = {codes_of(g)[0] for g in found} | {rng.randrange(spec.q) for _ in range(8)}
            for code in sorted(codes):
                g = SkewPoly(spec, "fq", [spec.from_int(code), spec.one])
                quot, rem = object_divmod(f, g)
                assert log_divmod(f, g) == (quot, rem)
                assert rem.is_zero == (g in found)
                hits += g in found
    assert hits


@pytest.mark.parametrize("name", sorted(RING_FIELDS))
def test_the_linear_cofactor_over_r_is_the_right_division(name):
    """x^n - alpha over R and the cofactor of its first linear right
    factor, which is not a binomial: the linear right factors the screen
    finds (up to 64 of each, spread through its list) give object_divmod's
    quotient and zero remainder on logarithm lists, component by component,
    and x, where it is no factor, its nonzero remainder."""
    spec = make_field(*RING_FIELDS[name])
    rng = random.Random(name)
    x = r_poly(spec, [0, 1])
    checked = refused = 0
    for n in range(2, 5):
        for alpha in signs_and_random_constants(spec, rng):
            f = ModulusSpec(n, alpha).poly()
            for h in [f] + [object_divmod(f, g)[0] for g in monic_right_factors(f, 1)[:1]]:
                found = monic_right_factors(h, 1)
                for g in found[::max(1, len(found) // 32)]:
                    quot, rem = object_divmod(h, g)
                    assert rem.is_zero
                    assert log_divmod(h, g) == (quot, rem)
                    checked += h is not f
                quot, rem = object_divmod(h, x)
                assert log_divmod(h, x) == (quot, rem)
                refused += not rem.is_zero
    assert checked and refused


@pytest.mark.parametrize("name", sorted(SCREEN_FIELDS))
def test_the_log_division_is_the_right_division(name):
    """_log_divmod against object_divmod, quotient and remainder: monic g of
    degree 1 to 3, x^d among them, with zero coefficients in g and in f, f
    of every length from 0 (f = 0) to deg g + 5, so deg f < deg g too, and
    f = h * g + r, whose quotient h and remainder r are known."""
    spec = make_field(*SCREEN_FIELDS[name])
    rng = random.Random(name)

    def sparse(count):
        return [spec.zero if rng.random() < 0.3 else spec.from_int(rng.randrange(1, spec.q)) for _ in range(count)]

    zeros = 0
    for degree in (1, 2, 3):
        divisors = [[spec.zero] * degree] + [sparse(degree) for _ in range(5)]
        for g in (SkewPoly(spec, "fq", low + [spec.one]) for low in divisors):
            for length in range(degree + 6):
                f = SkewPoly(spec, "fq", sparse(length))
                assert log_divmod(f, g) == object_divmod(f, g)
                zeros += any(c.is_zero for c in f.coeffs) and any(c.is_zero for c in g.coeffs)
            h, r = random_poly(spec, rng, 3), SkewPoly(spec, "fq", sparse(degree))
            assert log_divmod(h * g + r, g) == (h, r)
    assert zeros


def test_search_over_a_field_too_large_for_the_square_tables(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("distance's field tables asked for")

    monkeypatch.setattr("skewcodes.distance.field_tables", refuse)
    spec = make_field(3, 9, [1, 0, 1, 2, 0, 0, 0, 0, 0, 1])
    budget = 10**7
    assert spec.q ** 2 > budget
    alpha = spec.root() ** 4
    # x + a right-divides x^2 - alpha exactly when theta(s) s = s^4 = alpha, s = -a
    expected = [SkewPoly(spec, "fq", [a, spec.one]) for a in spec.elements() if (-a) ** 4 == alpha]
    assert len(expected) == 2
    assert right_divisor_search(ModulusSpec(2, alpha), 1, budget) == expected


# fields small enough to run loop_divisors on every binomial
LOOPED = 25


def binomial_divisors(spec, n, degree=1):
    """{c: loop_divisors(x^n - c, degree)} for every c, from one right
    division of x^n per candidate: the right remainder of x^n - c by a monic
    g is that of x^n minus c, so g right-divides x^n - c for the one c that
    is that remainder, if it is a constant."""
    x_n = ModulusSpec(n, spec.zero).poly()
    out = {c: [] for c in spec.elements()}
    for codes in itertools.product(range(spec.q), repeat=degree):
        g = SkewPoly(spec, "fq", [spec.from_int(c) for c in codes] + [spec.one])
        rem = right_divmod(x_n, g)[1]
        if not rem.degree:
            out[rem.coeff(0)].append(g)
    return out


@pytest.mark.parametrize("name", sorted(LINEAR_FIELDS))
def test_the_binomial_closed_form_is_the_division_loop(name):
    """Every x^n - c, n = 1..8, c zero included: the congruence on
    logarithms gives the divisors of the one-division-per-candidate loop, in
    its order."""
    spec = make_field(*LINEAR_FIELDS[name])
    counts = set()
    for n in range(1, 9):
        expected = binomial_divisors(spec, n)
        for c, want in expected.items():
            f = ModulusSpec(n, c).poly()
            if spec.q <= LOOPED:
                assert want == loop_divisors(f, 1)
            assert monic_right_factors(f, 1) == want
            counts.add(len(want))
    # root counts other than 0 and 1: the gcd(e_n, q - 1) solutions
    assert max(counts) > 1 and 0 in counts


COFACTOR_FIELDS = {**LINEAR_FIELDS, "F27": (3, 3, [1, 2, 0, 1], 1)}
# candidates at degree n - 1 up to which every x^n - c is compared with the
# loop; up to SAMPLED, x^n - c for four constants c is compared with the screen
LOOPED_COFACTORS = 10 ** 4


@pytest.mark.parametrize("name", sorted(COFACTOR_FIELDS))
def test_the_cofactor_closed_form_is_the_division_loop(name):
    """Degree n - 1, n = 3..5: the cofactors of the linear left factors of
    x^n - c are the divisors of the one-division-per-candidate loop, in its
    order, for every c, zero included. Where the loop has too many
    candidates, they are those of the screen, for c = 0, 1, -1 and a
    generator."""
    spec = make_field(*COFACTOR_FIELDS[name])
    checked = 0
    for n in range(3, 6):
        candidates = spec.q ** (n - 1)
        if candidates <= LOOPED_COFACTORS:
            expected = binomial_divisors(spec, n, n - 1)
        elif candidates <= SAMPLED:
            constants = (spec.zero, spec.one, -spec.one, spec.root())
            expected = {c: monic_right_factors(ModulusSpec(n, c).poly(), n - 1) for c in constants}
        else:
            continue
        for c, want in expected.items():
            assert right_divisor_search(ModulusSpec(n, c), n - 1) == want
        checked += 1
    assert checked


def test_a_cofactor_search_solves_each_component_once(monkeypatch):
    """At degree n - 1 the left roots of each component are computed once:
    counted for the charge, then built into their cofactors."""
    roots, calls = skewpoly._binomial_root_codes, []
    monkeypatch.setattr(
        "skewcodes.skewpoly._binomial_root_codes", lambda spec, n, c: calls.append(c) or roots(spec, n, c)
    )
    f3, f9 = make_field(3, 1, [0, 1]), make_field(3, 2, [1, 0, 1])
    for alpha, components in ((f9.one, 1), (RingElement.from_crt(f3, 1, 1, 1, 0), 4)):
        calls.clear()
        assert right_divisor_search(ModulusSpec(4, alpha), 3)
        assert len(calls) == components


def signs_and_random_constants(spec, rng):
    """The 16 alpha whose CRT components are each 1 or -1, and 8 random
    alpha, most of them non-units over F3 and F5."""
    out = [RingElement.from_crt(spec, *signs) for signs in itertools.product((1, -1), repeat=4)]
    return out + [random_ring_element(spec, rng) for _ in range(8)]


@pytest.mark.parametrize("name", sorted(RING_FIELDS))
def test_linear_factors_over_r_are_the_combinations_of_the_component_loops(name):
    spec = make_field(*RING_FIELDS[name])
    rng = random.Random(name)
    combined = 0
    for n in range(1, 7):
        for alpha in signs_and_random_constants(spec, rng):
            f = ModulusSpec(n, alpha).poly()
            parts = [loop_divisors(fi, 1) for fi in component_polys(f)]
            expected = [from_components(*gs) for gs in itertools.product(*parts)]
            expected.sort(key=lambda g: [(c.a.code, c.b.code, c.c.code, c.d.code) for c in g.coeffs])
            assert monic_right_factors(f, 1) == expected
            combined += len(expected) > 1
    assert combined


def test_a_false_hit_fails_its_certificate_at_degree_one(monkeypatch):
    """A degree-1 search over F_q takes its divisors from the closed form
    unscreened: a false hit it is made to report, x, still meets its
    certificate, also where x^n - alpha has no root (n = 2)."""
    roots = skewpoly._binomial_root_codes
    monkeypatch.setattr("skewcodes.skewpoly._binomial_root_codes", lambda spec, n, c: [0] + roots(spec, n, c))
    f9 = make_field(3, 2, [1, 0, 1])
    for n, alpha in ((4, f9.one), (3, -f9.one), (2, f9.root())):
        with pytest.raises(VerificationError):
            right_divisor_search(ModulusSpec(n, alpha), 1)


def spy_linear_screens(monkeypatch):
    """The dividend of every degree-1 screen, in order."""
    calls = []
    screen = skewpoly._linear_root_codes
    monkeypatch.setattr(
        "skewcodes.skewpoly._linear_root_codes",
        lambda spec, f: calls.append(f) or screen(spec, f),
    )
    return calls


def test_binomials_are_solved_without_a_screen(monkeypatch):
    """A degree-1 search of x^n - c, over F_q or over R, screens no
    candidate; a cofactor that is not a binomial is still screened."""
    screens = spy_linear_screens(monkeypatch)
    f3, f9 = make_field(3, 1, [0, 1]), make_field(3, 2, [1, 0, 1])
    for n in range(1, 7):
        for c in f9.elements():
            monic_right_factors(ModulusSpec(n, c).poly(), 1)
        right_divisor_search(ModulusSpec(n, RingElement.from_crt(f3, 1, -1, 1, -1)), 1)
    assert screens == []
    dense = SkewPoly(f9, "fq", [f9.one] * 4)
    assert monic_right_factors(dense, 1) == loop_divisors(dense, 1)
    assert len(screens) == 1
    # the first peel is of x^4 - 1 itself; the second, of its cofactor of
    # degree 3 with every coefficient nonzero, is screened
    screens.clear()
    assert random_right_divisor(ModulusSpec(4, f9.one), random.Random(0), 2).degree == 2
    assert len(screens) == 1


def test_degree_n_minus_one_is_solved_without_a_screen(monkeypatch):
    """A degree-(n - 1) search of x^n - c, over F_q or over R, screens no
    candidate and certifies each divisor by its remainder. x^6 - 1 over F27
    at degree 5 lists its 26 divisors at the default budget, where a screen
    of 27^5 candidates would be refused."""
    screens = []
    batched = skewpoly._batched_divisor_codes
    monkeypatch.setattr(
        "skewcodes.skewpoly._batched_divisor_codes",
        lambda spec, f, degree: screens.append(degree) or batched(spec, f, degree),
    )
    certified = spy_certificates(monkeypatch)
    f3, f27 = make_field(3, 1, [0, 1]), make_field(3, 3, [1, 2, 0, 1])
    start = time.perf_counter()
    found = right_divisor_search(ModulusSpec(6, f27.one), 5)
    assert time.perf_counter() - start < 1
    assert len(found) == 26 and certified == found
    for n in (3, 4, 5):
        certified.clear()
        found = right_divisor_search(ModulusSpec(n, RingElement.from_ints(f3, 1)), n - 1)
        assert found and certified == found
    assert screens == []


def test_degree_deg_f_is_lead_inverse_times_f(monkeypatch):
    """The one monic right divisor of f of degree deg f is lead(f)^-1 * f,
    listed with no screen. x^n - alpha over F_q and over R at degree n is
    certified once and charged one certificate of n + 1 steps, and refused
    at n; x^5 - alpha over F27 and x^7 - alpha over F9 are answered at the
    default budget, where a screen of 27^5 or 9^7 candidates was refused. A
    non-monic f gets the same through _monic_right_factors, and a
    random divisor of x^2 - alpha with no linear factor is x^2 - alpha."""
    rows = spy_screened_rows(monkeypatch)
    linear = spy_linear_screens(monkeypatch)
    certified = spy_certificates(monkeypatch)
    f3, f9, f27 = (make_field(*COFACTOR_FIELDS[name]) for name in ("F3", "F9", "F27"))
    mods = [ModulusSpec(n, alpha) for n in (2, 4, 6) for alpha in (f9.zero, f9.one, f9.root())]
    mods += [ModulusSpec(n, RingElement.from_crt(f3, 1, -1, 0, 1)) for n in (2, 3, 5)]
    for mod in mods:
        n = mod.n
        certified.clear()
        assert right_divisor_search(mod, n, budget=n + 1) == [mod.poly()] == certified
        with pytest.raises(BudgetExceededError) as refusal:
            right_divisor_search(mod, n, budget=n)
        assert str(refusal.value) == (
            f"1 divisors * (n - degree + 1)(degree + 1) = {n + 1} division steps, over the budget of {n}"
        )
    for spec, n in ((f27, 5), (f9, 7)):
        for alpha in (spec.one, spec.root()):
            start = time.perf_counter()
            assert right_divisor_search(ModulusSpec(n, alpha), n) == [ModulusSpec(n, alpha).poly()]
            assert time.perf_counter() - start < 1
    rng = random.Random(0)
    for degree in (2, 3):
        f = random_poly(f9, rng, degree)
        assert not f.is_monic
        assert monic_right_factors(f, degree) == [f.monic()] == loop_divisors(f, degree)
        unit = RingElement.from_crt(f3, -1, 1, -1, -1)
        f = r_poly(f3, [random_ring_element(f3, rng) for _ in range(degree)] + [unit])
        assert monic_right_factors(f, degree) == [f.monic()]
    mod = ModulusSpec(2, f9.root())
    assert random_right_divisor(mod, rng, 2) == mod.poly()
    assert rows and not any(rows) and linear == []


def test_a_random_divisor_builds_one_polynomial(monkeypatch):
    """One random_right_divisor call builds one SkewPoly, the divisor it
    returns, over F_q and over R, and calls _monic_right_factors once per
    screen it tries: those of the loop on polynomial objects, at the same
    degrees and with the same candidate counts, degree-2 screens and
    screens that find nothing among them."""
    built, screens = [], []
    init = SkewPoly.__init__
    monkeypatch.setattr(SkewPoly, "__init__", lambda self, *args: built.append(args[1]) or init(self, *args))
    factors = skewpoly._monic_right_factors

    def spied(spec, parts, degree):
        found = factors(spec, parts, degree)
        screens.append((degree, len(found)))
        return found

    monkeypatch.setattr("skewcodes.skewpoly._monic_right_factors", spied)
    f3, f9, f25 = make_field(3, 1, [0, 1]), make_field(3, 2, [1, 0, 1]), make_field(5, 2, [1, 1, 1])
    mods = [ModulusSpec(n, spec.constant(s)) for spec in (f9, f25) for n in range(2, 7) for s in (1, -1)]
    mods += [ModulusSpec(n, RingElement.from_crt(f3, 1, -1, -1, 1)) for n in (2, 3, 4)]
    seen = set()
    for seed, mod in enumerate(mods):
        for degree in (1, mod.n):
            screens.clear()
            object_random_right_divisor(mod, random.Random(seed), degree)
            expected = list(screens)
            screens.clear()
            built.clear()
            random_right_divisor(mod, random.Random(seed), degree)
            assert built == [mod.ring]
            assert screens == expected
            seen |= {(mod.ring, d, count > 0) for d, count in screens}
    assert {("fq", 2, True), ("R", 2, True), ("fq", 1, False)} <= seen


def test_the_random_divisor_is_the_object_loop(monkeypatch):
    """random_right_divisor on logarithm lists against the loop on
    polynomial objects: the same divisor, and the same rng state after
    each draw, over F9, F25, F27 and F81 (t = 2) and over R over F3 and F5,
    with non-unit and zero constants, degrees from -1 to n + 2, and
    degree-2 picks among them."""
    divisions = spy_log_divisions(monkeypatch)
    cases = []
    for name in STREAM_FIELDS:
        spec = make_field(*STREAM_FIELDS[name])
        cases += [ModulusSpec(n, beta) for n in range(1, 7)
                  for beta in (spec.one, -spec.one, spec.root(), spec.zero)]
    for name in ("F3", "F5"):
        spec = make_field(*RING_FIELDS[name])
        rng = random.Random(name)
        alphas = signs_and_random_constants(spec, rng)[::3] + [RingElement.from_crt(spec, 0, 0, 0, 0)]
        cases += [ModulusSpec(n, alpha) for n in range(1, 5) for alpha in alphas]
    draws = 0
    for i, mod in enumerate(cases):
        ours, theirs = random.Random(i), random.Random(i)
        for degree in range(-1, mod.n + 3):
            assert random_right_divisor(mod, ours, degree) == object_random_right_divisor(mod, theirs, degree)
            assert ours.getstate() == theirs.getstate()
            draws += 1
    assert draws > 1000
    # degree-2 picks, of one component over F_q and four over R
    assert list(divisions) == ["random_right_divisor"]
    assert {len(g) for _, g in divisions["random_right_divisor"] if len(g[0]) == 3} == {1, 4}


STREAM_FIELDS = {name: COFACTOR_FIELDS[name] for name in ("F9", "F25", "F27", "F81t2")}
# sha256 of random_divisor_stream's draws, recorded while linear factors were
# still screened in numpy and peeled by right division
RANDOM_DIVISOR_STREAM = "350555e92e09b3d9ad9b3d1dcff9589bafdc0dfb46eeed3c1529048731e0c124"


def random_divisor_stream():
    """(modulus, string seed) of each pinned random_right_divisor draw:
    x^n - beta over F9, F25, F27 and F81 (t = 2) for n <= 6, beta = 1, -1 and
    a generator, 8 seeds each; over R over F3, n <= 4, four CRT sign
    patterns, one of them with a zero component, 4 seeds each."""
    for name, params in STREAM_FIELDS.items():
        spec = make_field(*params)
        for n in range(1, 7):
            for beta in (spec.one, -spec.one, spec.root()):
                for seed in range(8):
                    yield ModulusSpec(n, beta), f"{name} {n} {beta.code} {seed}"
    f3 = make_field(3, 1, [0, 1])
    for n in range(1, 5):
        for signs in ((1, 1, 1, 1), (1, -1, -1, 1), (-1, 1, -1, -1), (1, 0, -1, 1)):
            for seed in range(4):
                yield ModulusSpec(n, RingElement.from_crt(f3, *signs)), f"R {n} {signs} {seed}"


def test_the_random_divisor_stream_is_pinned():
    """Each draw's divisor, by its coefficient codes, and the next number of
    its rng: a change in a candidate list, its order or the number of picks
    changes the digest."""
    digest = hashlib.sha256()
    draws = 0
    for mod, seed in random_divisor_stream():
        rng = random.Random(seed)
        g = random_right_divisor(mod, rng, rng.randint(1, mod.n))
        if mod.ring == "fq":
            codes = [c.code for c in g.coeffs]
        else:
            codes = [(c.a.code, c.b.code, c.c.code, c.d.code) for c in g.coeffs]
        digest.update(f"{codes} {rng.random()!r};".encode())
        draws += 1
    assert draws == 640
    assert digest.hexdigest() == RANDOM_DIVISOR_STREAM


# --- the screens shared by one sampler ---

class CheckedSampler(DivisorSampler):
    """A DivisorSampler that checks each list its table gives against a
    fresh _monic_right_factors call."""

    def _factors(self, spec, parts, degree):
        found = super()._factors(spec, parts, degree)
        assert found == skewpoly._monic_right_factors(spec, parts, degree)
        return found


@st.composite
def draw_batches(draw):
    """[(modulus, degree), ...] of x^n - beta over one field of test_kernel
    (F81 with t = 2 among them), n <= 5 (n <= 3 over F729), beta among 1,
    -1, a generator and 0, so that cofactors repeat."""
    spec = make_field(*FIELDS[draw(st.sampled_from(sorted(FIELDS)))])
    betas = (spec.one, -spec.one, spec.exp[1], spec.zero)
    top = 3 if spec.q > 300 else 5
    mods = st.builds(ModulusSpec, st.integers(1, top), st.sampled_from(betas))
    return draw(st.lists(st.tuples(mods, st.integers(-1, top + 1)), min_size=1, max_size=8))


@settings(max_examples=40, deadline=None)
@given(draw_batches(), st.integers(0, 2 ** 32))
def test_a_shared_table_gives_each_draw_the_fresh_screen(batch, seed):
    """One sampler for a batch of draws gives each draw the list that a
    fresh _monic_right_factors call gives, so the divisors and the rng
    state after each draw are those of a new sampler per draw."""
    shared, ours, theirs = CheckedSampler(), random.Random(seed), random.Random(seed)
    for mod, degree in batch:
        assert shared.random_right_divisor(mod, ours, degree) == DivisorSampler().random_right_divisor(mod, theirs, degree)
        assert ours.getstate() == theirs.getstate()


def test_no_screen_table_outlives_a_request(monkeypatch, capsys):
    """After gc.collect(), as many samplers and as many screen tables (dicts
    keyed by (field, logarithm lists, degree)) are alive after one verify
    decomposition request as before it, which made one of each."""
    def alive():
        gc.collect()
        objects = gc.get_objects()
        tables = [o for o in objects if o.__class__ is dict and any(
            key.__class__ is tuple and len(key) == 3 and isinstance(key[0], FieldSpec) for key in o)]
        return sum(isinstance(o, DivisorSampler) for o in objects), len(tables)

    before = alive()
    made, init = [], DivisorSampler.__init__
    monkeypatch.setattr(DivisorSampler, "__init__", lambda self: made.append(1) or init(self))
    assert cli.main(["verify", "decomposition"]) == 0
    assert made == [1]
    assert alive() == before
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


def test_a_request_screens_each_key_once_through_the_module_attribute(monkeypatch):
    """A verify decomposition request screens through
    skewpoly._monic_right_factors as the module attribute, which the traced
    benchmark wraps: it sees each key once, the first screen of each key
    that the request would make with no table, and the report is the same."""
    factors, keys = skewpoly._monic_right_factors, []
    monkeypatch.setattr(
        skewpoly, "_monic_right_factors",
        lambda spec, parts, degree: keys.append((spec, tuple(map(tuple, parts)), degree)) or factors(spec, parts, degree),
    )

    def request():
        keys.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["verify", "decomposition", "--seed", "1"]) == 0
        return out.getvalue(), list(keys)

    report, shared = request()
    monkeypatch.setattr(DivisorSampler, "_factors", lambda self, *args: skewpoly._monic_right_factors(*args))
    unshared_report, unshared = request()
    assert report == unshared_report
    assert len(shared) == len(set(shared)) == len(set(unshared)) < len(unshared)
    assert set(shared) == set(unshared)
