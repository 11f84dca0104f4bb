"""Tests of the batched divisor search over F_q: the numpy field arrays, and
the remainder screen of skewpoly._batched_divisor_codes against the loop it
replaced, one right division per candidate.

Fields are those of test_kernel.py, which include twists strictly between
the identity and the full Frobenius (1 < t < m).
"""

import itertools
import random

import pytest
from reference import random_ring_element
from test_kernel import FIELDS

import skewcodes.skewpoly as skewpoly
from skewcodes.errors import VerificationError
from skewcodes.gf import make_field
from skewcodes.ring4 import RingElement
from skewcodes.skewpoly import (
    ModulusSpec,
    SkewPoly,
    _monic_right_factors,
    component_polys,
    from_components,
    random_right_divisor,
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
                found = _monic_right_factors(f, degree)
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


def with_false_hit(monkeypatch, only=False):
    """Make the screen report x^degree, which never right-divides x^n - alpha
    for a unit alpha, before its true hits, or (only=True) in their place."""
    screen = skewpoly._batched_divisor_codes

    def screened(f, degree):
        yield (0,) * degree
        if not only:
            yield from screen(f, degree)

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


def spy_divisions(monkeypatch):
    """The divisor of every right division, in order."""
    calls = []
    divmod_ = skewpoly._divmod
    monkeypatch.setattr(
        "skewcodes.skewpoly._divmod",
        lambda f, g: calls.append(g) or divmod_(f, g),
    )
    return calls


class CountingRandom(random.Random):
    """random.Random that counts its choice calls: one per factor peeled."""

    picks = 0

    def choice(self, seq):
        self.picks += 1
        return super().choice(seq)


def test_a_random_divisor_divides_once_per_factor(monkeypatch):
    divisions = spy_divisions(monkeypatch)
    f3, f9, f25 = make_field(3, 1, [0, 1]), make_field(3, 2, [1, 0, 1]), make_field(5, 2, [1, 1, 1])
    cases = [(spec, n, spec.constant(s)) for spec in (f9, f25) for n in (2, 4, 6) for s in (1, -1)]
    cases += [(f3, n, RingElement.from_crt(f3, 1, -1, -1, 1)) for n in (2, 3, 4)]
    peeled = 0
    for seed, (spec, n, alpha) in enumerate(cases):
        rng = CountingRandom(seed)
        divisions.clear()
        g = random_right_divisor(ModulusSpec(n, alpha), rng, n)
        assert len(divisions) == rng.picks
        assert g.degree >= rng.picks
        peeled += rng.picks
    assert peeled > len(cases)


def spy_certificates(monkeypatch):
    """The divisor of every right_remainder certificate, in order."""
    calls = []
    remainder = skewpoly.right_remainder
    monkeypatch.setattr(
        "skewcodes.skewpoly.right_remainder",
        lambda f, g: calls.append(g) or remainder(f, g),
    )
    return calls


def test_a_search_over_r_certifies_once_per_divisor(monkeypatch):
    """Each divisor returned has one certificate, the remainder of
    x^n - alpha read off its residues, and no division is made."""
    divisions = spy_divisions(monkeypatch)
    certified = spy_certificates(monkeypatch)
    f3, f5 = make_field(3, 1, [0, 1]), make_field(5, 1, [0, 1])
    for spec, n, signs, degree in ((f3, 4, (1, 1, 1, 1), 1), (f3, 4, (1, -1, -1, 1), 2), (f5, 4, (1, 1, 1, 1), 1)):
        certified.clear()
        found = right_divisor_search(ModulusSpec(n, RingElement.from_crt(spec, *signs)), degree)
        assert found
        assert certified == found
    assert divisions == []


@pytest.mark.parametrize("ring", ["fq", "R"])
def test_a_divisor_search_makes_no_division(monkeypatch, ring):
    divisions = spy_divisions(monkeypatch)
    spec = make_field(3, 2, [1, 0, 1]) if ring == "fq" else make_field(3, 1, [0, 1])
    for n, signs, degree in ((4, (1, 1, 1, 1), 1), (3, (1, 1, -1, -1), 1), (4, (-1, -1, 1, 1), 2)):
        alpha = RingElement.from_crt(spec, *signs) if ring == "R" else spec.constant(signs[1])
        assert right_divisor_search(ModulusSpec(n, alpha), degree)
    assert divisions == []


LINEAR_FIELDS = {**FIELDS, "F3": (3, 1, [0, 1], 1), "F9": (3, 2, [1, 0, 1], 1)}


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
        found = _monic_right_factors(f, 1)
        assert found == loop_divisors(f, 1)
        hits += len(found)
    assert hits


def test_search_over_a_field_too_large_for_the_square_tables(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("q x q field tables built")

    monkeypatch.setattr("skewcodes.distance.field_tables", refuse)
    monkeypatch.setattr("skewcodes.distance._field_tables", refuse)
    spec = make_field(3, 9, [1, 0, 1, 2, 0, 0, 0, 0, 0, 1])
    budget = 10**7
    assert spec.q ** 2 > budget
    alpha = spec.root() ** 4
    # x + a right-divides x^2 - alpha exactly when theta(s) s = s^4 = alpha, s = -a
    expected = [SkewPoly(spec, "fq", [a, spec.one]) for a in spec.elements() if (-a) ** 4 == alpha]
    assert len(expected) == 2
    assert right_divisor_search(ModulusSpec(2, alpha), 1, budget) == expected


BINOMIAL_FIELDS = {**LINEAR_FIELDS, "F25": (5, 2, [1, 1, 1], 1)}
# fields small enough to run loop_divisors on every binomial
LOOPED = 25


def binomial_divisors(spec, n):
    """{c: loop_divisors(x^n - c, 1)} for every c, from one right division
    of x^n per candidate: the right remainder of x^n - c by a monic x + g_0
    is that of x^n minus c."""
    x_n = ModulusSpec(n, spec.zero).poly()
    out = {c: [] for c in spec.elements()}
    for code in range(spec.q):
        g = SkewPoly(spec, "fq", [spec.from_int(code), spec.one])
        out[right_divmod(x_n, g)[1].coeff(0)].append(g)
    return out


@pytest.mark.parametrize("name", sorted(BINOMIAL_FIELDS))
def test_the_binomial_closed_form_is_the_division_loop(name):
    """Every x^n - c, n = 1..8, c zero included: the congruence on
    logarithms gives the divisors of the one-division-per-candidate loop, in
    its order."""
    spec = make_field(*BINOMIAL_FIELDS[name])
    counts = set()
    for n in range(1, 9):
        expected = binomial_divisors(spec, n)
        for c, want in expected.items():
            f = ModulusSpec(n, c).poly()
            if spec.q <= LOOPED:
                assert want == loop_divisors(f, 1)
            assert _monic_right_factors(f, 1) == want
            counts.add(len(want))
    # root counts other than 0 and 1: the gcd(e_n, q - 1) solutions
    assert max(counts) > 1 and 0 in counts


def signs_and_random_constants(spec, rng):
    """The 16 alpha whose CRT components are each 1 or -1, and 8 random
    alpha, most of them non-units over F3 and F5."""
    out = [RingElement.from_crt(spec, *signs) for signs in itertools.product((1, -1), repeat=4)]
    return out + [random_ring_element(spec, rng) for _ in range(8)]


@pytest.mark.parametrize("name", ["F3", "F5", "F9"])
def test_linear_factors_over_r_are_the_combinations_of_the_component_loops(name):
    spec = make_field(*{"F3": (3, 1, [0, 1]), "F5": (5, 1, [0, 1]), "F9": (3, 2, [1, 0, 1])}[name])
    rng = random.Random(name)
    combined = 0
    for n in range(1, 7):
        for alpha in signs_and_random_constants(spec, rng):
            f = ModulusSpec(n, alpha).poly()
            parts = [loop_divisors(fi, 1) for fi in component_polys(f)]
            expected = [from_components(*gs) for gs in itertools.product(*parts)]
            expected.sort(key=lambda g: [(c.a.code, c.b.code, c.c.code, c.d.code) for c in g.coeffs])
            assert _monic_right_factors(f, 1) == expected
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


def spy_linear_terms(monkeypatch):
    """The dividend of every degree-1 numpy screen, in order."""
    calls = []
    terms = skewpoly._linear_terms
    monkeypatch.setattr(
        "skewcodes.skewpoly._linear_terms",
        lambda spec, neg_g, f_terms: calls.append(f_terms) or terms(spec, neg_g, f_terms),
    )
    return calls


def test_binomials_are_solved_without_a_screen(monkeypatch):
    """A degree-1 search of x^n - c, over F_q or over R, makes no numpy
    screen; a cofactor that is not a binomial is still screened."""
    screens = spy_linear_terms(monkeypatch)
    f3, f9 = make_field(3, 1, [0, 1]), make_field(3, 2, [1, 0, 1])
    for n in range(1, 7):
        for c in f9.elements():
            _monic_right_factors(ModulusSpec(n, c).poly(), 1)
        right_divisor_search(ModulusSpec(n, RingElement.from_crt(f3, 1, -1, 1, -1)), 1)
    assert screens == []
    dense = SkewPoly(f9, "fq", [f9.one] * 4)
    assert _monic_right_factors(dense, 1) == loop_divisors(dense, 1)
    assert len(screens) == 1
    # the first peel is of x^4 - 1 itself; the second, of its cofactor of
    # degree 3 with every coefficient nonzero, is screened
    screens.clear()
    assert random_right_divisor(ModulusSpec(4, f9.one), random.Random(0), 2).degree == 2
    assert len(screens) == 1
