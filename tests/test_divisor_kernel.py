"""Tests of the batched divisor search over F_q: the numpy field arrays, and
the remainder screen of skewpoly._batched_divisor_codes against the loop it
replaced, one right division per candidate.

Fields are those of test_kernel.py, which include twists strictly between
the identity and the full Frobenius (1 < t < m).
"""

import itertools
import random

import pytest
from test_kernel import FIELDS

import skewcodes.skewpoly as skewpoly
from skewcodes.errors import VerificationError
from skewcodes.gf import make_field
from skewcodes.ring4 import RingElement
from skewcodes.skewpoly import (
    ModulusSpec,
    SkewPoly,
    _monic_right_factors,
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
    with_false_hit(monkeypatch)
    f3 = make_field(3, 1, [0, 1])
    with pytest.raises(VerificationError):
        right_divisor_search(ModulusSpec(2, RingElement.from_crt(f3, 1, -1, 1, -1)), 1)


@pytest.mark.parametrize("ring", ["fq", "R"])
def test_a_false_pick_fails_the_division_that_peels_it(monkeypatch, ring):
    with_false_hit(monkeypatch, only=True)
    f9 = make_field(3, 2, [1, 0, 1])
    alpha = f9.one if ring == "fq" else RingElement.from_crt(f9, 1, 1, -1, 1)
    with pytest.raises(VerificationError):
        random_right_divisor(ModulusSpec(3, alpha), random.Random(0), 2)


def spy_divisions(monkeypatch):
    """The divisor of every right or commutative division, in order."""
    calls = []
    divmod_ = skewpoly._divmod
    monkeypatch.setattr(
        "skewcodes.skewpoly._divmod",
        lambda f, g, twisted: calls.append(g) or divmod_(f, g, twisted),
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
