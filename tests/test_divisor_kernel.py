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

from skewcodes.errors import VerificationError
from skewcodes.gf import make_field
from skewcodes.skewpoly import (
    ModulusSpec,
    SkewPoly,
    _monic_right_factors,
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


def test_a_false_hit_fails_its_certificate(monkeypatch):
    import skewcodes.skewpoly as skewpoly

    screen = skewpoly._batched_divisor_codes

    def with_false_hit(f, degree):
        yield (0,) * degree  # x^degree never right-divides x^n - alpha
        yield from screen(f, degree)

    monkeypatch.setattr("skewcodes.skewpoly._batched_divisor_codes", with_false_hit)
    f9 = make_field(3, 2, [1, 0, 1])
    with pytest.raises(VerificationError):
        right_divisor_search(ModulusSpec(4, f9.one), 2)


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
