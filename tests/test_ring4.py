import random

import pytest
from reference import random_ring_element, ring_elements

from skewcodes.errors import NotAUnitError
from skewcodes.ring4 import (
    RingElement,
    idempotents,
    ring_one,
    ring_zero,
    unit_check,
)


def reference_mul(x, y):
    """Direct expansion of the product using u^2 = u, v^2 = v, uv = vu."""
    a1, b1, c1, d1 = x.a, x.b, x.c, x.d
    a2, b2, c2, d2 = y.a, y.b, y.c, y.d
    return RingElement(
        a1 * a2,
        a1 * b2 + b1 * a2 + b1 * b2,
        a1 * c2 + c1 * a2 + c1 * c2,
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
        + b1 * d2 + d1 * b2 + c1 * d2 + d1 * c2 + d1 * d2,
    )


def test_crt_split_examples(f9, f49):
    u = RingElement.from_ints(f9, 0, 1, 0, 0)
    assert u.crt_ints() == (0, 1, 0, 1)
    assert ring_one(f9).crt_ints() == (1, 1, 1, 1)
    alpha = RingElement.from_ints(f49, 1, 0, 0, -2)
    assert alpha.crt_ints() == (1, 1, 1, 6)


def test_crt_join_examples(f9):
    assert RingElement.from_crt(f9, 1, 1, 1, 1) == ring_one(f9)
    joined = RingElement.from_crt(f9, f9.one, f9.one, f9.one, -f9.one)
    assert joined == RingElement.from_ints(f9, 1, 0, 0, -2)
    assert RingElement.from_crt(f9, 0, 1, 0, 1) == RingElement.from_ints(f9, 0, 1, 0, 0)


def test_crt_round_trip_random(f9, f25):
    rng = random.Random(5)
    for spec in (f9, f25):
        for _ in range(500):
            r = random_ring_element(spec, rng)
            assert RingElement.from_crt(spec, *r.crt()) == r


def test_defining_relations(f9):
    u = RingElement.from_ints(f9, 0, 1, 0, 0)
    v = RingElement.from_ints(f9, 0, 0, 1, 0)
    uv = RingElement.from_ints(f9, 0, 0, 0, 1)
    assert u * u == u
    assert v * v == v
    assert u * v == uv
    assert v * u == uv


def test_shift_constant_is_involution(f49):
    alpha = RingElement.from_ints(f49, 1, 0, 0, -2)
    assert alpha * alpha == ring_one(f49)


def test_idempotent_identities(f9, f25, f49):
    for spec in (f9, f25, f49):
        es = idempotents(spec)
        assert sum(es[1:], es[0]) == ring_one(spec)
        for i, e in enumerate(es):
            assert e * e == e
            for j, other in enumerate(es):
                if i != j:
                    assert (e * other).is_zero


def test_mul_agrees_with_direct_expansion(f9, f25):
    rng = random.Random(77)
    for spec in (f9, f25):
        for _ in range(1000):
            x = random_ring_element(spec, rng)
            y = random_ring_element(spec, rng)
            assert x * y == reference_mul(x, y)


def test_crt_split_is_ring_iso(f9, f25):
    rng = random.Random(78)
    for spec in (f9, f25):
        for _ in range(1000):
            x = random_ring_element(spec, rng)
            y = random_ring_element(spec, rng)
            sx, sy = x.crt(), y.crt()
            assert (x * y).crt() == tuple(a * b for a, b in zip(sx, sy))
            assert (x + y).crt() == tuple(a + b for a, b in zip(sx, sy))


def test_unit_examples(f9, f49):
    u = RingElement.from_ints(f9, 0, 1, 0, 0)
    assert not u.is_unit
    assert RingElement.from_ints(f49, 1, 0, 0, -2).is_unit
    # fourth CRT component of 1 - 2v - 2uv vanishes mod 3
    stated = RingElement.from_ints(f9, 1, 0, -2, -2)
    report = unit_check(stated)
    assert not report.is_unit
    assert report.crt_components == (1, 1, 2, 0)


def test_inverse_examples(f9, f49):
    assert ring_one(f9).inverse() == ring_one(f9)
    alpha = RingElement.from_ints(f49, 1, 0, 0, -2)
    assert alpha.inverse() == alpha
    with pytest.raises(NotAUnitError):
        RingElement.from_ints(f9, 0, 1, 0, 0).inverse()


def test_units_exhaustive_q9(f9):
    """Unit criterion against explicit witnesses, across all q^4 elements."""
    units = 0
    for r in ring_elements(f9):
        comps = r.crt()
        if all(not c.is_zero for c in comps):
            units += 1
            assert r.is_unit
            assert r * r.inverse() == ring_one(f9)
        else:
            assert not r.is_unit
            # a zero divisor: the idempotent indicator of a vanishing component
            witness = RingElement.from_crt(
                f9, *(f9.one if c.is_zero else f9.zero for c in comps)
            )
            assert not witness.is_zero
            assert (r * witness).is_zero
    assert units == (f9.q - 1) ** 4


def test_theta_fixes_prime_subring(f9):
    u = RingElement.from_ints(f9, 0, 1, 0, 0)
    assert u.frob() == u
    assert RingElement.from_ints(f9, 1, 2, 0, 2).frob() == RingElement.from_ints(f9, 1, 2, 0, 2)


def test_theta_on_alpha_u(f9):
    a = f9.root()
    x = RingElement(f9.zero, a, f9.zero, f9.zero)
    assert x.frob() == RingElement(f9.zero, 2 * a, f9.zero, f9.zero)


def test_theta_order_and_crt_commutation(f9, f25):
    rng = random.Random(9)
    for spec in (f9, f25):
        for _ in range(200):
            r = random_ring_element(spec, rng)
            assert r.frob(spec.k) == r
            assert r.frob().crt() == tuple(c.frob() for c in r.crt())


def test_zero_and_one(f9):
    assert ring_zero(f9).is_zero
    assert not ring_one(f9).is_zero
    assert (ring_one(f9) - ring_one(f9)).is_zero
