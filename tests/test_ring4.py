import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import random_ring_element, ring_elements
from test_kernel import FIELDS

from skewcodes.errors import NotAUnitError
from skewcodes.gf import make_field
from skewcodes.ring4 import (
    RingElement,
    idempotents,
    join_word,
    ring_one,
    ring_zero,
    split_word,
)

# F3, F9 and F27, as make_field takes them
SMALL_FIELDS = {"F3": (3, 1, [0, 1], 1), "F9": (3, 2, [1, 0, 1], 1), "F27": (3, 3, [1, 2, 0, 1], 1)}


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


def test_crt_ints_at_or_above_p_are_refused(f9):
    """An int in a CRT view is the constant c*1 mod p, so one >= p, which
    reads as an element code too, is ambiguous and refused; below p, and
    negative, it is the constant."""
    with pytest.raises(ValueError, match="from_int"):
        RingElement.from_crt(f9, 1, 1, 3, 1)
    xi = f9.from_int(3)
    assert RingElement.from_crt(f9, 1, 1, xi, 1).crt() == (f9.one, f9.one, xi, f9.one)
    assert RingElement.from_crt(f9, -1, 2, 0, 1).crt_ints() == (2, 2, 0, 1)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["F9", "F27", "F81t2"]), st.data())
def test_crt_codes_round_trip_through_from_int(name, data):
    spec = make_field(*{**SMALL_FIELDS, "F81t2": FIELDS["F81t2"]}[name])
    value = st.integers(0, spec.q - 1).map(spec.from_int)
    r = RingElement(*data.draw(st.tuples(value, value, value, value)))
    assert RingElement.from_crt(spec, *map(spec.from_int, r.crt_ints())) == r


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
    assert not stated.is_unit
    assert stated.crt_ints() == (1, 1, 2, 0)


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


@st.composite
def words_and_parts(draw):
    """(word over R, four component words of one length) over F3, F9 or
    F27, both possibly empty. Entries are drawn by their (a, b, c, d)
    coordinates and components by their codes, so zero entries and
    non-units (entries with a zero component) come up often."""
    spec = make_field(*SMALL_FIELDS[draw(st.sampled_from(sorted(SMALL_FIELDS)))])
    value = st.integers(0, spec.q - 1).map(spec.from_int)
    entry = st.tuples(value, value, value, value).map(lambda abcd: RingElement(*abcd))
    word = tuple(draw(st.lists(entry, max_size=6)))
    length = draw(st.integers(0, 6))
    parts = tuple(tuple(draw(st.lists(value, min_size=length, max_size=length))) for _ in range(4))
    return word, parts


@settings(max_examples=80, deadline=None)
@given(words_and_parts())
@example(((), ((), (), (), ())))
def test_join_word_inverts_split_word(args):
    word, parts = args
    assert join_word(split_word(word)) == word
    assert split_word(join_word(parts)) == parts


def test_join_word_places_each_part_in_its_component(f9):
    one, zero = f9.one, f9.zero
    u = RingElement.from_ints(f9, 0, 1, 0, 0)
    assert join_word(((zero, one), (one, one), (zero, one), (one, one))) == (u, ring_one(f9))
    with pytest.raises(ValueError):
        join_word(((one,), (one,), (one,), ()))
