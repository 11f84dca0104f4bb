"""Property tests of the ring R, the division routine, the CRT word split and
the Gray map.

Polynomials and words are drawn over the fields of test_kernel.py, which
include twists strictly between the identity and the full Frobenius.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel import FIELDS

from skewcodes.gf import make_field
from skewcodes.gray import gray_map, hamming_weight, lee_weight
from skewcodes.ring4 import RingElement, ring_one, ring_zero, split_word
from skewcodes.skewpoly import SkewPoly, c_divmod, c_mul, right_divmod

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def fields(draw):
    return make_field(*FIELDS[draw(st.sampled_from(sorted(FIELDS)))])


def field_values(spec, nonzero=False):
    return st.integers(1 if nonzero else 0, spec.q - 1).map(spec.from_int)


def ring_values(spec, unit=False):
    part = field_values(spec, nonzero=unit)
    return st.tuples(part, part, part, part).map(lambda crt: RingElement.from_crt(spec, *crt))


@st.composite
def dividend_and_divisor(draw):
    """(f, g) over F_q or over R with a unit leading coefficient in g."""
    spec = draw(fields())
    ring = draw(st.sampled_from(("fq", "R")))
    coeff = ring_values if ring == "R" else field_values
    f = draw(st.lists(coeff(spec), max_size=7))
    g = draw(st.lists(coeff(spec), max_size=3)) + [draw(coeff(spec, True))]
    return SkewPoly(spec, ring, f), SkewPoly(spec, ring, g)


@st.composite
def words(draw):
    spec = draw(fields())
    return spec, tuple(draw(st.lists(ring_values(spec), max_size=6)))


@SETTINGS
@given(dividend_and_divisor(), st.booleans())
def test_division_contract(pair, twisted):
    f, g = pair
    quot, rem = right_divmod(f, g) if twisted else c_divmod(f, g)
    product = quot * g if twisted else c_mul(quot, g)
    assert product + rem == f
    assert rem.is_zero or rem.degree < g.degree


@SETTINGS
@given(words())
def test_split_word_is_the_crt_view(args):
    spec, word = args
    comps = split_word(word)
    assert len(comps) == 4
    assert tuple(zip(*comps)) == tuple(r.crt() for r in word)
    assert tuple(RingElement.from_crt(spec, *parts) for parts in zip(*comps)) == word


@SETTINGS
@given(words())
def test_gray_image_weight_is_lee_weight(args):
    _, word = args
    assert hamming_weight(gray_map(word)) == lee_weight(word)


# --- the ring R, held in CRT coordinates ---

def standard_values(spec):
    """Ring elements built from standard-basis coordinates (a, b, c, d)."""
    part = field_values(spec)
    return st.tuples(part, part, part, part).map(lambda abcd: RingElement(*abcd))


@st.composite
def ring_triples(draw):
    spec = draw(fields())
    values = st.one_of(ring_values(spec), standard_values(spec))
    return spec, draw(values), draw(values), draw(values)


@SETTINGS
@given(ring_triples())
def test_ring_axioms(args):
    spec, x, y, z = args
    zero, one = ring_zero(spec), ring_one(spec)
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + zero == x
    assert x + (-x) == zero
    assert x - y == x + (-y)
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * one == x
    assert x * (y + z) == x * y + x * z
    if x.is_unit:
        assert x * x.inverse() == one


@SETTINGS
@given(fields().flatmap(lambda spec: st.tuples(*[field_values(spec)] * 4)))
def test_standard_basis_round_trip(abcd):
    r = RingElement(*abcd)
    assert (r.a, r.b, r.c, r.d) == abcd
    assert RingElement.from_crt(r.spec, *r.crt()) == r
    assert RingElement.from_ints(r.spec, *abcd) == r
    assert hash(RingElement.from_crt(r.spec, *r.crt())) == hash(r)


@SETTINGS
@given(ring_triples())
def test_product_is_the_direct_expansion(args):
    """x * y against the standard-basis expansion with u^2 = u, v^2 = v, uv = vu."""
    _, x, y, _ = args
    a1, b1, c1, d1 = x.a, x.b, x.c, x.d
    a2, b2, c2, d2 = y.a, y.b, y.c, y.d
    # (a1 + b1 u + c1 v + d1 uv)(a2 + b2 u + c2 v + d2 uv): collect 1, u, v, uv
    expected = (
        a1 * a2,
        a1 * b2 + b1 * a2 + b1 * b2,
        a1 * c2 + c1 * a2 + c1 * c2,
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
        + b1 * d2 + d1 * b2 + c1 * d2 + d1 * c2 + d1 * d2,
    )
    product = x * y
    assert (product.a, product.b, product.c, product.d) == expected


@SETTINGS
@given(ring_triples(), st.integers(-7, 7))
def test_frob_is_coefficientwise(args, i):
    _, x, _, _ = args
    image = x.frob(i)
    assert (image.a, image.b, image.c, image.d) == tuple(
        coeff.frob(i) for coeff in (x.a, x.b, x.c, x.d)
    )


@st.composite
def r_poly_triples(draw):
    spec = draw(fields())
    polys = st.lists(ring_values(spec), max_size=4).map(lambda cs: SkewPoly(spec, "R", cs))
    return draw(polys), draw(polys), draw(polys)


@SETTINGS
@given(r_poly_triples())
def test_twisted_product_is_associative(polys):
    f, g, h = polys
    assert (f * g) * h == f * (g * h)
