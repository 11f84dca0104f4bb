"""Property tests of the division routine, the CRT word split and the Gray map.

Polynomials and words are drawn over the fields of test_kernel.py, which
include twists strictly between the identity and the full Frobenius.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel import FIELDS

from skewcodes.gf import make_field
from skewcodes.gray import gray_map, hamming_weight, lee_weight
from skewcodes.ring4 import RingElement, split_word
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
