"""Property tests of the ring R, the division routine, the CRT word split,
the Gray map, and the decomposition and duals of codes over R.

Polynomials and words are drawn over the fields of test_kernel.py, which
include twists strictly between the identity and the full Frobenius.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel import FIELDS

from skewcodes.codes import build_code, dual_code
from skewcodes.decomp import components_from_words, verify_decomposition_theorem
from skewcodes.gf import make_field
from skewcodes.gray import gray_map, hamming_weight, lee_weight
from skewcodes.linalg import Span, nullspace
from skewcodes.ring4 import RingElement, ring_one, ring_zero, split_word
from skewcodes.skewpoly import (
    ModulusSpec,
    SkewPoly,
    c_divmod,
    c_mul,
    random_right_divisor,
    right_divmod,
    span_words,
)

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


# --- decomposition round trips ---

@st.composite
def plus_minus_one_codes(draw):
    """A code with alpha in {1, -1}^4 (CRT view) and random right-divisor
    generators of random degrees."""
    spec = draw(fields())
    n = draw(st.integers(1, 6))
    signs = draw(st.tuples(*[st.sampled_from((1, -1))] * 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    gens = [
        random_right_divisor(ModulusSpec(n, spec.constant(s)), rng, draw(st.integers(0, n)))
        for s in signs
    ]
    return build_code(spec, n, RingElement.from_crt(spec, *signs), gens)


@SETTINGS
@given(plus_minus_one_codes())
def test_decomposition_round_trip(code):
    back = components_from_words(code.basis_words(), code.n, code.alpha)
    assert back.gens == code.gens
    assert back.cardinality == code.cardinality
    report = verify_decomposition_theorem(code)
    assert report.closed
    assert report.equivalence_holds


# --- duals ---

@st.composite
def unit_constant_codes(draw):
    """A code with any unit alpha, at a length n that the order k of the
    twist divides: the hypothesis under which the dual's constant is
    alpha^{-1} (see decomp.dual_hypothesis_note)."""
    spec = draw(fields())
    n = spec.k * draw(st.integers(1, max(1, 6 // spec.k)))
    betas = draw(st.tuples(*[field_values(spec, nonzero=True)] * 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    gens = [random_right_divisor(ModulusSpec(n, b), rng, draw(st.integers(0, n))) for b in betas]
    return build_code(spec, n, RingElement.from_crt(spec, *betas), gens)


dual_cases = st.one_of(plus_minus_one_codes(), unit_constant_codes())


@SETTINGS
@given(dual_cases)
def test_dual_cardinality_product(code):
    dual = dual_code(code)
    assert code.cardinality * dual.cardinality == code.field.q ** (4 * code.n)


@SETTINGS
@given(dual_cases)
def test_dual_generators_span_the_nullspaces(code):
    """Each component generator of dual_code spans the classical dual of that
    component of C, computed as a nullspace."""
    n, spec = code.n, code.field
    dual = dual_code(code)
    for i in range(4):
        oracle = nullspace(span_words(code.gens[i], code.modulus(i)), n, spec)
        got = span_words(dual.gens[i], dual.modulus(i))
        assert Span(got, n, spec) == Span(oracle, n, spec)
