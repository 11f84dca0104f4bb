"""Property tests of the ring R, the division routine, the CRT word split,
the Gray map, and the decomposition and duals of codes over R.

Polynomials and words are drawn over the fields of test_kernel.py, which
include twists strictly between the identity and the full Frobenius.
"""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import Span, constacyclic_shift, hamming_weight
from test_commutation_kernel import CHECK_FIELDS
from test_kernel import FIELDS

from skewcodes.codes import (
    SkewCode,
    build_code,
    component_orthogonality,
    dual_code,
    is_closed_under,
    shift_closures,
)
from skewcodes.decomp import components_from_words, verify_decomposition_theorem
from skewcodes.gf import make_field
from skewcodes.gray import gray_image_code, gray_map, lee_weight
from skewcodes.linalg import inner_product, nullspace
from skewcodes.ring4 import RingElement, ring_one, ring_zero, split_word
from skewcodes.skewpoly import (
    ModulusSpec,
    SkewPoly,
    fq_poly,
    quasi_twist_shift,
    random_right_divisor,
    right_divmod,
    skew_constacyclic_shift,
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
@given(dividend_and_divisor())
def test_division_contract(pair):
    f, g = pair
    quot, rem = right_divmod(f, g)
    assert quot * g + rem == f
    assert rem.is_zero or rem.degree < g.degree


@st.composite
def rows_and_vector(draw):
    """Up to 4 rows of length n over F_q, and a vector that is either random
    or a random combination of the rows."""
    spec = draw(fields())
    n = draw(st.integers(1, 6))
    vec = st.tuples(*[field_values(spec)] * n)
    rows = draw(st.lists(vec, max_size=4))
    if rows and draw(st.booleans()):
        coefs = draw(st.tuples(*[field_values(spec)] * len(rows)))
        v = tuple(sum((c * r[j] for c, r in zip(coefs, rows)), spec.zero) for j in range(n))
    else:
        v = draw(vec)
    return spec, n, rows, v


@SETTINGS
@given(rows_and_vector())
def test_span_membership_is_orthogonality_to_the_nullspace(args):
    spec, n, rows, v = args
    dual = nullspace(rows, n, spec)
    assert Span(rows).contains(v) == all(inner_product(v, h).is_zero for h in dual)


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


def span_component_verdicts(code):
    """The reference for verify_decomposition_theorem's components: C_i is
    row-reduced into a Span and every basis word's skew beta_i-constacyclic
    shift is tested against it."""
    verdicts = []
    for i, beta in enumerate(code.component_constants):
        basis = code.component_basis(i)
        span = Span(basis)
        verdicts.append(all(span.contains(skew_constacyclic_shift(w, beta)) for w in basis))
    return tuple(verdicts)


@st.composite
def monic_generators(draw, spec, n, beta):
    """A monic g of degree 0..n over spec that right-divides x^n - beta (a
    random right divisor, 1 or x^n - beta itself) or is drawn at random,
    and so most likely does not; degree n included either way."""
    kind = draw(st.sampled_from(("divisor", "one", "modulus", "random")))
    mod = ModulusSpec(n, beta)
    if kind == "divisor":
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        return random_right_divisor(mod, rng, draw(st.integers(0, n)))
    if kind == "one":
        return fq_poly(spec, [1])
    if kind == "modulus":
        return mod.poly()
    low = draw(st.lists(field_values(spec), min_size=draw(st.integers(0, n)), max_size=n))
    return SkewPoly(spec, "fq", low + [spec.one])


@st.composite
def corrupted_codes(draw):
    """A SkewCode made without build_code, over the fields of test_kernel,
    whose generators need not right-divide their x^n - beta_i."""
    spec = draw(fields())
    n = draw(st.integers(1, 4))
    betas = draw(st.tuples(*[field_values(spec)] * 4))
    gens = tuple(draw(monic_generators(spec, n, b)) for b in betas)
    return SkewCode(spec, n, RingElement.from_crt(spec, *betas), gens)


@SETTINGS
@given(st.one_of(plus_minus_one_codes(), corrupted_codes()))
def test_component_verdicts_match_the_span_reference(code):
    report = verify_decomposition_theorem(code)
    assert report.components == span_component_verdicts(code)
    assert report.equivalence_holds


def test_component_verdicts_of_corrupted_codes(f9):
    """A generator that does not right-divide x^6 - 1 leaves its component
    open. One of degree n other than x^n - 1 has C_i = {0}, which is closed
    although its remainder is not zero."""
    good = fq_poly(f9, [2, f9.root(), 0, 2 * f9.root(), 1])
    bad = fq_poly(f9, [1, 1, 1, 1])
    full = fq_poly(f9, [1, 0, 0, 0, 0, 0, 1])  # x^6 + 1
    alpha = ring_one(f9)
    for gens, verdicts in (
        ((good, bad, good, good), (True, False, True, True)),
        ((good, good, full, good), (True, True, True, True)),
    ):
        code = SkewCode(f9, 6, alpha, gens)
        assert span_component_verdicts(code) == verdicts
        assert verify_decomposition_theorem(code).components == verdicts
    assert not code.remainders[2].is_zero


@SETTINGS
@given(corrupted_codes(), st.data())
def test_remainders_and_membership_agree_with_division(code, data):
    """SkewCode.remainders, read off the residue rows, are the remainders of
    right_divmod; contains agrees with dividing each component of a word,
    random or a multiple h * g_i of degree < n per component."""
    spec, n = code.field, code.n
    for i, g in enumerate(code.gens):
        assert code.remainders[i] == right_divmod(code.modulus(i).poly(), g)[1]
    comps = []
    for g in code.gens:
        if data.draw(st.booleans()) and g.degree < n:
            h = SkewPoly(spec, "fq", data.draw(st.lists(field_values(spec), max_size=n - g.degree)))
            comps.append(tuple((h * g).coeff(j) for j in range(n)))
        else:
            comps.append(data.draw(st.tuples(*[field_values(spec)] * n)))
    word = tuple(RingElement.from_crt(spec, *column) for column in zip(*comps))
    expected = all(right_divmod(SkewPoly(spec, "fq", c), g)[1].is_zero for c, g in zip(comps, code.gens))
    assert code.contains(word) == expected


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
        assert Span(got) == Span(oracle)


ORTHOGONALITY_FIELDS = {
    "F9": CHECK_FIELDS["F9"],
    "F25": CHECK_FIELDS["F25"],
    **FIELDS,
}


@st.composite
def dual_lengths(draw):
    """(field, n) with the twist's order k dividing n: the dual's hypothesis."""
    spec = make_field(*ORTHOGONALITY_FIELDS[draw(st.sampled_from(sorted(ORTHOGONALITY_FIELDS)))])
    return spec, spec.k * draw(st.integers(1, max(1, 6 // spec.k)))


@st.composite
def extreme_codes(draw, length=None, constants=None):
    """A code whose components are each zero (generator x^n - beta), full
    (generator 1) or generated by a random right divisor. Its CRT constants
    are drawn from constants(spec), by default the units."""
    spec, n = length or draw(dual_lengths())
    values = constants(spec) if constants else field_values(spec, nonzero=True)
    betas = draw(st.tuples(*[values] * 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    gens = []
    for beta in betas:
        mod = ModulusSpec(n, beta)
        kind = draw(st.sampled_from(("zero", "full", "random")))
        if kind == "zero":
            gens.append(mod.poly())
        elif kind == "full":
            gens.append(fq_poly(spec, [1]))
        else:
            gens.append(random_right_divisor(mod, rng, draw(st.integers(0, n))))
    return build_code(spec, n, RingElement.from_crt(spec, *betas), gens)


@st.composite
def extreme_code_pairs(draw):
    length = draw(dual_lengths())
    return draw(extreme_codes(length)), draw(extreme_codes(length))


def r_orthogonality(code, other):
    """The all-pairs reference over R: component i is False when some pair
    of R basis words has an inner product whose i-th CRT component is
    nonzero."""
    theirs = other.basis_words()
    bad = set()
    for x in code.basis_words():
        for y in theirs:
            bad |= {i for i, c in enumerate(inner_product(x, y).crt()) if not c.is_zero}
    return tuple(i not in bad for i in range(4))


@SETTINGS
@given(extreme_codes())
def test_component_orthogonality_matches_the_r_reference(code):
    dual = dual_code(code)
    assert component_orthogonality(code, dual) == r_orthogonality(code, dual) == (True,) * 4
    gram = component_orthogonality(code, code)
    assert gram == r_orthogonality(code, code)
    for i, g in enumerate(code.gens):
        if g.degree == 0:
            assert not gram[i]  # e_0 of the full space has <e_0, e_0> = 1


@SETTINGS
@given(extreme_code_pairs())
def test_component_orthogonality_of_unrelated_codes(pair):
    code, other = pair
    assert component_orthogonality(code, other) == r_orthogonality(code, other)


@SETTINGS
@given(extreme_codes(), st.data())
def test_component_orthogonality_finds_a_swapped_dual_generator(code, data):
    """With dual generator i replaced by 1, exactly component i fails."""
    nonzero = [i for i, k in enumerate(code.dims) if k]
    assume(nonzero)
    i = data.draw(st.sampled_from(nonzero))
    dual = dual_code(code)
    gens = list(dual.gens)
    gens[i] = fq_poly(code.field, [1])
    swapped = build_code(code.field, code.n, dual.alpha, gens)
    expected = tuple(j != i for j in range(4))
    assert component_orthogonality(code, swapped) == r_orthogonality(code, swapped) == expected


def twist_classes(spec):
    """Zero, a unit the twist fixes or a unit it moves (when it moves any),
    each class drawn with the same weight."""
    units = [x for x in spec.elements() if not x.is_zero]
    classes = [[spec.zero], [x for x in units if x.frob(1) == x], [x for x in units if x.frob(1) != x]]
    return st.sampled_from([c for c in classes if c]).flatmap(st.sampled_from)


def plus_minus_one(spec):
    return st.sampled_from([spec.one, -spec.one])


@st.composite
def any_lengths(draw):
    spec = make_field(*ORTHOGONALITY_FIELDS[draw(st.sampled_from(sorted(ORTHOGONALITY_FIELDS)))])
    return spec, draw(st.integers(1, 6))


@st.composite
def twisted_codes(draw, length=None):
    """An extreme code of any length 1..6 whose CRT constants are zero,
    fixed by the twist or moved by it."""
    return draw(extreme_codes(length or draw(any_lengths()), constants=twist_classes))


@st.composite
def twisted_code_pairs(draw):
    length = draw(any_lengths())
    return draw(twisted_codes(length)), draw(twisted_codes(length))


@SETTINGS
@given(twisted_codes())
def test_shift_closures_match_the_per_word_check(code):
    tau, l, closed = shift_closures(code)
    assert l == math.gcd(code.n, code.field.k)
    assert tau == is_closed_under(code, lambda w: skew_constacyclic_shift(w, code.alpha))
    assert closed == is_closed_under(code, lambda w: quasi_twist_shift(w, code.alpha, l))
    if l == 1:
        assert closed == is_closed_under(code, lambda w: constacyclic_shift(w, code.alpha))


@st.composite
def membership_codes(draw, length):
    """A SkewCode built directly, with no divisibility check: each generator
    is zero (x^n - beta), full (1), a random right divisor or a random monic
    polynomial of degree <= n that need not divide x^n - beta."""
    spec, n = length
    betas = draw(st.tuples(*[field_values(spec)] * 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    gens = []
    for beta in betas:
        mod = ModulusSpec(n, beta)
        kind = draw(st.sampled_from(("zero", "full", "divisor", "any")))
        if kind == "zero":
            gens.append(mod.poly())
        elif kind == "full":
            gens.append(fq_poly(spec, [1]))
        elif kind == "divisor" and beta.is_unit:
            gens.append(random_right_divisor(mod, rng, rng.randint(0, n)))
        else:
            tail = [spec.from_int(rng.randrange(spec.q)) for _ in range(rng.randint(0, n))]
            gens.append(SkewPoly(spec, "fq", tail + [spec.one]))
    return SkewCode(spec, n, RingElement.from_crt(spec, *betas), tuple(gens))


def divides_each_component(code, word):
    """contains by one right division per CRT component."""
    return all(
        right_divmod(SkewPoly(code.field, "fq", comp), g)[1].is_zero
        for comp, g in zip(split_word(word), code.gens)
    )


@SETTINGS
@given(any_lengths().flatmap(lambda length: st.tuples(membership_codes(length), membership_codes(length))),
       st.randoms(use_true_random=False))
def test_contains_is_the_division_per_component(codes, rng):
    """Words whose components are each zero, a multiple of g_i or random,
    tested against two codes of the same field and length in turn."""
    for code in codes:
        spec, n = code.field, code.n
        component_words = []
        for i in range(4):
            basis = code.component_basis(i)
            multiple = [spec.zero] * n
            for w in basis:
                c = spec.from_int(rng.randrange(spec.q))
                multiple = [x + c * y for x, y in zip(multiple, w)]
            component_words.append([
                [spec.zero] * n, multiple, [spec.from_int(rng.randrange(spec.q)) for _ in range(n)]
            ])
        for _ in range(6):
            comps = [rng.choice(options) for options in component_words]
            word = tuple(RingElement.from_crt(spec, *crt) for crt in zip(*comps))
            assert code.contains(word) == divides_each_component(code, word)
        members = [rng.choice(options[:2]) for options in component_words]
        assert code.contains(tuple(RingElement.from_crt(spec, *crt) for crt in zip(*members)))


def test_shift_closures_of_a_generator_that_is_not_a_divisor():
    """x^3 + x^2 + x + 1 does not right-divide x^6 - 1 over F9: that
    component is not tau-closed, and its quasi-twist is decided word by word."""
    f9 = make_field(*CHECK_FIELDS["F9"])
    good, bad = fq_poly(f9, [-1, 0, 0, 1]), fq_poly(f9, [1, 1, 1, 1])
    code = SkewCode(f9, 6, ring_one(f9), (good, bad, good, good))
    tau, l, closed = shift_closures(code)
    assert not tau
    assert closed == is_closed_under(code, lambda w: quasi_twist_shift(w, code.alpha, l))


@SETTINGS
@given(words(), st.data())
def test_quasi_twist_of_index_one_is_the_constacyclic_shift(spec_word, data):
    spec, word = spec_word
    assume(word)
    alpha = data.draw(ring_values(spec))
    assert quasi_twist_shift(word, alpha, 1) == constacyclic_shift(word, alpha)


@SETTINGS
@given(extreme_codes(constants=plus_minus_one))
def test_self_orthogonality_matches_the_r_reference(code):
    """beta_i in {1, -1}, so beta_i * beta_i = 1 on every component."""
    assert component_orthogonality(code, code) == r_orthogonality(code, code)


@SETTINGS
@given(twisted_code_pairs())
def test_orthogonality_of_twisted_pairs_matches_the_r_reference(pair):
    """Zero and twist-moved constants: mostly beta_i * beta'_i != 1."""
    code, other = pair
    assert component_orthogonality(code, other) == r_orthogonality(code, other)
    assert component_orthogonality(code, code) == r_orthogonality(code, code)


def test_orthogonality_with_a_zero_constant_takes_the_full_gram():
    """F9, n = 2, both constants 0: the generator 1 of the full space is
    orthogonal to <x> = span(e_1), but e_1 is not, so one generator word
    does not decide the component."""
    f9 = make_field(*CHECK_FIELDS["F9"])
    zero = ring_zero(f9)
    full = build_code(f9, 2, zero, [fq_poly(f9, [1])] * 4)
    shifted = build_code(f9, 2, zero, [fq_poly(f9, [0, 1])] * 4)
    assert component_orthogonality(full, shifted) == r_orthogonality(full, shifted) == (False,) * 4


@SETTINGS
@given(extreme_codes())
def test_gray_image_rows_are_independent(code):
    """The rows gray_image_code returns without row reduction have full rank."""
    assert Span(gray_image_code(code).rows).dim == sum(code.dims)


# --- equivalence of skew constacyclic codes with untwisted ones ---

def closed_as_the_theorems_state(code):
    """Closure under the untwisted alpha-constacyclic shift when
    gcd(n, k) = 1, else under the alpha-quasi-twist of index gcd(n, k)."""
    index = math.gcd(code.n, code.field.k)
    if index == 1:
        return is_closed_under(code, lambda w: constacyclic_shift(w, code.alpha))
    return is_closed_under(code, lambda w: quasi_twist_shift(w, code.alpha, index))


def random_code(spec, n, betas, rng):
    """A code with CRT constants betas and random right-divisor generators."""
    gens = [random_right_divisor(ModulusSpec(n, b), rng, rng.randint(0, n)) for b in betas]
    return build_code(spec, n, RingElement.from_crt(spec, *betas), gens)


@st.composite
def fixed_constant_codes(draw):
    """A code whose constant is a unit the twist fixes, theta(alpha) = alpha:
    each CRT component lies in the fixed field F_{p^t}."""
    spec = make_field(*CHECK_FIELDS[draw(st.sampled_from(sorted(CHECK_FIELDS)))])
    fixed = [x for x in spec.elements() if not x.is_zero and x.frob(1) == x]
    betas = draw(st.tuples(*[st.sampled_from(fixed)] * 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_code(spec, draw(st.integers(1, 6)), betas, rng)


@SETTINGS
@given(fixed_constant_codes())
def test_fixed_constant_codes_are_equivalent_to_untwisted_ones(code):
    assert closed_as_the_theorems_state(code)


@pytest.mark.parametrize("name", ["F9", "F25", "F27", "F81t2"])
def test_equivalence_needs_a_constant_the_twist_fixes(name):
    """With every CRT constant moved by the twist, the codes are still closed
    under their skew shift, but some fail the closure the theorems state."""
    spec = make_field(*CHECK_FIELDS[name])
    rng = random.Random(name)
    moved = [x for x in spec.elements() if x.frob(1) != x]
    failures = 0
    for _ in range(12):
        code = random_code(spec, rng.randint(1, 6), [rng.choice(moved) for _ in range(4)], rng)
        assert is_closed_under(code, lambda w: skew_constacyclic_shift(w, code.alpha))
        closed = closed_as_the_theorems_state(code)
        assert shift_closures(code) == (True, math.gcd(code.n, spec.k), closed)
        failures += not closed
    assert failures > 0
