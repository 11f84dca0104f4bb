import itertools
import json
import math
import random
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import (
    ModuleSpan,
    Span,
    commutative_remainder,
    component_polys,
    object_divmod,
    object_inner_product,
    object_product,
    orbit_basis_words,
    random_right_divisor,
    residue_sum,
    residues,
    run_main,
)
from test_kernel import FIELDS

from skewcodes.errors import (
    BudgetExceededError,
    DivisionByZeroPolyError,
    HypothesisViolatedError,
    LengthMismatchError,
    MixedRingsError,
    NonUnitLeadingCoeffError,
    NotADivisorError,
    NotAUnitError,
    VerificationError,
    ZeroPolynomialError,
)
from skewcodes.gf import FieldElement, make_field
from skewcodes.linalg import nullspace
from skewcodes.ring4 import RingElement
from skewcodes.skewpoly import (
    ModulusSpec,
    SkewPoly,
    _log_remainder,
    _logs,
    _poly_of_logs,
    c_mul,
    dual_generator,
    dual_idempotent,
    fq_poly,
    from_components,
    generator_basis_words,
    idempotent_generator,
    is_right_divisor,
    is_theta_fixed,
    poly_to_word,
    r_poly,
    reduce_mod,
    right_divisor_search,
    right_divmod,
    right_remainder,
    span_words,
)


def random_poly(spec, rng, max_deg=6):
    deg = rng.randint(0, max_deg)
    return SkewPoly(spec, "fq", [spec.random_element(rng) for _ in range(deg + 1)])


# --- multiplication ---

def test_twist_rule_f25_both_orders(f25):
    a = f25.root()
    x4m1 = fq_poly(f25, [-1, 0, 0, 0, 1])
    factors = [fq_poly(f25, [c, 1]) for c in (f25.constant(2), f25.constant(3), a, a + 1)]
    prod = factors[0] * factors[1] * factors[2] * factors[3]
    assert prod == x4m1
    swapped = factors[0] * factors[1] * fq_poly(f25, [a + 1, 1]) * fq_poly(f25, [a, 1])
    assert swapped == x4m1


def test_twist_rule_f9_factorizations(f9):
    a = f9.root()
    x6m1 = fq_poly(f9, [-1, 0, 0, 0, 0, 0, 1])
    assert fq_poly(f9, [2, a, 0, 2 * a, 1]) * fq_poly(f9, [1, a, 1]) == x6m1
    cubic1 = fq_poly(f9, [2, 1, f9.one + 2 * a, 1])
    cubic2 = fq_poly(f9, [1, 1, 2 * a + 2, 1])
    assert cubic1 * cubic2 == x6m1


def test_identity_twist_is_commutative_product():
    spec = make_field(3, 2, [1, 0, 1], t=2)  # k = m/t = 1, theta = id
    rng = random.Random(123)
    for _ in range(200):
        f, g = random_poly(spec, rng), random_poly(spec, rng)
        assert f * g == c_mul(f, g)
        assert f * g == g * f


def test_non_commutativity_witness(f9):
    a = f9.root()
    x = fq_poly(f9, [0, 1])
    const = fq_poly(f9, [a])
    assert x * const == fq_poly(f9, [0, 2 * a])
    assert const * x == fq_poly(f9, [0, a])
    assert x * const != const * x


def test_mul_associative_and_distributive(f9, f25):
    rng = random.Random(42)
    for spec in (f9, f25):
        for _ in range(100):
            f, g, h = (random_poly(spec, rng, 4) for _ in range(3))
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h


def test_mixed_rings_rejected(f9, f25):
    with pytest.raises(MixedRingsError):
        fq_poly(f9, [1]) * fq_poly(f25, [1])
    with pytest.raises(MixedRingsError):
        fq_poly(f9, [1]) * r_poly(f9, [1])


def test_zero_polynomial_degree_sentinel(f9):
    z = SkewPoly.zero(f9)
    assert z.is_zero
    assert z.degree is None
    assert (z * fq_poly(f9, [1, 1])).is_zero


PRODUCT_FIELDS = {**FIELDS, "F9": (3, 2, [1, 0, 1], 1), "F25": (5, 2, [1, 1, 1], 1)}


@st.composite
def product_cases(draw):
    """(f, g) over F_q or R, each possibly zero, with zero coefficients and,
    over R, coefficients some of whose CRT components are zero."""
    spec = make_field(*PRODUCT_FIELDS[draw(st.sampled_from(sorted(PRODUCT_FIELDS)))])
    ring = draw(st.sampled_from(("fq", "R")))
    value = st.one_of(st.just(spec.zero), st.integers(1, spec.q - 1).map(spec.from_int))
    if ring == "R":
        value = st.tuples(value, value, value, value).map(lambda crt: RingElement.from_crt(spec, *crt))
    return tuple(SkewPoly(spec, ring, draw(st.lists(value, max_size=8))) for _ in range(2))


@settings(max_examples=300, deadline=None)
@given(product_cases())
def test_products_are_the_definition(case):
    """f * g and c_mul(f, g), on logarithm lists, against the coefficient
    loop of the definition (a x^i)(b x^j) = a theta^i(b) x^(i+j) and its
    commutative form. The fields include k = 3 and k = 5, where a product
    twisted by theta^-1 would differ, which associativity alone would not
    catch."""
    f, g = case
    assert f * g == object_product(f, g, twisted=True)
    assert c_mul(f, g) == object_product(f, g, twisted=False)


def test_products_of_zero_and_of_zero_components(f9):
    """Zero polynomials, and R coefficients with zero CRT components, give
    the definition's product, trimmed."""
    a = f9.root()
    f = SkewPoly(f9, "R", [RingElement.from_crt(f9, a, 0, 1, 0), RingElement.from_crt(f9, 1, a, 0, 0)])
    g = SkewPoly(f9, "R", [RingElement.from_crt(f9, 1, 0, 0, 0), RingElement.from_crt(f9, a, 0, a, 0)])
    for ring, h in (("fq", fq_poly(f9, [a, 0, 1])), ("R", f), ("R", g)):
        zero = SkewPoly.zero(f9, ring)
        for left, right in ((zero, h), (h, zero), (zero, zero)):
            assert (left * right).is_zero and c_mul(left, right).is_zero
    assert f * g == object_product(f, g, twisted=True) != c_mul(f, g) == object_product(f, g, twisted=False)
    assert (f * g).degree == 2


# --- division ---

def test_right_division_contract_random(f9, f25):
    rng = random.Random(2024)
    for spec in (f9, f25):
        for _ in range(1000):
            f = random_poly(spec, rng)
            g = random_poly(spec, rng, 4)
            if g.is_zero:
                continue
            q, r = right_divmod(f, g)
            assert f == q * g + r
            assert r.is_zero or r.degree < g.degree


def test_divmod_examples(f25, f9):
    a25 = f25.root()
    x4m1 = fq_poly(f25, [-1, 0, 0, 0, 1])
    q, r = right_divmod(x4m1, fq_poly(f25, [a25 + 1, 1]))
    assert r.is_zero

    f = fq_poly(f9, [2, f9.root(), 1])
    q, r = right_divmod(f, fq_poly(f9, [1]))
    assert (q, r.is_zero) == (f, True)

    a9 = f9.root()
    x6m1 = fq_poly(f9, [-1, 0, 0, 0, 0, 0, 1])
    q, r = right_divmod(x6m1, fq_poly(f9, [1, a9, 1]))
    assert r.is_zero
    assert q == fq_poly(f9, [2, a9, 0, 2 * a9, 1])


def reference_divmod(f, g):
    """The allocating loop that object_divmod replaced: every quotient term
    is a full-length SkewPoly, and every step rebuilds quot and rem."""
    quot = SkewPoly.zero(f.spec, f.ring)
    rem = f
    dg = g.degree
    glead = g.lead
    while not rem.is_zero and rem.degree >= dg:
        d = rem.degree - dg
        c = rem.lead * glead.frob(d).inverse()
        term = SkewPoly(f.spec, f.ring, [f._zero_coeff()] * d + [c])
        quot = quot + term
        rem = rem - term * g
    return quot, rem


DIVISION_FIELDS = {**FIELDS, "F3": (3, 1, [0, 1], 1), "F9": (3, 2, [1, 0, 1], 1)}


@st.composite
def division_cases(draw):
    """(f, g) over F_q or R; g has a unit leading coefficient."""
    spec = make_field(*DIVISION_FIELDS[draw(st.sampled_from(sorted(DIVISION_FIELDS)))])
    ring = draw(st.sampled_from(("fq", "R")))
    value = st.integers(0, spec.q - 1).map(spec.from_int)
    unit = st.integers(1, spec.q - 1).map(spec.from_int)
    if ring == "R":
        value = st.tuples(value, value, value, value).map(lambda crt: RingElement.from_crt(spec, *crt))
        unit = st.tuples(unit, unit, unit, unit).map(lambda crt: RingElement.from_crt(spec, *crt))
    f = draw(st.lists(value, max_size=14))
    g = draw(st.lists(value, max_size=5)) + [draw(unit)]
    return SkewPoly(spec, ring, f), SkewPoly(spec, ring, g)


@settings(max_examples=300, deadline=None)
@given(division_cases())
def test_division_matches_the_allocating_loop(case):
    f, g = case
    assert right_divmod(f, g) == reference_divmod(f, g)


OBJECT_DIVISION_FIELDS = {
    **DIVISION_FIELDS,
    "F25": (5, 2, [1, 1, 1], 1),
    "F27": (3, 3, [1, 2, 0, 1], 1),
    "F49": (7, 2, [3, 6, 1], 1),
}


@pytest.mark.parametrize(
    "name, ring", [(name, "fq") for name in sorted(OBJECT_DIVISION_FIELDS)] + [("F3", "R"), ("F9", "R")]
)
def test_right_division_is_the_object_division(name, ring):
    """right_divmod, on logarithm lists, against object_divmod, on
    polynomial objects: f = 0 and f of every degree up to deg g + 6, by g of
    degree 0 to 4 with a non-monic unit lead, so deg f < deg g among them,
    and quot * g + rem == f."""
    spec = make_field(*OBJECT_DIVISION_FIELDS[name])
    rng = random.Random(f"{name}:{ring}")

    def element(unit=False):
        codes = [rng.randrange(unit, spec.q) for _ in range(4 if ring == "R" else 1)]
        return RingElement.from_crt(spec, *map(spec.from_int, codes)) if ring == "R" else spec.from_int(codes[0])

    leads = set()
    for degree in range(5):
        for _ in range(3):
            g = SkewPoly(spec, ring, [element() for _ in range(degree)] + [element(unit=True)])
            leads.add(g.is_monic)
            for length in range(degree + 8):
                f = SkewPoly(spec, ring, [element() for _ in range(length)])
                quot, rem = right_divmod(f, g)
                assert (quot, rem) == object_divmod(f, g)
                assert quot * g + rem == f
    assert False in leads


@settings(max_examples=300, deadline=None)
@given(division_cases())
def test_right_remainder_is_the_division_remainder(case):
    """Over F_q and R, with non-monic unit leads, deg g = 0, deg g >= deg f
    and zero f among the cases."""
    f, g = case
    assert right_remainder(f, g) == right_divmod(f, g)[1]


@st.composite
def remainder_cases(draw):
    """(f, g) over a field of test_kernel.FIELDS (F81 and F729 with t = 2,
    so theta has order k > 1), over F_q or R: g of degree 0 to 5 with a unit
    lead, monic or not, and f with up to 14 coefficients, zero f included.
    Zero is drawn as often as all other entries together, so over R many
    coefficients have zero CRT components."""
    spec = make_field(*FIELDS[draw(st.sampled_from(sorted(FIELDS)))])
    ring = draw(st.sampled_from(("fq", "R")))
    value = st.one_of(st.just(0), st.integers(1, spec.q - 1)).map(spec.from_int)
    unit = st.one_of(st.just(1), st.integers(1, spec.q - 1)).map(spec.from_int)
    if ring == "R":
        value = st.tuples(value, value, value, value).map(lambda crt: RingElement.from_crt(spec, *crt))
        unit = st.tuples(unit, unit, unit, unit).map(lambda crt: RingElement.from_crt(spec, *crt))
    f = draw(st.lists(value, max_size=14))
    g = draw(st.lists(value, max_size=5)) + [draw(unit)]
    return SkewPoly(spec, ring, f), SkewPoly(spec, ring, g)


F81 = make_field(*FIELDS["F81t2"])
R81 = lambda *crt: RingElement.from_crt(F81, *map(F81.from_int, crt))


@settings(max_examples=300, deadline=None)
@given(remainder_cases())
@example((SkewPoly.zero(F81), fq_poly(F81, [F81.from_int(5), 1])))  # zero f
@example((fq_poly(F81, [F81.from_int(7)] * 3), fq_poly(F81, [F81.from_int(2)])))  # deg g = 0, not monic
@example((fq_poly(F81, [1, F81.from_int(9)]), fq_poly(F81, [2, 0, 1, F81.from_int(40)])))  # deg f < deg g
@example((r_poly(F81, [R81(0, 3, 0, 1)] * 9 + [R81(5, 0, 0, 7)]), r_poly(F81, [R81(1, 0, 2, 0), R81(1, 2, 3, 4)])))
def test_the_list_remainder_is_the_object_residue_sum(case):
    """right_remainder and _log_remainder, on logarithm lists, against the
    object reference residue_sum(f, g, residues(g)), which sums the rows
    x^D mod g of coefficient objects: non-monic unit leads, deg g = 0,
    deg f < deg g, zero f and R coefficients with zero CRT components are
    among the cases. _log_remainder gives one list of deg g logarithms per
    CRT component."""
    f, g = case
    expected = residue_sum(f.coeffs, g, residues(g))
    assert right_remainder(f, g) == expected
    parts = _log_remainder(g, _logs(f))
    assert [len(part) for part in parts] == [g.degree] * (4 if f.ring == "R" else 1)
    assert _poly_of_logs(f.spec, f.ring, parts) == expected


def test_right_remainder_edge_cases(f9):
    a = f9.root()
    g = fq_poly(f9, [1, a, 0, 2 * a])
    f = fq_poly(f9, [a, 0, 1])
    assert right_remainder(f, g) == f
    assert right_remainder(SkewPoly.zero(f9), g).is_zero
    assert right_remainder(f, fq_poly(f9, [a])).is_zero
    unit = RingElement.from_crt(f9, f9.one, a, a + 1, 2 * a)
    f = r_poly(f9, [RingElement.from_ints(f9, 1, 2, 0, 1), 0, a, unit])
    assert right_remainder(f, r_poly(f9, [unit])).is_zero
    # x^n - alpha by x - 1 over F3 for a long n: the residues are streamed
    f3 = make_field(3, 1, [0, 1])
    assert right_remainder(ModulusSpec(10**4, f3.one).poly(), fq_poly(f3, [-1, 1])).is_zero
    assert right_remainder(ModulusSpec(10**4, -f3.one).poly(), fq_poly(f3, [-1, 1])) == fq_poly(f3, [2])


def test_right_remainder_errors(f9, f25):
    f = fq_poly(f9, [1, 1])
    with pytest.raises(DivisionByZeroPolyError):
        right_remainder(f, SkewPoly.zero(f9))
    u_lead = r_poly(f9, [1, RingElement.from_ints(f9, 0, 1, 0, 0)])
    with pytest.raises(NonUnitLeadingCoeffError):
        right_remainder(r_poly(f9, [1, 0, 1]), u_lead)
    with pytest.raises(MixedRingsError):
        right_remainder(f, fq_poly(f25, [1, 1]))
    with pytest.raises(MixedRingsError):
        right_remainder(r_poly(f9, [1, 1]), f)


def test_division_edge_cases(f9):
    a = f9.root()
    g = fq_poly(f9, [1, a, 0, 1])
    # deg f < deg g: the quotient is zero and f is the remainder
    f = fq_poly(f9, [a, 0, 1])
    assert right_divmod(f, g) == (SkewPoly.zero(f9), f) == reference_divmod(f, g)
    # f = 0
    zero = SkewPoly.zero(f9, "R")
    assert right_divmod(zero, r_poly(f9, [1, 1])) == (zero, zero)
    # a degree-0 divisor over R: a unit constant divides everything
    unit = RingElement.from_crt(f9, f9.one, a, a + 1, 2 * a)
    f = r_poly(f9, [RingElement.from_ints(f9, 1, 2, 0, 1), 0, a, unit])
    quot, rem = right_divmod(f, r_poly(f9, [unit]))
    assert rem.is_zero
    assert quot * r_poly(f9, [unit]) == f
    assert (quot, rem) == reference_divmod(f, r_poly(f9, [unit]))


def test_division_cost_is_linear_in_the_dividend(f3, monkeypatch):
    """x^n - 1 by x - 1 takes n steps of O(deg g) field operations each. The
    allocating loop made the same number of products but O(n) additions
    per step, so all three operators are counted."""
    counts = {"ops": 0}
    for name in ("__add__", "__sub__", "__mul__"):
        original = getattr(FieldElement, name)

        def counted(self, other, original=original):
            counts["ops"] += 1
            return original(self, other)

        monkeypatch.setattr(FieldElement, name, counted)
    ops = []
    for n in (500, 1000):
        counts["ops"] = 0
        quot, rem = right_divmod(ModulusSpec(n, f3.one).poly(), fq_poly(f3, [-1, 1]))
        assert rem.is_zero and quot.degree == n - 1
        ops.append(counts["ops"])
    assert ops[1] <= 2.2 * ops[0]


def test_division_errors(f9):
    f = fq_poly(f9, [1, 1])
    with pytest.raises(DivisionByZeroPolyError):
        right_divmod(f, SkewPoly.zero(f9))
    u_lead = r_poly(f9, [1, RingElement.from_ints(f9, 0, 1, 0, 0)])
    with pytest.raises(NonUnitLeadingCoeffError):
        right_divmod(r_poly(f9, [1, 0, 1]), u_lead)


# --- right divisors ---

def test_is_right_divisor_over_R(f9, f49):
    one_minus_2v = RingElement.from_ints(f9, 1, 0, -2, 0)
    gen = r_poly(f9, [1, one_minus_2v, 1, one_minus_2v, 1, one_minus_2v, 1])
    stated = RingElement.from_ints(f9, 1, 0, -2, -2)
    # the stated length-7 shift constant leaves remainder 2uv; the working
    # constant is 1 - 2v
    assert not is_right_divisor(gen, ModulusSpec(7, stated))
    rem = right_divmod(ModulusSpec(7, stated).poly(), gen)[1]
    assert rem == r_poly(f9, [RingElement.from_ints(f9, 0, 0, 0, 2)])
    assert is_right_divisor(gen, ModulusSpec(7, one_minus_2v))

    assert is_right_divisor(fq_poly(f49, [1, 4, 1]), ModulusSpec(4, -f49.one))


def test_x_minus_one_always_divides(f9, f25, f27):
    for spec in (f9, f25, f27):
        for n in (2, 3, 5, 7):
            assert is_right_divisor(fq_poly(spec, [-1, 1]), ModulusSpec(n, spec.one))


def test_divisor_search_f25(f25):
    a = f25.root()
    found = right_divisor_search(ModulusSpec(4, f25.one), 1)
    for c in (f25.constant(2), f25.constant(3), a, a + 1):
        assert fq_poly(f25, [c, 1]) in found
    # every result really is a right divisor
    for g in found:
        assert is_right_divisor(g, ModulusSpec(4, f25.one))


def test_divisor_search_degree_zero(f9):
    assert right_divisor_search(ModulusSpec(5, f9.one), 0) == [fq_poly(f9, [1])]


@pytest.mark.parametrize("n", [0, -3, 2.0, "3", None])
def test_a_modulus_length_that_is_no_positive_int_is_refused(f9, n):
    """ModulusSpec refuses n <= 0 and a non-int n when it is built, naming
    the value: right_divisor_search(ModulusSpec(0, one), 0) used to return
    [x + 2], and ModulusSpec(-3, one).poly() was x + 2."""
    with pytest.raises(LengthMismatchError, match=f"^modulus length n = {re.escape(repr(n))} is not a positive integer$"):
        ModulusSpec(n, f9.one)
    with pytest.raises(LengthMismatchError):
        right_divisor_search(ModulusSpec(n, f9.one), 0)
    with pytest.raises(LengthMismatchError):
        ModulusSpec(n, r_poly(f9, [1]).coeffs[0]).poly()


@pytest.mark.parametrize("alpha", [1, None, "1"])
def test_a_shift_constant_that_is_no_element_is_refused(f9, alpha):
    """ModulusSpec(3, 1).poly() used to raise AttributeError; the constant
    must be a FieldElement or a RingElement, and the refusal names it."""
    with pytest.raises(MixedRingsError, match=f"^shift constant {re.escape(repr(alpha))} is not a field or ring element$"):
        ModulusSpec(3, alpha).poly()
    with pytest.raises(MixedRingsError):
        ModulusSpec(3, fq_poly(f9, [1]))


def test_divisor_search_f49(f49):
    found = right_divisor_search(ModulusSpec(4, -f49.one), 2)
    assert fq_poly(f49, [1, 3, 1]) in found
    assert fq_poly(f49, [1, 4, 1]) in found


def test_divisor_search_budget(f25):
    """x^4 - 1 over F25: degree 2 screens 625 candidates, over a budget of
    100; degree 3 = n - 1 tries none, and its 12 divisors are charged
    12 * 2 * 4 = 96 steps."""
    with pytest.raises(BudgetExceededError):
        right_divisor_search(ModulusSpec(4, f25.one), 2, budget=100)
    assert len(right_divisor_search(ModulusSpec(4, f25.one), 3, budget=96)) == 12


def test_degree_one_search_over_f_q_is_charged_for_its_divisors():
    """x^57 - 1 over F_{3^11}: the closed form returns one divisor, charged
    the 57 * 2 = 114 steps of its certificate; all 3^11 candidates would be
    20194758 steps, over the default budget. A budget of 113 is refused by
    that certificate, since no candidate is tried."""
    spec = make_field(3, 11, [1, 0, 0, 2] + [0] * 7 + [1])
    mod = ModulusSpec(57, spec.one)
    assert right_divisor_search(mod, 1, budget=114) == [fq_poly(spec, [-1, 1])]
    with pytest.raises(BudgetExceededError) as refusal:
        right_divisor_search(mod, 1, budget=113)
    assert str(refusal.value) == (
        "1 divisors * (n - degree + 1)(degree + 1) = 114 division steps, over the budget of 113"
    )


def test_degree_n_minus_one_search_over_f_q_is_charged_for_its_divisors():
    """x^3 - 1 over F_{3^11} at degree 2: the cofactor of its one linear
    left factor, charged the 2 * 3 = 6 steps of its certificate, where the
    3^22 candidates of a screen would be refused. A budget of 5 is refused
    by that certificate, since no candidate is tried, and so is x^n - 1 for
    n = 10^12 before any cofactor of degree n - 1 is built."""
    spec = make_field(3, 11, [1, 0, 0, 2] + [0] * 7 + [1])
    mod = ModulusSpec(3, spec.one)
    assert right_divisor_search(mod, 2, budget=6) == [fq_poly(spec, [1, 1, 1])]
    with pytest.raises(BudgetExceededError) as refusal:
        right_divisor_search(mod, 2, budget=5)
    assert str(refusal.value) == (
        "1 divisors * (n - degree + 1)(degree + 1) = 6 division steps, over the budget of 5"
    )
    with pytest.raises(BudgetExceededError, match=r"^\d+ divisors \* \(n - degree \+ 1\)"):
        right_divisor_search(ModulusSpec(10 ** 12, spec.one), 10 ** 12 - 1)


def test_degree_one_search_over_r_is_charged_for_its_divisors(f3):
    """x^4 - 1 over R over F3 has 16 linear right divisors, whose component
    roots come in closed form: the search is charged their certificates,
    16 * 4 * 2 = 128 steps."""
    mod = ModulusSpec(4, RingElement.from_ints(f3, 1))
    assert len(right_divisor_search(mod, 1, budget=128)) == 16
    with pytest.raises(BudgetExceededError) as refusal:
        right_divisor_search(mod, 1, budget=127)
    assert str(refusal.value) == (
        "16 divisors * (n - degree + 1)(degree + 1) = 128 division steps, over the budget of 127"
    )


def test_divisor_search_over_r_is_charged_per_component(f9):
    """R over F9 at degree 2: four component screens, each charged for its
    81 candidates (n - 1) * 3 steps, then 3 * (n - 1) steps per certificate.
    x^6 - alpha with CRT view (3, 4, 5, 0) by element codes has one divisor
    of degree 2 per component: 4 * 81 * 15 + 1 * 15 = 4875 steps. x^4 - 1
    has 18 divisors per component, 18^4 = 104976 in all:
    4 * 81 * 9 + 104976 * 9 = 947700 steps, within the default budget, and
    refused at one less before any is built."""
    mod = ModulusSpec(6, RingElement.from_crt(f9, *map(f9.from_int, (3, 4, 5, 0))))
    found = right_divisor_search(mod, 2, budget=4875)
    assert len(found) == 1 and is_right_divisor(found[0], mod)
    with pytest.raises(BudgetExceededError) as refusal:
        right_divisor_search(mod, 2, budget=4874)
    assert str(refusal.value) == (
        "4860 + 1 divisors * (n - degree + 1)(degree + 1) = 4875 division steps, over the budget of 4874"
    )
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as refusal:
        right_divisor_search(ModulusSpec(4, RingElement.from_ints(f9, 1)), 2, budget=947699)
    assert time.perf_counter() - start < 1
    assert str(refusal.value) == (
        "2916 + 104976 divisors * (n - degree + 1)(degree + 1) = 947700 division steps, over the budget of 947699"
    )


def test_divisor_search_over_r_checks_budget_before_enumerating(f27, monkeypatch):
    import skewcodes.skewpoly as skewpoly

    calls = []
    divisors = skewpoly._monic_divisors
    monkeypatch.setattr(skewpoly, "_monic_divisors", lambda spec, found: calls.append(found) or divisors(spec, found))
    alpha = RingElement.from_ints(f27, 1)
    with pytest.raises(BudgetExceededError, match=r"^16 divisors \* \(n - degree \+ 1\)\(degree \+ 1\) = 128 "):
        right_divisor_search(ModulusSpec(4, alpha), 1, budget=10)
    assert calls == []


def test_divisor_search_budget_refusals_print_the_count(f3):
    """Candidates within the budget are charged in full; more candidates per
    component than the budget are written as a power, also under a budget
    of 2^9100, where 3^9050 candidates would print more than 4300 digits.
    The degrees are those still screened, below n - 1."""
    with pytest.raises(BudgetExceededError) as refusal:
        right_divisor_search(ModulusSpec(9012, f3.one), 2, budget=10)
    assert str(refusal.value) == (
        f"9 candidates * (n - degree + 1)(degree + 1) = {9 * 9011 * 3} division steps, over the budget of 10"
    )
    with pytest.raises(BudgetExceededError, match=r"^3\^9013 candidates per component exceed the budget of 20000000$"):
        right_divisor_search(ModulusSpec(9015, f3.one), 9013)
    with pytest.raises(BudgetExceededError, match=r"^3\^10000 candidates per component"):
        right_divisor_search(ModulusSpec(10002, RingElement.from_ints(f3, 1)), 10000)
    with pytest.raises(BudgetExceededError) as refusal:
        right_divisor_search(ModulusSpec(9100, f3.one), 9050, budget=2 ** 9100)
    assert str(refusal.value) == f"3^9050 candidates per component exceed the budget of {2 ** 9100}"


def test_divisor_search_above_degree_n_is_empty_whatever_the_budget(f3):
    for alpha in (f3.one, RingElement.from_ints(f3, 1)):
        assert right_divisor_search(ModulusSpec(2, alpha), 3, budget=1) == []
        with pytest.raises(BudgetExceededError):
            right_divisor_search(ModulusSpec(2, alpha), 2, budget=1)


def linear_right_divisors_by_norm(spec, n, alpha):
    """Every monic x + r over R that right-divides x^n - alpha, r in (a, b, c, d)
    code order, by brute force over all q^4 values of r.

    On right division by x - s, x^n leaves the remainder
    N_n(s) = theta^(n-1)(s) ... theta(s) s, so x - s right-divides x^n - alpha
    exactly when N_n(s) = alpha.
    """
    out = []
    for abcd in itertools.product(list(spec.elements()), repeat=4):
        r = RingElement(*abcd)
        norm = -r
        for _ in range(n - 1):
            norm = norm.frob(1) * -r
        if norm == alpha:
            out.append(r_poly(spec, [r, 1]))
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_divisor_search_over_r_matches_brute_force(p):
    spec = make_field(p, 1, [0, 1])
    for n in (2, 3, 4):
        for signs in itertools.product((1, -1), repeat=4):
            mod = ModulusSpec(n, RingElement.from_crt(spec, *signs))
            assert right_divisor_search(mod, 1) == linear_right_divisors_by_norm(spec, n, mod.alpha)


def test_random_right_divisor_over_r(f3, f9):
    rng = random.Random(11)
    for spec, lengths in ((f3, (2, 3, 4)), (make_field(5, 1, [0, 1]), (2, 3, 4)), (f9, (2, 3))):
        for n in lengths:
            for signs in ((1, 1, 1, 1), (1, -1, -1, 1), (-1, 1, -1, -1)):
                mod = ModulusSpec(n, RingElement.from_crt(spec, *signs))
                g = random_right_divisor(mod, rng, rng.randint(1, n))
                assert g.ring == "R" and g.is_monic
                assert is_right_divisor(g, mod)


def test_divisor_search_over_r_never_lists_r(monkeypatch):
    """The R search is one search per CRT component: four F_q screens at
    degree 2 of x^4 - alpha, and none at degree 1 or n - 1, where the
    roots and the cofactors of the left roots come in closed form."""
    import skewcodes.skewpoly as skewpoly

    screens = []
    batched = skewpoly._batched_divisor_codes
    monkeypatch.setattr(
        skewpoly, "_batched_divisor_codes",
        lambda spec, f, degree: screens.append(len(f)) or batched(spec, f, degree),
    )
    f5 = make_field(5, 1, [0, 1])
    constants = [f5.constant(c) for c in (1, 2, 3, 4)]
    # cubing is a bijection of F_5, so each x^3 - c has exactly one root rho,
    # and x^3 - c = (x^2 + rho x + rho^2)(x - rho)
    roots = [next(x for x in f5.elements() if x ** 3 == c) for c in constants]
    rho = RingElement.from_crt(f5, *roots)
    mod = ModulusSpec(3, RingElement.from_crt(f5, *constants))
    assert right_divisor_search(mod, 1) == [r_poly(f5, [-rho, 1])]
    assert screens == []
    assert right_divisor_search(mod, 2) == [r_poly(f5, [rho * rho, rho, 1])]
    assert screens == []
    # x^4 - 1 and x^4 + 1 = (x^2 + 2)(x^2 + 3) each have degree-2 divisors over F_5
    assert right_divisor_search(ModulusSpec(4, RingElement.from_crt(f5, 1, -1, -1, 1)), 2)
    # one screen per component, each of the 5 logarithms of x^4 - beta_i
    assert screens == [5] * 4


def test_divisor_search_is_sorted(f9):
    found = right_divisor_search(ModulusSpec(4, f9.one), 2)
    keys = [tuple(c.to_int() for c in g.coeffs) for g in found]
    assert keys == sorted(keys)


def test_coprime_length_divisors_are_commutative_factors(f9, f25):
    """When gcd(n, k) = 1 a skew right divisor divides commutatively too."""
    for spec, n in ((f9, 5), (f9, 7), (f25, 3)):
        assert math.gcd(n, spec.k) == 1
        mod = ModulusSpec(n, spec.one)
        for degree in (1, 2):
            for g in right_divisor_search(mod, degree):
                assert commutative_remainder(mod.poly(), g).is_zero


def test_random_right_divisor(f9, f25):
    rng = random.Random(31)
    for spec in (f9, f25):
        for n in (2, 3, 4, 5, 6):
            for sign in (1, -1):
                alpha = spec.constant(sign)
                mod = ModulusSpec(n, alpha)
                for _ in range(5):
                    g = random_right_divisor(mod, rng, rng.randint(0, n))
                    assert g.is_monic
                    assert is_right_divisor(g, mod)


# --- dual generator ---

def test_dual_generator_fixed_coeffs_is_reversal(f9):
    h = fq_poly(f9, [2, 1, 0, 1])
    for n in (3, 4):
        assert dual_generator(h, n) == fq_poly(f9, [1, 0, 1, 2])


def test_dual_generator_twists(f9):
    a = f9.root()
    h = fq_poly(f9, [1, a, 1])
    assert dual_generator(h, 2) == fq_poly(f9, [1, 2 * a, 1])
    # theta^(i - n): with n odd, coefficient 1 is twisted by theta^0
    assert dual_generator(h, 3) == fq_poly(f9, [1, a, 1])


def test_dual_generator_when_theta_order_does_not_divide_n(f9):
    """x - a = h * 1 over F9, n = 1: the whole space, whose dual is the zero
    code <x - a^-1> mod x - a^-1. Twisting coefficient i by theta^i gave
    x - theta(a)^-1, which does not right-divide x - a^-1."""
    a = f9.root()
    h = fq_poly(f9, [-a, 1])
    dual = dual_generator(h, 1).monic()
    assert dual == fq_poly(f9, [-a.inverse(), 1])
    assert is_right_divisor(dual, ModulusSpec(1, a.inverse()))


def test_dual_generator_zero_rejected(f9):
    with pytest.raises(ZeroPolynomialError):
        dual_generator(SkewPoly.zero(f9), 1)


def brute_force_dual_span(f, mod):
    words = span_words(f, mod)
    basis = nullspace(words, mod.n, f.spec)
    return Span(basis)


def test_dual_generator_matches_brute_force_f25(f25):
    mod = ModulusSpec(4, f25.one)
    f = fq_poly(f25, [2, 1])
    h, rem = right_divmod(mod.poly(), f)
    assert rem.is_zero
    hhat = dual_generator(h, mod.n)
    assert Span(span_words(hhat, mod)) == brute_force_dual_span(f, mod)


def test_dual_generator_matches_brute_force_f27(f27):
    """Order-3 twist separates iterated from single application of theta."""
    mod = ModulusSpec(6, f27.one)
    found = right_divisor_search(mod, 2)
    assert len(found) > 20
    for f in found:
        h, rem = right_divmod(mod.poly(), f)
        assert rem.is_zero
        hhat = dual_generator(h, mod.n)
        assert Span(span_words(hhat, mod)) == brute_force_dual_span(f, mod)


def test_dual_generator_orthogonality(f25):
    mod = ModulusSpec(4, f25.one)
    f = fq_poly(f25, [2, 1])
    h = right_divmod(mod.poly(), f)[0]
    hhat = dual_generator(h, mod.n)
    for x in generator_basis_words(f, mod):
        for y in generator_basis_words(hhat.monic(), mod):
            assert object_inner_product(x, y).is_zero


# --- module words ---

def reference_span_words(f, mod):
    """x^j * f by the twisted product, reduced by right division by
    x^n - alpha, j = 0..n-1."""
    x = SkewPoly(f.spec, f.ring, [f._zero_coeff(), f._one_coeff()])
    words, power = [], f
    for _ in range(mod.n):
        words.append(poly_to_word(right_divmod(power, mod.poly())[1], mod.n))
        power = x * power
    return words


@st.composite
def module_word_cases(draw):
    """(f, mod) over F_q or R: alpha = 0 and, over R, constants with a zero
    CRT component are frequent; deg f runs from 0 to n + 2, and f may be 0."""
    spec = make_field(*DIVISION_FIELDS[draw(st.sampled_from(sorted(DIVISION_FIELDS)))])
    ring = draw(st.sampled_from(("fq", "R")))
    n = draw(st.integers(1, 6))
    value = st.one_of(st.just(spec.zero), st.integers(0, spec.q - 1).map(spec.from_int))
    nonzero = st.integers(1, spec.q - 1).map(spec.from_int)
    if ring == "R":
        crt = lambda part: st.tuples(part, value, value, value).map(lambda c: RingElement.from_crt(spec, *c))
        value, nonzero = crt(value), crt(nonzero)
    degree = draw(st.integers(-1, n + 2))
    coeffs = [draw(value) for _ in range(degree)] + [draw(nonzero)] * (degree >= 0)
    return SkewPoly(spec, ring, coeffs), ModulusSpec(n, draw(value))


@settings(max_examples=300, deadline=None)
@given(module_word_cases())
def test_module_words_are_the_division_reference(case):
    """span_words walks the shift orbit of f's remainder; the division
    reference reduces each x^j * f. A basis is the head of the orbit:
    generator_basis_words, theta^j(f) shifted j places, is the reference
    head of the shift orbit, over F_q and over R, on every field of
    test_kernel (F81 with t = 2 among them), f = 0, deg f = 0, deg f = n
    and deg f > n included."""
    f, mod = case
    words = span_words(f, mod)
    assert words == reference_span_words(f, mod)
    expected = [] if f.is_zero else words[: max(mod.n - f.degree, 0)]
    assert generator_basis_words(f, mod) == expected == orbit_basis_words(f, mod)


@pytest.mark.parametrize("name", sorted(DIVISION_FIELDS))
def test_basis_words_at_the_edge_degrees(name):
    """deg f = 0 gives the n unit vectors scaled by theta^j(f_0), and
    deg f >= n and f = 0 give no word, over F_q and over R."""
    spec = make_field(*DIVISION_FIELDS[name])
    c = spec.exp[1]
    for n in (1, 2, 5):
        for ring, lift in (("fq", lambda x: x), ("R", RingElement.from_field)):
            mod = ModulusSpec(n, lift(-spec.one))
            zero = lift(spec.zero)
            constant = SkewPoly(spec, ring, [lift(c)])
            words = generator_basis_words(constant, mod)
            assert words == [(zero,) * j + (lift(c.frob(j)),) + (zero,) * (n - 1 - j) for j in range(n)]
            assert words == orbit_basis_words(constant, mod)
            for degree in (n, n + 1, n + 3):
                f = SkewPoly(spec, ring, [lift(c)] * (degree + 1))
                assert generator_basis_words(f, mod) == orbit_basis_words(f, mod) == []
            assert generator_basis_words(SkewPoly.zero(spec, ring), mod) == []


def test_module_words_refuse_mixed_rings(f9, f25):
    over_r = ModulusSpec(3, RingElement.from_ints(f9, 1, 0, 0, 0))
    cases = [
        (fq_poly(f9, [1, 1]), over_r),
        (fq_poly(f9, [1, 1]), ModulusSpec(3, f25.one)),
        (r_poly(f9, [1, 1]), ModulusSpec(3, f9.one)),
        (fq_poly(f9, [1, 0, 0, 1]), over_r),  # deg f = n: no basis word
        (SkewPoly.zero(f9), over_r),
    ]
    cases.append((fq_poly(f9, [1, 0, 0, 0, 1]), over_r))  # deg f > n
    for f, mod in cases:
        with pytest.raises(MixedRingsError):
            span_words(f, mod)
        with pytest.raises(MixedRingsError):
            generator_basis_words(f, mod)
        with pytest.raises(MixedRingsError):
            orbit_basis_words(f, mod)


# --- idempotents ---

def test_idempotent_trivial_cases(f9):
    mod = ModulusSpec(5, f9.one)
    assert idempotent_generator(fq_poly(f9, [1]), mod) == fq_poly(f9, [1])
    assert idempotent_generator(mod.poly(), mod).is_zero


def test_idempotent_x_minus_one(f9):
    mod = ModulusSpec(5, f9.one)
    f = fq_poly(f9, [-1, 1])
    e = idempotent_generator(f, mod)
    assert reduce_mod(e * e, mod) == e
    assert Span(span_words(e, mod)) == Span(span_words(f, mod))


def test_idempotent_hypotheses_enforced(f9, f27):
    # gcd(6, k=2) = 2
    with pytest.raises(HypothesisViolatedError):
        idempotent_generator(fq_poly(f9, [-1, 1]), ModulusSpec(6, f9.one))
    # gcd(3, q=9) = 3
    with pytest.raises(HypothesisViolatedError):
        idempotent_generator(fq_poly(f9, [-1, 1]), ModulusSpec(3, f9.one))
    with pytest.raises(NotADivisorError):
        idempotent_generator(fq_poly(f9, [1, 1]), ModulusSpec(5, f9.one))
    # gcd(2, k=3) = gcd(2, q=27) = 1, but x^2 is not squarefree: <x> has no idempotent
    with pytest.raises(HypothesisViolatedError):
        idempotent_generator(fq_poly(f27, [0, 1]), ModulusSpec(2, f27.zero))
    with pytest.raises(NotAUnitError):
        dual_idempotent(fq_poly(f9, [1]), ModulusSpec(5, f9.zero))


@pytest.mark.parametrize("alpha, constant", [(3, 6), (6, 3)])
def test_idempotent_refuses_when_theta_moves_alpha_and_the_check_fails(f9, alpha, constant):
    """Over F9 with n = 5, x + b right-divides x^5 - alpha for these alpha
    that theta moves, and the solve gives an e with e*e != e: the
    construction assumes theta(alpha) = alpha, so the request is outside
    the hypotheses (exit 2), not a fault (exit 1)."""
    mod = ModulusSpec(5, f9.from_int(alpha))
    f = fq_poly(f9, [f9.from_int(constant), 1])
    assert right_remainder(mod.poly(), f).is_zero and not is_theta_fixed(mod.alpha)
    with pytest.raises(HypothesisViolatedError, match=r"theta\(alpha\) != alpha .*not skew-idempotent"):
        idempotent_generator(f, mod)
    field = {"p": 3, "m": 2, "modulus": [1, 0, 1], "t": 1}
    request = {"field": field, "n": 5, "alpha": alpha, "f": {"ring": "fq", "coeffs": [constant, 1]}}
    rc, out = run_main(["idempotent", "--input", json.dumps(request)])
    assert rc == 2 and '"status":"input_error"' in out


def test_idempotents_for_all_coprime_divisors(f9, f25):
    for spec, n in ((f9, 5), (f25, 3)):
        mod = ModulusSpec(n, spec.one)
        for degree in (1, 2):
            for f in right_divisor_search(mod, degree):
                e = idempotent_generator(f, mod)
                assert reduce_mod(e * e, mod) == e


@pytest.mark.parametrize("wrong", ["another divisor's idempotent", "zero", "one"])
def test_idempotent_check_refuses_a_wrong_candidate(f49, monkeypatch, wrong):
    """The product that builds e from the solve is patched to hand back a
    wrong e for f, one of the three linear right divisors of x^3 - 1 over
    F49 (the square f f is left alone). Each candidate is idempotent and
    fails the module check: another divisor's idempotent fails both
    inclusions, 1 only the first (f*1 = f, but f does not right-divide 1)
    and 0 only the second (f right-divides 0, but f*0 = 0 is not f). The
    rank of the n span words tells the same: 2, 3 and 0, not n - deg f = 2
    for the first, whose span is not <f>."""
    import skewcodes.skewpoly as skewpoly

    mod = ModulusSpec(3, f49.one)
    f, other = right_divisor_search(mod, 1)[:2]
    e = {
        "another divisor's idempotent": idempotent_generator(other, mod),
        "zero": SkewPoly.zero(f49),
        "one": fq_poly(f49, [1]),
    }[wrong]
    assert reduce_mod(e * e, mod) == e
    divides, keeps_f = right_remainder(e, f).is_zero, reduce_mod(f * e, mod) == f
    expected = {"another divisor's idempotent": (False, False, 2), "zero": (True, False, 0), "one": (False, True, 3)}
    assert (divides, keeps_f, Span(span_words(e, mod)).dim) == expected[wrong]
    real = skewpoly.c_mul
    monkeypatch.setattr(skewpoly, "c_mul", lambda a, b: real(a, b) if a == b else e)
    with pytest.raises(VerificationError, match="idempotent generates a different submodule than f"):
        idempotent_generator(f, mod)


def test_idempotent_check_makes_one_rref_and_no_span(f9, f49, monkeypatch):
    """The one row reduction of an idempotent request is its solve's, inside
    linalg.nullspace: <e> = <f> is decided by two inclusions, and skewpoly
    has no rref name. No Span either, which only tests/reference.py defines
    (test_hygiene keeps the package from importing it)."""
    import skewcodes.linalg as linalg
    import skewcodes.skewpoly as skewpoly

    assert not hasattr(skewpoly, "rref") and not hasattr(skewpoly, "Span")
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda rows, *spec: calls.append("rref") or rref(rows, *spec))
    for spec, n in ((f9, 5), (f49, 3)):
        mod = ModulusSpec(n, spec.one)
        for f in right_divisor_search(mod, 1) + right_divisor_search(mod, 2):
            calls.clear()
            idempotent_generator(f, mod)
            assert calls == ["rref"]


@pytest.mark.parametrize("name, n", [("F3", 4), ("F9", 5), ("F27", 2), ("F49", 3)])
def test_idempotents_of_the_zero_and_the_whole_module(name, n):
    """f = x^n - alpha generates the zero module, with e = 0, and f = 1 the
    whole quotient, with e = 1, for every alpha, zero and theta-moved
    constants included; the dual idempotents are 1 and 0."""
    spec = make_field(*{"F3": (3, 1, [0, 1]), "F9": (3, 2, [1, 0, 1]), "F27": (3, 3, [1, 2, 0, 1]),
                        "F49": (7, 2, [3, 6, 1])}[name])
    one = fq_poly(spec, [1])
    for alpha in spec.elements():
        mod = ModulusSpec(n, alpha)
        assert idempotent_generator(mod.poly(), mod).is_zero
        assert idempotent_generator(one, mod) == one
        if alpha.is_unit and is_theta_fixed(alpha):
            assert dual_idempotent(SkewPoly.zero(spec), mod) == one
            assert dual_idempotent(one, mod).is_zero


def test_idempotent_assembles_over_R_with_mixed_constants(f9):
    """Component idempotents joined through the CRT stay idempotent over R."""
    signs = (1, 1, -1, -1)
    alpha = RingElement.from_crt(f9, *signs)
    gens = [fq_poly(f9, [-s, 1]) for s in signs]
    es = [
        idempotent_generator(g, ModulusSpec(5, f9.constant(s)))
        for g, s in zip(gens, signs)
    ]
    e = from_components(*es)
    f = from_components(*gens)
    mod = ModulusSpec(5, alpha)
    assert reduce_mod(e * e, mod) == e
    assert ModuleSpan(span_words(e, mod), f9) == ModuleSpan(span_words(f, mod), f9)


def test_dual_idempotent_generates_dual(f9):
    mod = ModulusSpec(5, f9.one)
    f = fq_poly(f9, [-1, 1])
    e = idempotent_generator(f, mod)
    de = dual_idempotent(e, mod)
    h = right_divmod(mod.poly(), f)[0]
    dual_span = Span(span_words(dual_generator(h, mod.n), mod))
    assert Span(span_words(de, mod)) == dual_span
    assert reduce_mod(de * de, mod) == reduce_mod(de, mod)


# --- component assembly ---

@pytest.mark.parametrize("place", range(4))
def test_from_components_refuses_mixed_rings_in_every_place(f9, f25, place):
    """An R-polynomial or a second field in any of the four places."""
    for bad in (r_poly(f9, [-1, 1]), fq_poly(f25, [-1, 1])):
        parts = [fq_poly(f9, [-1, 1])] * 4
        parts[place] = bad
        with pytest.raises(MixedRingsError, match="^components must be base-field polynomials over one field$"):
            from_components(*parts)


def test_from_components_collapse(f9):
    f = fq_poly(f9, [2, f9.root(), 1])
    assembled = from_components(f, f, f, f)
    assert assembled == r_poly(f9, list(f.coeffs))


def test_from_components_display_example_two(f9):
    a = f9.root()
    quartic = fq_poly(f9, [2, a, 0, 2 * a, 1])
    cubic = fq_poly(f9, [2, 1, f9.one + 2 * a, 1])
    assembled = from_components(quartic, quartic, quartic, cubic)
    one_minus_uv = RingElement.from_ints(f9, 1, 0, 0, -1)
    uv = RingElement.from_ints(f9, 0, 0, 0, 1)
    expected = SkewPoly(
        f9,
        "R",
        [
            one_minus_uv * RingElement.from_field(quartic.coeff(i))
            + uv * RingElement.from_field(cubic.coeff(i))
            for i in range(5)
        ],
    )
    assert assembled == expected


def test_from_components_display_example_three(f49):
    linear = fq_poly(f49, [1, 1])
    quad = fq_poly(f49, [1, 4, 1])
    assembled = from_components(linear, linear, linear, quad)
    one_minus_uv = RingElement.from_ints(f49, 1, 0, 0, -1)
    uv = RingElement.from_ints(f49, 0, 0, 0, 1)
    expected = SkewPoly(
        f49,
        "R",
        [
            one_minus_uv * RingElement.from_field(linear.coeff(i))
            + uv * RingElement.from_field(quad.coeff(i))
            for i in range(3)
        ],
    )
    assert assembled == expected


def test_component_round_trip(f9):
    rng = random.Random(8)
    for _ in range(50):
        fs = tuple(random_poly(f9, rng, 3) for _ in range(4))
        top = max((f.degree or 0) for f in fs)
        assembled = from_components(*fs)
        back = component_polys(assembled)
        assert back == fs or all(b == f for b, f in zip(back, fs))


def test_poly_word_round_trip(f9):
    f = fq_poly(f9, [1, 2, f9.root()])
    w = poly_to_word(f, 5)
    assert len(w) == 5
    assert SkewPoly(f9, "fq", w) == f
