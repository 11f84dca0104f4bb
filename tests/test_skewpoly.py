import math
import random

import pytest

from skewcodes.errors import (
    BudgetExceededError,
    DivisionByZeroPolyError,
    HypothesisViolatedError,
    MixedRingsError,
    NonUnitLeadingCoeffError,
    NotADivisorError,
    ZeroPolynomialError,
)
from skewcodes.gf import make_field
from skewcodes.linalg import Span, inner_product, nullspace
from skewcodes.ring4 import RingElement
from skewcodes.skewpoly import (
    ModulusSpec,
    SkewPoly,
    c_divmod,
    c_mul,
    component_polys,
    dual_generator,
    dual_idempotent,
    fq_poly,
    from_components,
    generator_basis_words,
    idempotent_generator,
    is_right_divisor,
    poly_to_word,
    r_poly,
    random_right_divisor,
    reduce_mod,
    right_divisor_search,
    right_divmod,
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


def test_divisor_search_f49(f49):
    found = right_divisor_search(ModulusSpec(4, -f49.one), 2)
    assert fq_poly(f49, [1, 3, 1]) in found
    assert fq_poly(f49, [1, 4, 1]) in found


def test_divisor_search_budget(f25):
    with pytest.raises(BudgetExceededError):
        right_divisor_search(ModulusSpec(4, f25.one), 3, budget=100)


def test_divisor_search_over_r_checks_budget_before_enumerating(f27, monkeypatch):
    def refuse(spec):
        raise AssertionError("ring elements listed before the budget check")

    monkeypatch.setattr("skewcodes.skewpoly.ring_elements", refuse)
    alpha = RingElement.from_ints(f27, 1)
    with pytest.raises(BudgetExceededError, match="531441 candidates"):
        right_divisor_search(ModulusSpec(4, alpha), 1, budget=10)


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
                assert c_divmod(mod.poly(), g)[1].is_zero


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
    assert dual_generator(h) == fq_poly(f9, [1, 0, 1, 2])


def test_dual_generator_twists(f9):
    a = f9.root()
    h = fq_poly(f9, [1, a, 1])
    assert dual_generator(h) == fq_poly(f9, [1, 2 * a, 1])


def test_dual_generator_zero_rejected(f9):
    with pytest.raises(ZeroPolynomialError):
        dual_generator(SkewPoly.zero(f9))


def brute_force_dual_span(f, mod):
    words = span_words(f, mod)
    basis = nullspace(words, mod.n, f.spec)
    return Span(basis, mod.n, f.spec)


def test_dual_generator_matches_brute_force_f25(f25):
    mod = ModulusSpec(4, f25.one)
    f = fq_poly(f25, [2, 1])
    h, rem = right_divmod(mod.poly(), f)
    assert rem.is_zero
    hhat = dual_generator(h)
    assert Span(span_words(hhat, mod), 4, f25) == brute_force_dual_span(f, mod)


def test_dual_generator_matches_brute_force_f27(f27):
    """Order-3 twist separates iterated from single application of theta."""
    mod = ModulusSpec(6, f27.one)
    found = right_divisor_search(mod, 2)
    assert len(found) > 20
    for f in found:
        h, rem = right_divmod(mod.poly(), f)
        assert rem.is_zero
        hhat = dual_generator(h)
        assert Span(span_words(hhat, mod), 6, f27) == brute_force_dual_span(f, mod)


def test_dual_generator_orthogonality(f25):
    mod = ModulusSpec(4, f25.one)
    f = fq_poly(f25, [2, 1])
    h = right_divmod(mod.poly(), f)[0]
    hhat = dual_generator(h)
    for x in generator_basis_words(f, mod):
        for y in generator_basis_words(hhat.monic(), mod):
            assert inner_product(x, y).is_zero


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
    assert Span(span_words(e, mod), 5, f9) == Span(span_words(f, mod), 5, f9)


def test_idempotent_hypotheses_enforced(f9):
    # gcd(6, k=2) = 2
    with pytest.raises(HypothesisViolatedError):
        idempotent_generator(fq_poly(f9, [-1, 1]), ModulusSpec(6, f9.one))
    # gcd(3, q=9) = 3
    with pytest.raises(HypothesisViolatedError):
        idempotent_generator(fq_poly(f9, [-1, 1]), ModulusSpec(3, f9.one))
    with pytest.raises(NotADivisorError):
        idempotent_generator(fq_poly(f9, [1, 1]), ModulusSpec(5, f9.one))


def test_idempotents_for_all_coprime_divisors(f9, f25):
    for spec, n in ((f9, 5), (f25, 3)):
        mod = ModulusSpec(n, spec.one)
        for degree in (1, 2):
            for f in right_divisor_search(mod, degree):
                e = idempotent_generator(f, mod)
                assert reduce_mod(e * e, mod) == e


def test_idempotent_assembles_over_R_with_mixed_constants(f9):
    """Component idempotents joined through the CRT stay idempotent over R."""
    from skewcodes.decomp import ModuleSpan

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
    assert ModuleSpan(span_words(e, mod), 5, f9) == ModuleSpan(span_words(f, mod), 5, f9)


def test_dual_idempotent_generates_dual(f9):
    mod = ModulusSpec(5, f9.one)
    f = fq_poly(f9, [-1, 1])
    e = idempotent_generator(f, mod)
    de = dual_idempotent(e, mod)
    h = right_divmod(mod.poly(), f)[0]
    dual_span = Span(span_words(dual_generator(h), mod), 5, f9)
    assert Span(span_words(de, mod), 5, f9) == dual_span
    assert reduce_mod(de * de, mod) == reduce_mod(de, mod)


# --- component assembly ---

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
    from skewcodes.skewpoly import word_to_poly

    assert word_to_poly(w, f9) == f
