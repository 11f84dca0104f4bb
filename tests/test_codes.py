import random

import pytest

from skewcodes.catalog import get_example
from skewcodes.codes import (
    SkewCode,
    blockwise_constacyclic_shift,
    blockwise_cyclic_shift,
    build_code,
    constacyclic_shift,
    dual_code,
    is_closed_under,
    is_self_dual,
    power_scale_poly,
    power_scale_word,
    quasi_twist_shift,
    self_dual_constant_check,
    self_dual_constant_list,
    self_dual_report,
    skew_constacyclic_shift,
    skew_cyclic_shift,
)
from skewcodes.errors import (
    BadIndexError,
    BudgetExceededError,
    EvenLengthError,
    HypothesisViolatedError,
    LengthMismatchError,
    NotADivisorError,
    NotAUnitError,
)
from skewcodes.gf import make_field
from skewcodes.linalg import Span, inner_product, nullspace
from skewcodes.ring4 import RingElement, random_ring_element, ring_one, ring_zero
from skewcodes.skewpoly import (
    ModulusSpec,
    fq_poly,
    random_right_divisor,
    right_divisor_search,
    right_divmod,
    span_words,
)


def example_code(num):
    ex = get_example(num)
    return build_code(ex["field"], ex["n"], ex["alpha"], ex["gens"])


# --- building ---

def test_build_example_one(f25):
    code = example_code(1)
    assert code.dims == (3, 3, 3, 3)
    assert code.cardinality == 25 ** 12
    assert code.warnings == ()


def test_build_example_three(f49):
    code = example_code(3)
    assert code.dims == (3, 3, 3, 2)
    assert code.component_constants[3] == -f49.one


def test_build_whole_space(f9):
    one = fq_poly(f9, [1])
    code = build_code(f9, 3, ring_one(f9), [one] * 4)
    assert code.cardinality == f9.q ** 12


def test_build_rejects_non_divisor(f9):
    bad = fq_poly(f9, [1, 1, 1, 1])
    good = fq_poly(f9, [2, f9.root(), 0, 2 * f9.root(), 1])
    with pytest.raises(NotADivisorError) as err:
        build_code(f9, 6, ring_one(f9), [good, bad, good, good])
    assert err.value.component == 2


def test_build_non_strict_collects_warning(f9):
    bad = fq_poly(f9, [1, 1, 1, 1])
    good = fq_poly(f9, [2, f9.root(), 0, 2 * f9.root(), 1])
    code = build_code(f9, 6, ring_one(f9), [good, bad, good, good], strict=False)
    assert code.component_ok == (True, False, True, True)
    assert any("component 2" in w for w in code.warnings)


def test_build_warns_on_non_unit_constant(f9):
    # x - 1 right-divides x^7 - beta for every CRT component of this constant
    stated = RingElement.from_ints(f9, 1, 0, -2, -2)
    gens = []
    for comp in stated.crt():
        gens.append(fq_poly(f9, [-comp, 1]) if not comp.is_zero else fq_poly(f9, [0, 1]))
    code = build_code(f9, 7, stated, gens)
    assert any("not a unit" in w for w in code.warnings)


def test_build_rejects_non_monic(f9):
    with pytest.raises(ValueError):
        build_code(f9, 4, ring_one(f9), [fq_poly(f9, [1, 2])] * 4)


# --- membership ---

def test_membership_examples(f25):
    code = example_code(1)
    zero_word = tuple(ring_zero(f25) for _ in range(4))
    assert code.contains(zero_word)
    gen_word = tuple(
        RingElement.from_field(c) for c in (f25.root() + 1, f25.one, f25.zero, f25.zero)
    )
    assert code.contains(gen_word)
    corrupted = (gen_word[0] + 1,) + gen_word[1:]
    assert not code.contains(corrupted)
    with pytest.raises(LengthMismatchError):
        code.contains(zero_word[:3])


def test_membership_of_all_basis_words(f9):
    code = example_code(2)
    for w in code.basis_words():
        assert code.contains(w)


# --- shifts ---

def test_tau_one_equals_sigma(f9):
    rng = random.Random(4)
    for _ in range(100):
        w = tuple(random_ring_element(f9, rng) for _ in range(5))
        assert skew_constacyclic_shift(w, ring_one(f9)) == skew_cyclic_shift(w)


def test_sigma_example_f9(f9):
    a = f9.root()
    w = (a, f9.one, f9.zero)
    assert skew_cyclic_shift(w) == (f9.zero, 2 * a, f9.one)


def test_omega_is_blockwise_tau(f25):
    rng = random.Random(6)
    alpha = -f25.one
    for _ in range(50):
        blocks = [tuple(f25.random_element(rng) for _ in range(4)) for _ in range(4)]
        flat = tuple(c for b in blocks for c in b)
        shifted = blockwise_constacyclic_shift(flat, 4, alpha)
        expected = tuple(
            c for b in blocks for c in skew_constacyclic_shift(b, alpha)
        )
        assert shifted == expected


def test_quasi_twist_rotates_by_block(f9):
    w = tuple(f9.constant(i) for i in (1, 2, 0, 1))
    alpha = -f9.one
    assert quasi_twist_shift(w, alpha, 2) == (
        -f9.zero, -f9.one, f9.one, f9.constant(2)
    )
    with pytest.raises(BadIndexError):
        quasi_twist_shift(w, alpha, 3)


def test_blockwise_shift_needs_dividing_block_count(f9):
    rng = random.Random(14)
    w = tuple(random_ring_element(f9, rng) for _ in range(4))
    with pytest.raises(BadIndexError):
        blockwise_cyclic_shift(w, 3)


# --- closure ---

def test_every_valid_code_is_tau_closed(f9, f25, f49):
    for num in (1, 2, 3):
        code = example_code(num)
        assert is_closed_under(code, lambda w: skew_constacyclic_shift(w, code.alpha))


def test_untwisted_closure_when_gcd_is_one(f9):
    # gcd(5, 2) = 1: the skew cyclic code is plainly cyclic
    code = build_code(f9, 5, ring_one(f9), [fq_poly(f9, [-1, 1])] * 4)
    assert is_closed_under(code, lambda w: constacyclic_shift(w, code.alpha))


def test_quasi_twist_closure_index_two(f49):
    # gcd(4, 2) = 2
    code = example_code(3)
    assert is_closed_under(code, lambda w: quasi_twist_shift(w, code.alpha, 2))
    code1 = example_code(1)
    assert is_closed_under(code1, lambda w: quasi_twist_shift(w, code1.alpha, 2))


def test_closure_check_is_refused_over_the_budget(f3, monkeypatch):
    """sum(dims) * 4n is charged before the first membership test."""
    def no_membership_test(self, word):
        raise AssertionError("membership tested before the budget check")

    monkeypatch.setattr(SkewCode, "contains", no_membership_test)
    n = 5000  # four x - 1 generators: 4 * 4999 basis words
    code = SkewCode(f3, n, ring_one(f3), (fq_poly(f3, [-1, 1]),) * 4)
    with pytest.raises(BudgetExceededError, match=r"^closure check needs 19996 basis words \* 4n = 399920000 steps"):
        is_closed_under(code, lambda w: skew_constacyclic_shift(w, code.alpha))
    small = SkewCode(f3, 5, ring_one(f3), (fq_poly(f3, [-1, 1]),) * 4)  # 16 * 20 = 320 steps
    with pytest.raises(BudgetExceededError):
        is_closed_under(small, lambda w: skew_constacyclic_shift(w, small.alpha), budget=319)
    with pytest.raises(AssertionError, match="membership tested"):
        is_closed_under(small, lambda w: skew_constacyclic_shift(w, small.alpha), budget=320)


# --- duals ---

def test_dual_of_whole_space_is_zero_code(f9):
    one = fq_poly(f9, [1])
    code = build_code(f9, 3, ring_one(f9), [one] * 4)
    dual = dual_code(code)
    assert dual.cardinality == 1
    assert dual.dims == (0, 0, 0, 0)


def test_dual_example_one(f25):
    code = example_code(1)
    dual = dual_code(code)
    assert dual.dims == (1, 1, 1, 1)
    assert dual.cardinality == 25 ** 4  # q^(sum deg f_i)
    assert code.cardinality * dual.cardinality == 25 ** 16
    for x in code.basis_words():
        for y in dual.basis_words():
            assert inner_product(x, y).is_zero


def test_dual_cardinality_identity_all_examples():
    for num in (1, 2, 3):
        code = example_code(num)
        dual = dual_code(code)
        q, n = code.field.q, code.n
        assert code.cardinality * dual.cardinality == q ** (4 * n)
        assert dual.cardinality == q ** sum(f.degree for f in code.gens)


def test_dual_matches_classical_component_oracle(f9):
    """hhat-generated duals against nullspace duals, random codes, n <= 4."""
    rng = random.Random(60)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            signs = [rng.choice((1, -1)) for _ in range(4)]
            alpha = RingElement.from_crt(f9, *signs)
            gens = [
                random_right_divisor(ModulusSpec(n, f9.constant(signs[i])), rng, rng.randint(0, n))
                for i in range(4)
            ]
            code = build_code(f9, n, alpha, gens)
            dual = dual_code(code)
            for i in range(4):
                oracle = Span(
                    nullspace(span_words(code.gens[i], code.modulus(i)), n, f9), n, f9
                )
                got = Span(span_words(dual.gens[i], dual.modulus(i)), n, f9)
                assert got == oracle


def test_dual_requires_unit_constant(f9):
    stated = RingElement.from_ints(f9, 1, 0, -2, -2)
    gens = []
    for comp in stated.crt():
        gens.append(fq_poly(f9, [-comp, 1]) if not comp.is_zero else fq_poly(f9, [0, 1]))
    code = build_code(f9, 7, stated, gens)
    with pytest.raises(NotAUnitError):
        dual_code(code)


# --- self-duality ---

def test_whole_space_not_self_dual(f9):
    one = fq_poly(f9, [1])
    code = build_code(f9, 4, ring_one(f9), [one] * 4)
    assert not is_self_dual(code)


def test_example_three_self_duality_evidence(f49):
    code = example_code(3)
    report = self_dual_report(code)
    assert not report.verdict
    assert report.dims == (3, 3, 3, 2)
    assert report.half_length == 2


def test_constructed_self_dual_code(f9):
    # x - a right-divides x^2 - 1 over F_9 (norm a * a^3 = a^4 = 1 for a of
    # order dividing 4) and (x - a) . (x - a) = a^2 + 1 = 0
    a = f9.root()
    gen = fq_poly(f9, [-a, 1])
    assert right_divmod(ModulusSpec(2, f9.one).poly(), gen)[1].is_zero
    code = build_code(f9, 2, ring_one(f9), [gen] * 4)
    report = self_dual_report(code)
    assert report.verdict
    dual = dual_code(code)
    assert dual.cardinality == code.cardinality
    for w in dual.basis_words():
        assert code.contains(w)


def test_self_dual_constant_check(f9, f49):
    assert self_dual_constant_check(ring_one(f9))
    assert self_dual_constant_check(RingElement.from_ints(f49, 1, 0, 0, -2))
    assert not self_dual_constant_check(RingElement.from_field(f9.root()))
    with pytest.raises(NotAUnitError):
        self_dual_constant_check(RingElement.from_ints(f9, 0, 1, 0, 0))


def test_constant_list_is_exactly_pm_one_crt(f9):
    from itertools import product

    listed = {tuple(c.to_int() for c in alpha.crt()) for alpha in self_dual_constant_list(f9)}
    expected = {
        tuple((f9.constant(s)).to_int() for s in signs)
        for signs in product((1, -1), repeat=4)
    }
    assert listed == expected
    assert len(self_dual_constant_list(f9)) == 16


# --- equivalence maps ---

def test_power_scale_identity_for_one(f9):
    rng = random.Random(3)
    w = tuple(random_ring_element(f9, rng) for _ in range(5))
    assert power_scale_word(w, ring_one(f9)) == w


def test_power_scale_example():
    f7 = make_field(7, 1, [3, 1], 1)
    w = (f7.one, f7.one, f7.one)
    assert power_scale_word(w, -f7.one) == (f7.one, -f7.one, f7.one)


def test_power_scale_poly_carries_divisors(f9):
    minus_one = -f9.one
    mod_cyc = ModulusSpec(3, f9.one)
    mod_neg = ModulusSpec(3, minus_one)
    for f in right_divisor_search(mod_cyc, 1):
        image = power_scale_poly(f, minus_one, 3).monic()
        assert right_divmod(mod_neg.poly(), image)[1].is_zero
        # the image module is closed under the skew constacyclic shift
        span = Span(span_words(image, mod_neg), 3, f9)
        for w in span_words(image, mod_neg):
            assert span.contains(skew_constacyclic_shift(w, minus_one))


def test_power_scale_poly_hypotheses(f9):
    f = fq_poly(f9, [1, 1])
    with pytest.raises(EvenLengthError):
        power_scale_poly(f, -f9.one, 4)
    with pytest.raises(HypothesisViolatedError):
        power_scale_poly(f, f9.root(), 3)
