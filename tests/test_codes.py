import copy
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    EvenLengthError,
    Span,
    constacyclic_shift,
    per_word_closure,
    power_scale_poly,
    power_scale_word,
    random_right_divisor,
    random_ring_element,
    ring_elements,
    self_dual_constant_list,
)
from test_kernel import FIELDS as KERNEL_FIELDS

from skewcodes.catalog import example_code
from skewcodes.codes import (
    SkewCode,
    build_code,
    dual_code,
    is_closed_under,
    is_self_dual,
    self_dual_constant_check,
    self_dual_report,
)
from skewcodes.errors import (
    BadIndexError,
    BudgetExceededError,
    HypothesisViolatedError,
    InconsistentError,
    LengthMismatchError,
    MixedRingsError,
    NotADivisorError,
    NotAUnitError,
)
from skewcodes.gf import FieldSpec, make_field
from skewcodes.linalg import inner_product, nullspace
from skewcodes.ring4 import RingElement, ring_one, ring_zero
from skewcodes.skewpoly import (
    ModulusSpec,
    SkewPoly,
    blockwise_constacyclic_shift,
    fq_poly,
    quasi_twist_shift,
    right_divisor_search,
    right_divmod,
    right_remainder,
    skew_constacyclic_shift,
    span_words,
)


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


def test_membership_refuses_entries_that_are_not_ring_elements_over_the_field(f9, f25):
    """Checked before any component is read, so an all-zero word over
    another field is refused too, not taken for a member."""
    code = example_code(2)
    assert code.field == f9
    zero = ring_zero(f9)
    for entry in (f9.zero, f9.one, 0, 1, ring_zero(f25)):
        word = (entry,) + (zero,) * (code.n - 1)
        with pytest.raises(MixedRingsError, match="^word entries must be ring elements over the code field$"):
            code.contains(word)
    with pytest.raises(MixedRingsError):
        code.contains((ring_zero(f25),) * code.n)
    assert code.contains((zero,) * code.n)


def test_a_separately_built_equal_field_is_the_code_field(f9, f25):
    """Fields are interned, so a field check is `is`: FieldSpec built apart
    from make_field with the code's parameters is the code field, and is
    accepted in words and generators, with the verdicts of the code field's
    own elements."""
    code = example_code(2)
    separate = FieldSpec(3, 2, [1, 0, 1], 1)
    assert separate is f9
    moved = lambda x: separate.from_int(x.code)
    verdicts = set()
    for word in code.basis_words() + [skew_constacyclic_shift(w, -ring_one(f9)) for w in code.basis_words()]:
        apart = tuple(RingElement.from_crt(separate, *map(moved, c.crt())) for c in word)
        verdicts.add(code.contains(apart))
        assert code.contains(apart) == code.contains(word)
    assert verdicts == {True, False}
    gens = [SkewPoly(separate, "fq", map(moved, g.coeffs)) for g in code.gens]
    assert SkewCode(f9, code.n, code.alpha, tuple(gens)).remainders == code.remainders
    with pytest.raises(MixedRingsError):
        SkewCode(f9, code.n, code.alpha, (SkewPoly(f25, "fq", [f25.one]),) * 4)


def test_a_code_built_directly_is_checked_as_build_code_checks(f9, f25):
    """SkewCode itself refuses other than four generators, a length below 1
    and a shift constant that is not a ring element of the code field, in
    that order, with build_code's errors: three generators once gave dims
    (3, 3, 3), and basis_words() an IndexError."""
    g, one = fq_poly(f9, [-1, 1]), ring_one(f9)
    four = "^a code needs exactly four component generators$"
    positive = "^code length must be positive$"
    shift = "^shift constant must be a ring element over the code field$"
    cases = [
        ((f9, 4, one, (g,) * 3), InconsistentError, four),
        ((f9, 4, one, (g,) * 5), InconsistentError, four),
        ((f9, 0, ring_one(f25), (g,) * 3), InconsistentError, four),
        ((f9, 0, one, (g,) * 4), LengthMismatchError, positive),
        ((f9, 0, ring_one(f25), (g,) * 4), LengthMismatchError, positive),
        ((f9, 4, ring_one(f25), (g,) * 4), MixedRingsError, shift),
        ((f9, 4, f9.one, (g,) * 4), MixedRingsError, shift),
        ((f9, 4, ring_one(f25), (fq_poly(f25, [-1, 1]),) * 4), MixedRingsError, shift),
    ]
    for args, error, message in cases:
        for build in (SkewCode, build_code):
            with pytest.raises(error, match=message):
                build(*args)
    assert SkewCode(f9, 4, one, (g,) * 4).dims == build_code(f9, 4, one, [g] * 4).dims == (3, 3, 3, 3)


def test_copied_and_unpickled_codes_hold_the_one_field(f9):
    """A copy of a code, its cached words included or not yet built, is
    over the code field itself, and its basis words are members of the
    original code."""
    fresh = build_code(f9, 4, ring_one(f9), [fq_poly(f9, [-1, 1])] * 4)
    for code in (example_code(2), fresh):
        words = code.basis_words()
        for copy_of in (copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))):
            copied = copy_of(code)
            assert copied.field is code.field and copied.alpha.spec is code.field
            assert all(g.spec is code.field for g in copied.gens)
            assert copied.basis_words() == words and all(map(code.contains, copied.basis_words()))
            assert all(map(copied.contains, words))


def test_a_generator_longer_than_the_code_is_refused(f9):
    """Built directly, not through build_code: deg g_1 = 4 > n = 3 would
    give component 1 the dimension -1."""
    one = fq_poly(f9, [1])
    with pytest.raises(LengthMismatchError, match="generator degree 4 exceeds length 3"):
        SkewCode(f9, 3, ring_one(f9), (fq_poly(f9, [1, 0, 0, 0, 1]), one, one, one))


@pytest.mark.parametrize("coeffs", [[], [1, 2], [0, 0, 2]])
def test_a_zero_or_non_monic_generator_is_refused(f9, coeffs):
    """Built directly, a zero generator gets build_code's refusal, not a
    TypeError from comparing its degree None with n; so does a non-monic
    one. build_code gives the same message."""
    one = fq_poly(f9, [1])
    gens = (fq_poly(f9, coeffs), one, one, one)
    with pytest.raises(ValueError, match="is not monic"):
        SkewCode(f9, 3, ring_one(f9), gens)
    with pytest.raises(ValueError, match="is not monic"):
        build_code(f9, 3, ring_one(f9), gens)


@pytest.mark.parametrize("component", [1, 2, 3, 4])
def test_a_generator_that_is_not_monic_names_its_component(f9, component):
    one = fq_poly(f9, [1])
    gens = [one] * 4
    gens[component - 1] = fq_poly(f9, [1, 2])
    with pytest.raises(ValueError, match=f"^component {component}: generator 2\\*x \\+ 1 is not monic$"):
        SkewCode(f9, 3, ring_one(f9), tuple(gens))
    gens[component - 1] = fq_poly(f9, [])
    with pytest.raises(ValueError, match=f"^component {component}: generator 0 is not monic$"):
        build_code(f9, 3, ring_one(f9), gens)


def test_membership_of_all_basis_words(f9):
    code = example_code(2)
    for w in code.basis_words():
        assert code.contains(w)


def test_basis_words_are_lifted_once_per_code(monkeypatch):
    """The decomposition suite reads basis_words() and then checks closure
    on the same words: each is lifted to an R-word once."""
    code = example_code(2)
    lifts = []
    lift = SkewCode.lift
    monkeypatch.setattr(SkewCode, "lift", lambda self, i, w: lifts.append(i) or lift(self, i, w))
    words = code.basis_words()
    assert len(words) == sum(code.dims) == len(lifts)
    assert is_closed_under(code, lambda w: skew_constacyclic_shift(w, code.alpha))
    assert len(lifts) == sum(code.dims)
    words.pop()
    assert code.basis_words() is not words
    assert len(code.basis_words()) == sum(code.dims)


def test_residue_rows_are_kept_per_code(f9, monkeypatch):
    """contains builds the rows x^D mod g_i once per code, and two codes of
    the same length with different generators keep their own."""
    import skewcodes.codes

    built = []
    residues = skewcodes.codes.residues
    monkeypatch.setattr(skewcodes.codes, "residues", lambda g: built.append(g) or residues(g))
    alpha = ring_one(f9)
    one, x_minus_one = fq_poly(f9, [1]), fq_poly(f9, [-1, 1])
    x_plus_one = fq_poly(f9, [1, 1])
    first = SkewCode(f9, 4, alpha, (x_minus_one, one, one, one))
    second = SkewCode(f9, 4, alpha, (x_plus_one, one, one, one))
    word = tuple(RingElement.from_field(f9.constant(c)) for c in (-1, 1, 0, 0))  # x - 1
    assert first.contains(word) and first.contains(word)
    assert not second.contains(word)
    assert len(built) == 8


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(KERNEL_FIELDS)), st.integers(1, 6), st.integers(0, 2 ** 32))
def test_remainders_are_the_right_remainders_of_the_moduli(name, n, seed):
    """r_i, read off the last row of residue_rows, is
    right_remainder(x^n - beta_i, g_i) on monic g_i of degree 0, n and two
    drawn degrees, most of them no divisor, with beta_i = 0, 1 and drawn
    constants, over fields with m from 1 to 6 and twists 1 and 2."""
    spec = make_field(*KERNEL_FIELDS[name])
    rng = random.Random(seed)
    degrees = [0, n, rng.randint(0, n), rng.randint(0, n)]
    betas = [spec.zero, spec.one, spec.random_element(rng), rng.choice((spec.zero, spec.random_element(rng)))]
    rng.shuffle(betas)
    code = SkewCode(spec, n, RingElement.from_crt(spec, *betas), tuple(random_monic(spec, rng, d) for d in degrees))
    assert code.remainders == tuple(right_remainder(code.modulus(i).poly(), g) for i, g in enumerate(code.gens))


# --- shifts ---

def test_sigma_example_f9(f9):
    """sigma, the skew cyclic shift, is tau with the constant 1."""
    a = f9.root()
    w = (a, f9.one, f9.zero)
    assert skew_constacyclic_shift(w, f9.one) == (f9.zero, 2 * a, f9.one)


def test_omega_is_blockwise_tau(f25):
    rng = random.Random(6)
    alpha = -f25.one
    for _ in range(50):
        blocks = [tuple(f25.random_element(rng) for _ in range(4)) for _ in range(4)]
        flat = tuple(c for b in blocks for c in b)
        shifted = blockwise_constacyclic_shift(flat, (alpha,) * 4)
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
        blockwise_constacyclic_shift(w, (ring_one(f9),) * 3)
    with pytest.raises(BadIndexError):
        blockwise_constacyclic_shift(w, ())


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


def random_monic(spec, rng, degree):
    return SkewPoly(spec, "fq", [spec.from_int(rng.randrange(spec.q)) for _ in range(degree)] + [spec.one])


def closure_cases(rng):
    """Codes over F9, F25 and F27 (t = 1), n = 1..6, whose CRT constants are
    1, -1, a random element or 0: valid codes from random divisors, and the
    same with one generator replaced by a random monic polynomial, rarely
    a divisor (a corrupted code, built without build_code)."""
    for spec in (make_field(3, 2, [1, 0, 1]), make_field(5, 2, [1, 1, 1]), make_field(3, 3, [1, 2, 0, 1])):
        for n in range(1, 7):
            for _ in range(3):
                betas = [rng.choice((spec.one, -spec.one, spec.random_element(rng), spec.zero)) for _ in range(4)]
                alpha = RingElement.from_crt(spec, *betas)
                gens = [random_right_divisor(ModulusSpec(n, b), rng, rng.randint(0, n)) for b in betas]
                yield build_code(spec, n, alpha, gens)
                gens[rng.randrange(4)] = random_monic(spec, rng, rng.randint(0, n - 1))
                yield SkewCode(spec, n, alpha, tuple(gens))


def test_closure_is_the_per_word_check():
    """is_closed_under, which tests only the images that are not the next
    basis word, against testing every image, under tau, rho_l (l = gcd(n,
    k)) and the untwisted constacyclic shift, on valid and corrupted
    codes; each shift finds closed and open codes."""
    rng = random.Random(38)
    verdicts = {"tau": set(), "rho": set(), "untwisted": set()}
    for code in closure_cases(rng):
        shifts = {
            "tau": lambda w: skew_constacyclic_shift(w, code.alpha),
            "rho": lambda w: quasi_twist_shift(w, code.alpha, math.gcd(code.n, code.field.k)),
            "untwisted": lambda w: constacyclic_shift(w, code.alpha),
        }
        for name, shift in shifts.items():
            closed = is_closed_under(code, shift)
            assert closed == per_word_closure(code, shift)
            verdicts[name].add(closed)
    assert all(found == {True, False} for found in verdicts.values())


def test_a_tau_closed_code_tests_one_word_per_nonzero_component(monkeypatch):
    """Word j + 1 of a component is the shift of word j, so only the last
    word of each nonzero component is tested for membership."""
    calls = []
    contains = SkewCode.contains
    monkeypatch.setattr(SkewCode, "contains", lambda self, word: calls.append(word) or contains(self, word))
    rng = random.Random(7)
    tested = 0
    for code in itertools.islice(closure_cases(rng), 0, None, 2):
        calls.clear()
        assert is_closed_under(code, lambda w: skew_constacyclic_shift(w, code.alpha))
        assert len(calls) <= sum(1 for k in code.dims if k)
        tested += len(calls)
    assert tested


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
                oracle = Span(nullspace(span_words(code.gens[i], code.modulus(i)), n, f9))
                got = Span(span_words(dual.gens[i], dual.modulus(i)))
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


def test_self_dual_constant_check_is_membership_in_the_list(f9, f49):
    """The +-1 test on the CRT components against the sixteen constants
    written out in tests/reference.py: every unit of R over F9, and over
    F49 every unit of F49 in each CRT place with +-1 in the others."""
    f49_units = [
        RingElement.from_crt(f49, *signs[:place], c, *signs[place:])
        for place in range(4)
        for signs in itertools.product((1, -1), repeat=3)
        for c in f49.elements() if not c.is_zero
    ]
    checked = 0
    for spec, units in ((f9, [a for a in ring_elements(f9) if a.is_unit]), (f49, f49_units)):
        listed = set(self_dual_constant_list(spec))
        for alpha in units:
            assert self_dual_constant_check(alpha) == (alpha in listed), alpha
            checked += 1
    assert checked == 8 ** 4 + 4 * 8 * 48


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
        span = Span(span_words(image, mod_neg))
        for w in span_words(image, mod_neg):
            assert span.contains(skew_constacyclic_shift(w, minus_one))


def test_power_scale_poly_hypotheses(f9):
    f = fq_poly(f9, [1, 1])
    with pytest.raises(EvenLengthError):
        power_scale_poly(f, -f9.one, 4)
    with pytest.raises(HypothesisViolatedError):
        power_scale_poly(f, f9.root(), 3)
