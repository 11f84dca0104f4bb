import random

import pytest

from skewcodes.catalog import get_example
from skewcodes.codes import build_code, constacyclic_shift, dual_code
from skewcodes.decomp import (
    ModuleSpan,
    components_from_words,
    dual_hypothesis_note,
    extract_components,
    minimal_generator,
    verify_decomposition_theorem,
)
from skewcodes.errors import MixedRingsError, NotAUnitError, VerificationError
from skewcodes.linalg import Span, nullspace
from skewcodes.ring4 import RingElement, ring_one
from skewcodes.skewpoly import (
    ModulusSpec,
    fq_poly,
    random_right_divisor,
    span_words,
)


def example_code(num):
    ex = get_example(num)
    return build_code(ex["field"], ex["n"], ex["alpha"], ex["gens"])


def test_assemble_whole_and_zero(f9):
    alpha = RingElement.from_crt(f9, 1, 1, 1, 1)
    one = fq_poly(f9, [1])
    whole = build_code(f9, 3, alpha, [one] * 4)
    assert whole.cardinality == f9.q ** 12
    mod = ModulusSpec(3, f9.one).poly()
    zero = build_code(f9, 3, alpha, [mod] * 4)
    assert zero.cardinality == 1


def test_assemble_example_two_cardinality(f9):
    code = example_code(2)
    rebuilt = build_code(code.field, code.n, code.alpha, code.gens)
    assert rebuilt.cardinality == 9 ** (2 + 2 + 2 + 3)
    assert rebuilt.gens == code.gens


def test_quadruple_consistency_enforced(f9, f25):
    good = fq_poly(f9, [-1, 1])
    other_field = fq_poly(f25, [-1, 1])
    with pytest.raises(MixedRingsError):
        build_code(f9, 4, ring_one(f9), (good, good, good, other_field))


def test_extract_single_scaled_word(f9):
    u = RingElement.from_ints(f9, 0, 1, 0, 0)
    g = (f9.one, f9.constant(2), f9.zero)
    word = tuple(u * c for c in g)
    spans = extract_components([word])
    zero = (f9.zero,) * 3
    assert spans[0] == [zero]
    assert spans[1] == [g]
    assert spans[2] == [zero]
    assert spans[3] == [g]


def test_extract_empty(f9):
    spans = extract_components([])
    assert all(s == [] for s in spans)


@pytest.mark.parametrize("num", [1, 2, 3])
def test_round_trip_examples(num):
    code = example_code(num)
    back = components_from_words(code.basis_words(), code.n, code.alpha)
    assert back.gens == code.gens
    assert back.cardinality == code.cardinality


def test_module_span_membership(f9):
    code = example_code(2)
    span = ModuleSpan(code.basis_words(), code.n, f9)
    assert span.cardinality == code.cardinality
    for w in code.basis_words():
        assert span.contains(w)


def test_minimal_generator_rejects_non_module_span(f9):
    # a single word whose shifts leave its own line
    vec = (f9.one, f9.root(), f9.zero, f9.zero)
    with pytest.raises(VerificationError):
        minimal_generator([vec], 4, f9.one)


def test_verify_decomposition_on_examples():
    for num in (1, 2, 3):
        report = verify_decomposition_theorem(example_code(num))
        assert report.closed
        assert report.equivalence_holds
        assert all(v.closed and v.divisor_ok for v in report.components)


def test_verify_decomposition_pinpoints_corruption(f9):
    good = fq_poly(f9, [2, f9.root(), 0, 2 * f9.root(), 1])
    bad = fq_poly(f9, [1, 1, 1, 1])
    code = build_code(f9, 6, ring_one(f9), [good, bad, good, good], strict=False)
    report = verify_decomposition_theorem(code)
    assert not report.closed
    assert report.equivalence_holds
    flags = [v.closed for v in report.components]
    assert flags == [True, False, True, True]


def test_dual_constant_examples(f9, f49):
    assert ring_one(f9).inverse() == ring_one(f9)
    assert (-ring_one(f9)).inverse() == -ring_one(f9)
    alpha = RingElement.from_ints(f49, 1, 0, 0, -2)
    assert alpha.inverse() == alpha
    with pytest.raises(NotAUnitError):
        RingElement.from_ints(f9, 0, 1, 0, 0).inverse()


def test_dual_constant_components_are_inverses(f9):
    rng = random.Random(71)
    for _ in range(50):
        comps = [f9.random_element(rng) for _ in range(4)]
        if any(c.is_zero for c in comps):
            continue
        alpha = RingElement.from_crt(f9, *comps)
        inv = alpha.inverse()
        assert inv.crt() == tuple(c.inverse() for c in comps)


def test_dual_components_equal_component_duals(f9, f25):
    """Componentwise dual theorem on small random instances."""
    rng = random.Random(92)
    for spec, n in ((f9, 4), (f9, 6), (f25, 2), (f25, 4)):
        signs = [rng.choice((1, -1)) for _ in range(4)]
        alpha = RingElement.from_crt(spec, *signs)
        gens = [
            random_right_divisor(ModulusSpec(n, spec.constant(signs[i])), rng, rng.randint(0, n))
            for i in range(4)
        ]
        code = build_code(spec, n, alpha, gens)
        dual = dual_code(code)
        assert code.cardinality * dual.cardinality == spec.q ** (4 * n)
        for i in range(4):
            oracle = Span(
                nullspace(span_words(code.gens[i], code.modulus(i)), n, spec), n, spec
            )
            got = Span(span_words(dual.gens[i], dual.modulus(i)), n, spec)
            assert got == oracle


def test_dual_hypothesis_note(f9):
    code5 = build_code(f9, 5, ring_one(f9), [fq_poly(f9, [-1, 1])] * 4)
    assert dual_hypothesis_note(code5) is not None
    code4 = example_code(2)
    assert dual_hypothesis_note(code4) is None


def test_stated_length_seven_module_audit(f9):
    """The as-stated length-7 instance: component spans and untwisted closure."""
    ex = get_example(4)
    mod = ModulusSpec(ex["n"], ex["alpha"])
    words = span_words(ex["generator"], mod)
    span = ModuleSpan(words, ex["n"], f9)
    assert span.dims == (1, 1, 1, 7)
    for w in words:
        assert span.contains(constacyclic_shift(w, ex["alpha"]))
