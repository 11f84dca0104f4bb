import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    ModuleSpan,
    Span,
    constacyclic_shift,
    per_row_minimal_generator,
    random_right_divisor,
    spy_log_divisions,
)
from test_kernel import FIELDS

import skewcodes.decomp as decomp
import skewcodes.linalg as linalg
import skewcodes.skewpoly as skewpoly
from skewcodes.catalog import example_code, get_example
from skewcodes.codes import (
    SkewCode,
    build_code,
    cofactors,
    dual_code,
    is_closed_under,
    shift_closures,
)
from skewcodes.decomp import (
    components_from_words,
    dual_hypothesis_note,
    extract_components,
    minimal_generator,
    verify_decomposition_theorem,
)
from skewcodes.errors import (
    DEFAULT_BUDGET,
    LengthMismatchError,
    MixedRingsError,
    NotADivisorError,
    NotAUnitError,
    VerificationError,
)
from skewcodes.gf import FieldSpec, make_field
from skewcodes.linalg import nullspace, rref
from skewcodes.ring4 import RingElement, ring_one
from skewcodes.skewpoly import (
    ModulusSpec,
    SkewPoly,
    fq_poly,
    from_components,
    generator_basis_words,
    right_divmod,
    skew_constacyclic_shift,
    span_words,
)


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
    assert list(extract_components([])) == [[], [], [], []]


@pytest.mark.parametrize("num", [1, 2, 3])
def test_round_trip_examples(num):
    code = example_code(num)
    back = components_from_words(code.basis_words(), code.n, code.alpha)
    assert back.gens == code.gens
    assert back.cardinality == code.cardinality


def test_module_span_membership(f9):
    code = example_code(2)
    span = ModuleSpan(code.basis_words(), f9)
    assert span.cardinality == code.cardinality
    for w in code.basis_words():
        assert span.contains(w)


def test_minimal_generator_rejects_non_module_span(f9):
    # a single word whose shifts leave its own line
    vec = (f9.one, f9.root(), f9.zero, f9.zero)
    with pytest.raises(VerificationError):
        minimal_generator([vec], 4, f9.one)


def regenerated_generator(span_vectors, n, constant):
    """The minimal generator found by regenerating its module: the span of
    the n words x^j * g mod x^n - constant must be the given span. A
    reference for minimal_generator's counting argument."""
    mod = ModulusSpec(n, constant)
    target = Span(span_vectors)
    if target.dim == 0:
        gen = mod.poly()
    else:
        reversed_rows, _ = rref([tuple(reversed(v)) for v in target.rows])
        gen = SkewPoly(constant.spec, "fq", list(reversed(reversed_rows[-1]))).monic()
    if Span(span_words(gen, mod)) != target:
        raise VerificationError("spanning set is not the single-generator module of its minimal element")
    if not right_divmod(mod.poly(), gen)[1].is_zero:
        raise VerificationError(f"minimal generator {gen!r} does not right-divide x^{n} - {constant!r}")
    return gen


# F9 and F25, and the fields with m >= 3 and a twist 1 < t < m
SPAN_FIELDS = [(3, 2, [1, 0, 1], 1), (5, 2, [1, 1, 1], 1)] + [
    (p, m, mod, t) for p, m, mod, t in FIELDS.values() if m >= 3 and 1 < t < m
]


def random_word(spec, rng, n):
    return tuple(spec.from_int(rng.randrange(spec.q)) for _ in range(n))


def combinations_of(words, spec, rng, n, count):
    """`count` random F_q-combinations of the length-n words."""
    out = []
    for _ in range(count):
        coeffs = [spec.from_int(rng.randrange(spec.q)) for _ in words]
        out.append(tuple(sum((c * w[i] for c, w in zip(coeffs, words)), spec.zero) for i in range(n)))
    return out


@st.composite
def component_spans(draw):
    """(span vectors, n, constant): a module span, random words, the
    generator basis of a random monic polynomial (rarely a divisor), a
    divisor's basis with one word dropped, added or replaced, or the empty
    span."""
    spec = make_field(*draw(st.sampled_from(SPAN_FIELDS)))
    n = draw(st.integers(1, 6))
    constant = spec.from_int(draw(st.integers(0, spec.q - 1)))
    mod = ModulusSpec(n, constant)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["module", "words", "non-divisor", "dropped", "added", "replaced", "empty"]))
    if kind == "empty":
        return [], n, constant
    if kind == "words":
        return [random_word(spec, rng, n) for _ in range(rng.randint(1, n + 1))], n, constant
    if kind == "non-divisor":
        degree = rng.randrange(n)
        g = SkewPoly(spec, "fq", [spec.from_int(rng.randrange(spec.q)) for _ in range(degree)] + [spec.one])
        return generator_basis_words(g, mod), n, constant
    # a quadratic screen over F729 tries q^2 = 531441 candidates: peel linear factors only
    degree = rng.randint(0, n if spec.q < 729 else 1)
    basis = generator_basis_words(random_right_divisor(mod, rng, degree), mod)
    if kind == "module":
        return combinations_of(basis, spec, rng, n, len(basis) + rng.randint(0, 2)), n, constant
    if kind == "dropped" and basis:
        basis.pop(rng.randrange(len(basis)))
    elif kind == "replaced" and len(basis) > 1:
        # word j keeps its degree and lead, so the rank and the minimal
        # element stay: only a division by the generator can reject it
        j = rng.randrange(1, len(basis))
        d = n - len(basis) + j
        basis[j] = random_word(spec, rng, d) + basis[j][d:]
    else:
        basis.insert(rng.randrange(len(basis) + 1), random_word(spec, rng, n))
    return basis, n, constant


def outcome(find, vectors, n, constant):
    try:
        return find(vectors, n, constant)
    except VerificationError:
        return "rejected"


@settings(max_examples=150, deadline=None)
@given(component_spans())
def test_minimal_generator_matches_its_regeneration(args):
    assert outcome(minimal_generator, *args) == outcome(regenerated_generator, *args)


@settings(max_examples=150, deadline=None)
@given(component_spans())
def test_minimal_generator_matches_the_per_row_check(args):
    """Reading each echelon row's remainder off its low coefficients and
    one residue row decides as summing every remainder did: the same
    generator or the same refusal, on module spans, random words,
    non-divisor bases and altered bases."""
    assert outcome(minimal_generator, *args) == outcome(per_row_minimal_generator, *args)


def test_the_round_trip_of_random_codes_matches_the_per_row_check():
    """Every component of a random code over F9, F25 and F27, and the
    same spans with one basis word dropped, added or altered."""
    rng = random.Random(38)
    rejected = 0
    for params in SPAN_FIELDS[:2] + [(3, 3, [1, 2, 0, 1], 1)]:
        spec = make_field(*params)
        for n in range(1, 7):
            for _ in range(4):
                betas = [rng.choice((spec.one, -spec.one, spec.random_element(rng))) for _ in range(4)]
                gens = [random_right_divisor(ModulusSpec(n, b), rng, rng.randint(0, n)) for b in betas]
                code = build_code(spec, n, RingElement.from_crt(spec, *betas), gens)
                for i, span in enumerate(extract_components(code.basis_words())):
                    assert minimal_generator(span, n, betas[i]) == gens[i] == per_row_minimal_generator(span, n, betas[i])
                    nonzero = [v for v in span if any(not c.is_zero for c in v)]
                    altered = nonzero[:-1] + [random_word(spec, rng, n)] if nonzero else [random_word(spec, rng, n)]
                    for vectors in (nonzero[1:], nonzero + [random_word(spec, rng, n)], altered):
                        got = outcome(minimal_generator, vectors, n, betas[i])
                        assert got == outcome(per_row_minimal_generator, vectors, n, betas[i])
                        rejected += got == "rejected"
    assert rejected


def test_vectors_of_another_length_are_refused_before_the_elimination(monkeypatch, f9):
    """minimal_generator and components_from_words refuse a vector whose
    length is not n, or vectors of mixed lengths, with no elimination."""
    def refuse(rows):
        raise AssertionError("eliminated")

    monkeypatch.setattr(decomp, "rref", refuse)
    rng = random.Random(3)
    three = [random_word(f9, rng, 3) for _ in range(2)]
    for n, vectors in ((2, three), (4, three), (3, three + [random_word(f9, rng, 2)]), (3, [(f9.one,) * 4])):
        with pytest.raises(LengthMismatchError):
            minimal_generator(vectors, n, f9.one)
        words = [tuple(RingElement.from_field(c) for c in v) for v in vectors]
        with pytest.raises(LengthMismatchError):
            components_from_words(words, n, ring_one(f9))


def test_words_over_another_field_are_refused_before_the_elimination(monkeypatch, f9, f25):
    """minimal_generator and components_from_words refuse vectors and words
    over another field than the constant's with MixedRingsError, a zero
    vector of that field included, with no elimination; vectors over a
    separately built but equal field give the interned field's generator."""
    code = build_code(f25, 3, ring_one(f25), [fq_poly(f25, [-1, 1])] * 4)
    words = code.basis_words()
    vectors = extract_components(words)[0]
    eliminated = []
    original = decomp.rref
    monkeypatch.setattr(decomp, "rref", lambda rows, spec: eliminated.append(rows) or original(rows, spec))
    cases = [
        (components_from_words, words),
        (minimal_generator, vectors),
        (minimal_generator, [(f25.zero,) * 3]),
        (minimal_generator, [(f9.one, f9.zero, f9.zero), (f9.one, f25.zero, f9.one)]),
    ]
    for fn, given in cases:
        with pytest.raises(MixedRingsError):
            fn(given, 3, ring_one(f9) if fn is components_from_words else f9.one)
    assert eliminated == []
    separate = FieldSpec(3, 2, [1, 0, 1], 1)
    mod = ModulusSpec(4, f9.one)
    basis = generator_basis_words(fq_poly(f9, [-1, 1]), mod)
    moved = [tuple(separate.from_int(c.code) for c in v) for v in basis]
    assert minimal_generator(moved, 4, f9.one) == minimal_generator(basis, 4, f9.one) == fq_poly(f9, [-1, 1])


def test_minimal_generator_makes_one_elimination(monkeypatch, f9, f25):
    eliminations = []
    original = linalg.rref
    counted = lambda rows, spec=None: eliminations.append(1) or original(rows, spec)
    monkeypatch.setattr(linalg, "rref", counted)
    monkeypatch.setattr(decomp, "rref", counted)

    def refuse(*args):
        raise AssertionError("module regenerated")

    for module in (skewpoly, decomp):
        for name in ("span_words", "reduce_mod"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    rng = random.Random(5)
    cases = [([], 3, f9.one), ([(f9.one, f9.root(), f9.zero, f9.zero)], 4, f9.one)]
    for spec, n in ((f9, 4), (f25, 6), (f9, 6)):
        mod = ModulusSpec(n, -spec.one)
        cases.append((generator_basis_words(random_right_divisor(mod, rng, n), mod), n, -spec.one))
    verdicts = []
    for vectors, n, constant in cases:
        eliminations.clear()
        verdicts.append(outcome(minimal_generator, vectors, n, constant) != "rejected")
        assert len(eliminations) == 1
    assert verdicts == [True, False, True, True, True]


def test_zero_span_vectors_are_dropped_before_the_elimination(monkeypatch, f9, f25):
    """The other components' zero words, interleaved with a span or making
    all of it, reach no elimination and change no generator; a zero vector
    of another length is still refused first."""
    eliminated = []
    original = decomp.rref
    monkeypatch.setattr(decomp, "rref", lambda rows, spec: eliminated.append(rows) or original(rows, spec))
    rng = random.Random(47)
    for spec, n in ((f9, 4), (f25, 6), (f9, 6)):
        mod = ModulusSpec(n, -spec.one)
        gen = random_right_divisor(mod, rng, n)
        vectors = list(generator_basis_words(gen, mod))
        interleaved = list(vectors)
        for _ in range(5):
            interleaved.insert(rng.randrange(len(interleaved) + 1), (spec.zero,) * n)
        eliminated.clear()
        assert minimal_generator(interleaved, n, -spec.one) == minimal_generator(vectors, n, -spec.one) == gen
        assert eliminated[0] == eliminated[1] == [[spec.log[c.code] for c in v[::-1]] for v in vectors]
        eliminated.clear()
        assert minimal_generator([(spec.zero,) * n] * 3, n, -spec.one) == mod.poly()
        assert eliminated == [[]]
        with pytest.raises(LengthMismatchError):
            minimal_generator(vectors + [(spec.zero,) * (n + 1)], n, -spec.one)
        assert len(eliminated) == 1


def test_minimal_generator_makes_no_division(monkeypatch, f9, f25):
    """Its remainders, of x^n - beta and of every echelon row, are read off
    the generator's residues."""
    divisions = spy_log_divisions(monkeypatch)
    rng = random.Random(11)
    for spec, n in ((f9, 4), (f25, 6), (f9, 6), (f25, 1)):
        for sign in (1, -1):
            mod = ModulusSpec(n, spec.constant(sign))
            gen = random_right_divisor(mod, rng, n)
            vectors = span_words(gen, mod)
            divisions.clear()
            assert minimal_generator(vectors, n, spec.constant(sign)) == gen
            assert not divisions


def test_module_words_make_no_division(monkeypatch, capsys, f9, f25):
    """span_words and generator_basis_words walk the shift orbit of one
    remainder, so neither do example 4 and the ret1 suite, which list the
    words of the length-7 module."""
    from skewcodes.cli import SUITES, main

    divisions = spy_log_divisions(monkeypatch)
    rng = random.Random(5)
    for spec, n in ((f9, 4), (f25, 6)):
        mod = ModulusSpec(n, spec.constant(-1))
        gen = random_right_divisor(mod, rng, n)
        long = SkewPoly(spec, "fq", [spec.random_element(rng) for _ in range(n + 3)])
        divisions.clear()
        assert len(span_words(long, mod)) == n
        assert len(generator_basis_words(gen, mod)) == n - gen.degree
        assert not divisions
    assert main(["example", "4"]) == 0
    capsys.readouterr()
    assert SUITES["ret1"](0, DEFAULT_BUDGET)["pass"]
    assert not divisions


def test_twenty_decomposition_runs_make_at_most_108_divisions(monkeypatch):
    """Seeds 0-19 of the decomposition suite divide no polynomial. The
    divisions left are random_right_divisor's, one on logarithm lists per
    factor it peels, whose quotient is the next cofactor; at most 108 of
    them are by degree-2 factors. Building and verifying a code reads its
    remainders off its residue rows."""
    from skewcodes.cli import SUITES

    divisions = spy_log_divisions(monkeypatch)
    for seed in range(20):
        assert SUITES["decomposition"](seed, DEFAULT_BUDGET)["pass"]
    assert list(divisions) == ["random_right_divisor"]
    assert 0 < sum(len(g[0]) == 3 for _, g in divisions["random_right_divisor"]) <= 108


def test_verify_decomposition_on_examples():
    for num in (1, 2, 3):
        report = verify_decomposition_theorem(example_code(num))
        assert report.closed
        assert report.equivalence_holds
        assert report.components == (True, True, True, True)


def test_verify_decomposition_pinpoints_corruption(f9):
    good = fq_poly(f9, [2, f9.root(), 0, 2 * f9.root(), 1])
    bad = fq_poly(f9, [1, 1, 1, 1])
    code = SkewCode(f9, 6, ring_one(f9), (good, bad, good, good))
    report = verify_decomposition_theorem(code)
    assert not report.closed
    assert report.equivalence_holds
    assert report.components == (True, False, True, True)


def test_tau_closure_of_a_corrupted_code_is_its_certificate(f9):
    """A code built without build_code computes its remainders on first
    use: component 2 of the corrupted code does not divide x^6 - 1, so tau
    agrees with the full per-word check, and no cofactors exist."""
    good = fq_poly(f9, [2, f9.root(), 0, 2 * f9.root(), 1])
    bad = fq_poly(f9, [1, 1, 1, 1])
    code = SkewCode(f9, 6, ring_one(f9), (good, bad, good, good))
    full = is_closed_under(code, lambda w: skew_constacyclic_shift(w, code.alpha))
    assert shift_closures(code)[0] is full is False
    assert [rem.is_zero for rem in code.remainders] == [True, False, True, True]
    with pytest.raises(NotADivisorError) as refusal:
        cofactors(code)
    assert refusal.value.component == 2


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
            oracle = Span(nullspace(span_words(code.gens[i], code.modulus(i)), n, spec))
            got = Span(span_words(dual.gens[i], dual.modulus(i)))
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
    span = ModuleSpan(words, f9)
    assert span.dims == (1, 1, 1, 7)
    for w in words:
        assert span.contains(constacyclic_shift(w, ex["alpha"]))


@st.composite
def coprime_length_generators(draw):
    """(n, alpha, gen) over a field of test_kernel, gcd(n, k) = 1: an
    R-polynomial whose component i, scaled by a nonzero constant,
    right-divides x^n - beta_i. beta_i = 0 is allowed (a non-unit alpha, as
    in example 4); the monic right divisors of x^n are the powers of x."""
    spec = make_field(*FIELDS[draw(st.sampled_from(sorted(FIELDS)))])
    n = draw(st.integers(1, 5).filter(lambda n: math.gcd(n, spec.k) == 1))
    betas = [spec.from_int(draw(st.integers(0, spec.q - 1))) for _ in range(4)]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    comps = []
    for beta in betas:
        degree = draw(st.integers(0, n))
        if beta.is_zero:
            g = SkewPoly(spec, "fq", [spec.zero] * degree + [spec.one])
        else:
            g = random_right_divisor(ModulusSpec(n, beta), rng, degree)
        comps.append(g.scale_left(spec.from_int(draw(st.integers(1, spec.q - 1)))))
    return n, RingElement.from_crt(spec, *betas), from_components(*comps)


@settings(max_examples=40, deadline=None)
@given(coprime_length_generators())
def test_module_of_a_generator_matches_the_module_span_reference(args):
    """The CLI reads the length-7 module of example 4 as a code: its
    dimensions, and its untwisted closure from shift_closures (rho_1 at
    gcd(n, k) = 1), agree with the row-reduced ModuleSpan of its words."""
    n, alpha, gen = args
    words = span_words(gen, ModulusSpec(n, alpha))
    code = components_from_words(words, n, alpha)
    span = ModuleSpan(words, alpha.spec)
    _, l, closed = shift_closures(code)
    assert code.dims == span.dims
    assert l == 1
    assert closed == all(span.contains(constacyclic_shift(w, alpha)) for w in words)
