"""Acceptance criteria for the package, one test per criterion.

Each test prints a [PASS]/[FAIL] line (run pytest -s to see them inline) and
asserts the criterion at its stated tolerance; every check is exact integer
or field arithmetic. Criterion 8b's divisibility clause asserts the stated
claim literally; the computed remainder is nonzero, so that single test is
expected to fail, with the evidence printed.
"""

import math
import random
import time

import pytest
from reference import ModuleSpan, Span, constacyclic_shift, hamming_weight

from skewcodes.catalog import example_code, get_example
from skewcodes.codes import (
    build_code,
    dual_code,
    is_closed_under,
    self_dual_report,
)
from skewcodes.decomp import components_from_words
from skewcodes.distance import min_distance
from skewcodes.errors import NotADivisorError
from skewcodes.gf import make_field
from skewcodes.gray import (
    check_commutation,
    gray_image_code,
    permuted_sigma4,
    tau_omega4,
)
from skewcodes.linalg import inner_product, nullspace
from skewcodes.ring4 import RingElement, ring_one
from skewcodes.skewpoly import (
    ModulusSpec,
    dual_generator,
    dual_idempotent,
    fq_poly,
    idempotent_generator,
    is_right_divisor,
    quasi_twist_shift,
    random_right_divisor,
    reduce_mod,
    right_divisor_search,
    right_divmod,
    skew_constacyclic_shift,
    span_words,
)

F25 = make_field(5, 2, [1, 1, 1], 1)
F9 = make_field(3, 2, [1, 0, 1], 1)
F49 = make_field(7, 2, [3, 6, 1], 1)
F27 = make_field(3, 3, [1, 2, 0, 1], 1)


def emit(number, passed, detail, elapsed):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {number}: {detail} ({elapsed:.2f}s)")


def test_criterion_1_length16_image():
    start = time.perf_counter()
    code = example_code(1)
    image = gray_image_code(code)
    dist = min_distance(image.rows, F25)
    elapsed = time.perf_counter() - start
    ok = (
        image.length == 16
        and image.dimension == 12
        and dist.exact == 2
        and dist.candidates_swept == 16 * 24
        and hamming_weight(dist.witness) == 2
        and Span(image.rows).contains(dist.witness)
        and elapsed < 10.0
    )
    emit(1, ok, f"[16,12,2] over F_25; {dist.candidates_swept} weight-1 candidates swept", elapsed)
    assert image.length == 16 and image.dimension == 12
    assert dist.exact == 2
    assert dist.candidates_swept == 384
    assert hamming_weight(dist.witness) == 2
    assert Span(image.rows).contains(dist.witness)
    assert elapsed < 10.0


def test_criterion_2_length24_image():
    start = time.perf_counter()
    code = example_code(2)
    image = gray_image_code(code)
    dist = min_distance(image.rows, F9)
    elapsed = time.perf_counter() - start
    expected_sweep = sum(math.comb(24, w) * 8 ** w for w in (1, 2, 3))
    ok = (
        image.length == 24
        and image.dimension == 9
        and dist.exact == 4
        and dist.candidates_swept == expected_sweep
        and hamming_weight(dist.witness) == 4
        and Span(image.rows).contains(dist.witness)
        and elapsed < 60.0
    )
    emit(2, ok, f"[24,9,4] over F_9; {dist.candidates_swept} candidates of weight <= 3 swept", elapsed)
    assert image.length == 24 and image.dimension == 9
    assert dist.exact == 4
    assert dist.candidates_swept == expected_sweep == 1054144
    assert hamming_weight(dist.witness) == 4
    assert Span(image.rows).contains(dist.witness)
    assert elapsed < 60.0


def test_criterion_3_factorization_identities():
    start = time.perf_counter()
    a25, a9 = F25.root(), F9.root()
    x4m1_f25 = fq_poly(F25, [-1, 0, 0, 0, 1])
    lin = lambda spec, c: fq_poly(spec, [c, 1])
    identities = [
        (lin(F25, 2) * lin(F25, 3) * lin(F25, a25) * lin(F25, a25 + 1), x4m1_f25),
        (lin(F25, 2) * lin(F25, 3) * lin(F25, a25 + 1) * lin(F25, a25), x4m1_f25),
        (
            fq_poly(F9, [2, 1, F9.one + 2 * a9, 1]) * fq_poly(F9, [1, 1, 2 * a9 + 2, 1]),
            fq_poly(F9, [-1, 0, 0, 0, 0, 0, 1]),
        ),
        (
            fq_poly(F9, [2, a9, 0, 2 * a9, 1]) * fq_poly(F9, [1, a9, 1]),
            fq_poly(F9, [-1, 0, 0, 0, 0, 0, 1]),
        ),
        (
            fq_poly(F49, [1, 3, 1]) * fq_poly(F49, [1, 4, 1]),
            fq_poly(F49, [1, 0, 0, 0, 1]),
        ),
    ]
    results = [lhs == rhs for lhs, rhs in identities]
    elapsed = time.perf_counter() - start
    ok = all(results) and elapsed < 1.0
    emit(3, ok, f"5 skew factorization identities bit-exact ({sum(results)}/5)", elapsed)
    assert all(results)
    assert elapsed < 1.0


def test_criterion_4_operator_identities():
    start = time.perf_counter()
    runs = []
    for spec in (F9, F25):
        alphas = [
            ring_one(spec),
            -ring_one(spec),
            RingElement.from_ints(spec, 1, 0, 0, -2),
        ]
        for n in (3, 4, 6):
            runs.append(check_commutation(*tau_omega4(ring_one(spec)), spec, n) is None)
            for alpha in alphas:
                runs.append(check_commutation(*tau_omega4(alpha), spec, n) is None)
    runs.append(check_commutation(*permuted_sigma4(F27), F27, 5) is None)
    elapsed = time.perf_counter() - start
    ok = all(runs) and elapsed < 10.0
    emit(4, ok, f"{len(runs)} operator identities proved on an F_p-basis of R^n", elapsed)
    assert all(runs)
    assert elapsed < 10.0


def test_criterion_5_decomposition_round_trips():
    start = time.perf_counter()
    rng = random.Random(20250051)
    fields = (F9, F25)
    built = 0
    while built < 50:
        spec = fields[built % 2]
        n = rng.randint(2, 6)
        signs = [rng.choice((1, -1)) for _ in range(4)]
        alpha = RingElement.from_crt(spec, *signs)
        gens = [
            random_right_divisor(
                ModulusSpec(n, spec.constant(signs[i])), rng, rng.randint(0, n)
            )
            for i in range(4)
        ]
        if all(g.degree == 0 for g in gens):
            continue  # need a corruptible component
        code = build_code(spec, n, alpha, gens)
        back = components_from_words(code.basis_words(), n, alpha)
        assert back.gens == code.gens
        assert back.cardinality == code.cardinality
        assert is_closed_under(code, lambda w: skew_constacyclic_shift(w, alpha))

        target = rng.choice([i for i in range(4) if gens[i].degree >= 1])
        corrupted = None
        for c in range(1, spec.q):
            cand = gens[target] + fq_poly(spec, [spec.from_int(c)])
            if not is_right_divisor(cand, ModulusSpec(n, spec.constant(signs[target]))):
                corrupted = cand
                break
        assert corrupted is not None
        bad_gens = list(gens)
        bad_gens[target] = corrupted
        with pytest.raises(NotADivisorError) as err:
            build_code(spec, n, alpha, bad_gens)
        assert err.value.component == target + 1
        built += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    emit(5, ok, f"{built} random quadruples: round trip, closure, corruption pinpointed", elapsed)
    assert elapsed < 60.0


def test_criterion_6_dual_contract():
    start = time.perf_counter()
    for num in (1, 2, 3):
        code = example_code(num)
        dual = dual_code(code)
        q, n = code.field.q, code.n
        assert code.cardinality * dual.cardinality == q ** (4 * n)
        for x in code.basis_words():
            for y in dual.basis_words():
                assert inner_product(x, y).is_zero

    checked = 0
    for n in (1, 2, 3, 4):
        for sign in (1, -1):
            alpha = F9.constant(sign)
            mod = ModulusSpec(n, alpha)
            for degree in range(n + 1):
                for f in right_divisor_search(mod, degree):
                    h, rem = right_divmod(mod.poly(), f)
                    assert rem.is_zero
                    if h.is_zero:
                        continue
                    oracle = Span(nullspace(span_words(f, mod), n, F9))
                    got = Span(span_words(dual_generator(h, n), mod))
                    assert got == oracle
                    checked += 1
    elapsed = time.perf_counter() - start
    emit(
        6,
        True,
        f"examples: |C||C-dual| = q^4n and orthogonality; {checked} oracle matches at q=9",
        elapsed,
    )


def test_criterion_7_idempotent_generator():
    start = time.perf_counter()
    mod = ModulusSpec(5, F9.one)
    f = fq_poly(F9, [-1, 1])
    e = idempotent_generator(f, mod)
    assert reduce_mod(e * e, mod) == e
    span_e = Span(span_words(e, mod))
    span_f = Span(span_words(f, mod))
    assert span_e.dim == span_f.dim  # equal cardinality q^dim
    assert span_e == span_f  # mutual membership

    de = dual_idempotent(e, mod)
    h = right_divmod(mod.poly(), f)[0]
    dual_span = Span(span_words(dual_generator(h, mod.n), mod))
    got = Span(span_words(de, mod))
    assert got.dim == dual_span.dim
    assert got == dual_span
    oracle = Span(nullspace(span_words(f, mod), 5, F9))
    assert got == oracle
    elapsed = time.perf_counter() - start
    emit(7, True, "idempotent for <x - 1> at n=5 over F_9, plus its dual idempotent", elapsed)


def test_criterion_8a_f49_audit():
    start = time.perf_counter()
    code = example_code(3)
    tau_closed = is_closed_under(code, lambda w: skew_constacyclic_shift(w, code.alpha))
    qt_closed = is_closed_under(code, lambda w: quasi_twist_shift(w, code.alpha, math.gcd(4, F49.k)))
    report = self_dual_report(code)
    elapsed = time.perf_counter() - start
    ok = tau_closed and qt_closed and not report.verdict and report.dims == (3, 3, 3, 2)
    emit(
        "8a",
        ok and elapsed < 10.0,
        "constacyclic and index-2 quasi-twist closures pass;"
        f" self-dual verdict {report.verdict} with dims {report.dims}"
        " (claimed self-dual: reported as discrepancy)",
        elapsed,
    )
    assert tau_closed
    assert qt_closed
    # the claim is self-dual; the computed verdict with evidence says otherwise
    assert report.verdict is False
    assert report.dims == (3, 3, 3, 2)
    assert elapsed < 10.0


def test_criterion_8b_unit_check_and_closure():
    start = time.perf_counter()
    ex = get_example(4)
    alpha = ex["alpha"]
    assert not alpha.is_unit
    assert alpha.crt_ints() == (1, 1, 2, 0)

    assert math.gcd(ex["n"], F9.k) == 1
    mod = ModulusSpec(ex["n"], ex["alpha"])
    words = span_words(ex["generator"], mod)
    span = ModuleSpan(words, F9)
    closed = all(span.contains(constacyclic_shift(w, ex["alpha"])) for w in words)
    elapsed = time.perf_counter() - start
    emit(
        "8b",
        closed and elapsed < 10.0,
        f"unit check reports non-unit crt={list(alpha.crt_ints())};"
        f" untwisted closure evaluated: {closed} (component dims {list(span.dims)})",
        elapsed,
    )
    assert closed
    assert elapsed < 10.0


def test_criterion_8b_divisibility_as_stated():
    """Literal divisibility claim for the stated length-7 constant.

    The computed remainder is 2uv, so this assertion fails; the generator
    right-divides x^7 - (1 - 2v) instead. Kept as stated deliberately: an
    honest red result with the evidence printed.
    """
    start = time.perf_counter()
    ex = get_example(4)
    mod = ModulusSpec(ex["n"], ex["alpha"])
    remainder = right_divmod(mod.poly(), ex["generator"])[1]
    divides = remainder.is_zero
    divides_working = is_right_divisor(ex["generator"], ModulusSpec(ex["n"], ex["working_constant"]))
    elapsed = time.perf_counter() - start
    emit(
        "8b-divisibility",
        divides,
        f"stated right-divisibility computes to {divides}"
        f" (remainder {remainder!r}; divides x^7 - (1 - 2v): {divides_working})",
        elapsed,
    )
    assert divides, (
        "the stated generator leaves remainder "
        f"{remainder!r} modulo x^7 - (1 - 2v - 2uv); it right-divides "
        "x^7 - (1 - 2v) instead"
    )
