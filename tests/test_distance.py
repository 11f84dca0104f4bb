import random

import pytest

from skewcodes.catalog import get_example
from skewcodes.codes import build_code
from skewcodes.distance import field_tables, min_distance
from skewcodes.errors import BudgetExceededError
from skewcodes.gf import make_field
from skewcodes.gray import gray_image_code, hamming_weight
from skewcodes.linalg import Span


def random_rows(spec, rng, k, n):
    return [tuple(spec.random_element(rng) for _ in range(n)) for _ in range(k)]


def test_tables_are_exact(f9):
    # the element-by-element loop is the reference for the vectorized build;
    # F81 has the twist t = 2, F7 is a prime field
    f81, f7 = make_field(3, 4, [2, 0, 0, 1, 1], 2), make_field(7, 1, [0, 1])
    f243 = make_field(3, 5, [1, 2, 0, 0, 0, 1])
    for spec in (f9, f81, f7, f243):
        add, mul = field_tables(spec)
        for i in range(spec.q):
            for j in range(spec.q):
                assert add[i, j] == (spec.from_int(i) + spec.from_int(j)).to_int()
                assert mul[i, j] == (spec.from_int(i) * spec.from_int(j)).to_int()


def test_tables_are_bounded_by_the_budget(f25):
    with pytest.raises(BudgetExceededError):
        field_tables(f25, budget=25 ** 2 - 1)
    add, mul = field_tables(f25, budget=25 ** 2)
    assert add.shape == mul.shape == (25, 25)


def test_distance_refuses_tables_over_the_budget(f25):
    rng = random.Random(2)
    rows = random_rows(f25, rng, 1, 4)  # 25 messages, within the budget
    with pytest.raises(BudgetExceededError):
        min_distance(rows, f25, budget=600)


def test_zero_code_distance_undefined(f9):
    res = min_distance([tuple(f9.zero for _ in range(4))], f9)
    assert not res.defined
    assert res.exact is None


def test_whole_space_distance_one(f9):
    rows = [
        tuple(f9.one if i == j else f9.zero for j in range(3)) for i in range(3)
    ]
    res = min_distance(rows, f9)
    assert res.exact == 1


def test_enumeration_and_sweep_agree(f9, f25):
    """The two exact paths are independent; they must agree on small codes."""
    rng = random.Random(404)
    for spec in (f9, f25):
        for _ in range(15):
            n = rng.randint(4, 8)
            k = rng.randint(1, 3)
            rows = random_rows(spec, rng, k, n)
            if Span(rows, n, spec).dim == 0:
                continue
            by_enum = min_distance(rows, spec, budget=10**6)
            # force the sweep path by denying the enumeration cap
            by_sweep = _sweep_only(rows, spec)
            assert hamming_weight(by_enum.witness) == by_enum.exact
            if by_sweep.exact is not None:
                assert by_enum.exact == by_sweep.exact
                assert hamming_weight(by_sweep.witness) == by_sweep.exact
            else:
                lo, hi = by_sweep.bounds
                assert lo <= by_enum.exact <= hi


def _sweep_only(rows, spec):
    from skewcodes import distance

    original = distance.ENUM_CAP
    distance.ENUM_CAP = 0
    try:
        return distance.min_distance(rows, spec)
    finally:
        distance.ENUM_CAP = original


def test_witness_is_a_codeword(f9):
    rng = random.Random(5)
    rows = random_rows(f9, rng, 2, 6)
    res = min_distance(rows, f9)
    span = Span(rows, 6, f9)
    assert span.contains(res.witness)


def test_budget_exhaustion_returns_bounds(f25):
    code = build_code(
        get_example(1)["field"],
        get_example(1)["n"],
        get_example(1)["alpha"],
        get_example(1)["gens"],
    )
    rows = gray_image_code(code).rows
    res = min_distance(rows, code.field, budget=10)
    assert res.exact is None
    assert res.bounds == (1, 2)


def test_example_one_distance_certificate(f25):
    ex = get_example(1)
    code = build_code(ex["field"], ex["n"], ex["alpha"], ex["gens"])
    rows = gray_image_code(code).rows
    res = min_distance(rows, ex["field"])
    assert res.exact == 2
    assert res.method == "sweep-certified"
    assert res.candidates_swept == 16 * 24  # all weight-1 candidates
    assert hamming_weight(res.witness) == 2


def test_counter_counts_all_lower_weights(f9):
    ex = get_example(2)
    code = build_code(ex["field"], ex["n"], ex["alpha"], ex["gens"])
    rows = gray_image_code(code).rows
    res = min_distance(rows, ex["field"])
    from math import comb

    expected = sum(comb(24, w) * 8 ** w for w in (1, 2, 3))
    assert res.candidates_swept == expected
