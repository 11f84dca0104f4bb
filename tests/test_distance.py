import random
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcodes import distance
from skewcodes.catalog import get_example
from skewcodes.codes import build_code
from skewcodes.distance import DistanceResult, field_tables, min_distance, words_to_array
from skewcodes.errors import BudgetExceededError
from skewcodes.gf import make_field
from skewcodes.gray import gray_image_code, hamming_weight
from skewcodes.linalg import Span, nullspace, rref


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
    f81 = make_field(*SWEEP_FIELDS["F81t2"])
    for spec in (f9, f25, f81):
        for _ in range(15):
            n = rng.randint(4, 8)
            k = rng.randint(1, 2 if spec is f81 else 3)  # q^k within ENUM_CAP
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


# --- the lookup sweep against the per-support loop it replaced ---

SWEEP_FIELDS = {
    "F3": (3, 1, [0, 1], 1),
    "F5": (5, 1, [0, 1], 1),
    "F9": (3, 2, [1, 0, 1], 1),
    "F25": (5, 2, [1, 1, 1], 1),
    "F27": (3, 3, [1, 2, 0, 1], 1),
    "F81t2": (3, 4, [2, 0, 0, 1, 1], 2),
}


def reference_sweep(rows, basis, spec, n, k, budget):
    """The per-support loop: every support of each weight, and every nonzero
    coefficient vector on it, summed column by column."""
    q = spec.q
    best_w, best_row = None, None
    for w in list(rows) + list(basis):
        wt = sum(0 if c.is_zero else 1 for c in w)
        if wt > 0 and (best_w is None or wt < best_w):
            best_w, best_row = wt, tuple(w)
    scaled_cols = None

    swept = 0
    for w in range(1, best_w):
        level = comb(n, w) * (q - 1) ** w
        if swept + level > budget:
            return DistanceResult(None, (w, best_w), best_row, swept, "sweep-budget-exhausted")
        if scaled_cols is None:
            add, mul = field_tables(spec, budget)
            H = words_to_array(nullspace(basis, n, spec))
            nzcoef = np.arange(1, q, dtype=np.int16)
            scaled_cols = [mul[nzcoef[:, None], H[:, j][None, :]] for j in range(n)]
        for support in combinations(range(n), w):
            T = scaled_cols[support[0]]
            for j in support[1:]:
                T = add[T[..., None, :], scaled_cols[j]]
            hits = ~np.any(T, axis=-1)
            if hits.any():
                coef = np.argwhere(hits)[0]
                word = [spec.zero] * n
                for pos, c in zip(support, coef):
                    word[pos] = spec.from_int(int(c) + 1)
                return DistanceResult(w, None, tuple(word), swept, "sweep-found-lighter")
        swept += level
    return DistanceResult(best_w, None, best_row, swept, "sweep-certified")


def planted_rows(spec, planted, masks):
    """Rows whose span holds the word `planted` (field codes): the first row
    hides it under masks[0], and every mask is a row of its own."""
    el = spec.from_int
    hidden = tuple(el(a) + el(b) for a, b in zip(planted, masks[0]))
    return [hidden] + [tuple(el(b) for b in mask) for mask in masks]


def sweep_outcome(sweep, rows, spec, budget, reduced):
    """The sweep's result, or its refusal. With reduced=False the basis is
    the presented rows themselves; min_distance always passes their RREF,
    which holds every unit vector of the code and so never leaves a zero
    column in H to be found at weight 1."""
    basis = rref(rows)[0] if reduced else rows
    dim = Span(rows, len(rows[0]), spec).dim
    try:
        return sweep(rows, basis, spec, len(rows[0]), dim, budget)
    except BudgetExceededError as refusal:
        return ("refused", str(refusal))


def sweep_applies(rows, spec):
    """The sweep runs on codes that are neither zero nor the full space."""
    return 0 < Span(rows, len(rows[0]), spec).dim < len(rows[0])


@st.composite
def planted_codes(draw):
    spec = make_field(*SWEEP_FIELDS[draw(st.sampled_from(sorted(SWEEP_FIELDS)))])
    n = draw(st.integers(3, 8))
    support = draw(st.permutations(range(n)))[: draw(st.integers(1, min(4, n)))]
    planted = [draw(st.integers(1, spec.q - 1)) if i in support else 0 for i in range(n)]
    code = st.integers(0, spec.q - 1)
    masks = draw(st.lists(st.lists(code, min_size=n, max_size=n), min_size=1, max_size=3))
    budget = draw(st.one_of(st.integers(0, 3000), st.integers(3000, 300_000)))
    return spec, planted_rows(spec, planted, masks), budget, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(planted_codes())
def test_lookup_sweep_matches_the_per_support_loop(case):
    spec, rows, budget, reduced = case
    if not sweep_applies(rows, spec):
        return
    ours = sweep_outcome(distance._bounded_weight_sweep, rows, spec, budget, reduced)
    assert ours == sweep_outcome(reference_sweep, rows, spec, budget, reduced)


def test_lookup_sweep_meets_every_outcome():
    """Seeded planted codes reach each outcome of the sweep, and the lookup
    agrees with the loop on all of them: a zero column of H (weight 1),
    proportional columns (weight 2), a lighter word at weight 3 or more, a
    certificate, and a budget that runs out after the first level."""
    rng = random.Random(8)
    seen = set()
    for name in sorted(SWEEP_FIELDS):
        spec = make_field(*SWEEP_FIELDS[name])
        for weight in (1, 2, 3, 4):
            for _ in range(6):
                n = rng.randint(max(weight, 4), 8)
                support = rng.sample(range(n), weight)
                planted = [rng.randint(1, spec.q - 1) if i in support else 0 for i in range(n)]
                masks = [[rng.randrange(spec.q) for _ in range(n)] for _ in range(rng.randint(1, 2))]
                rows = planted_rows(spec, planted, masks)
                if not sweep_applies(rows, spec):
                    continue
                first_two = n * (spec.q - 1) + comb(n, 2) * (spec.q - 1) ** 2
                for budget, reduced in product((n * (spec.q - 1), first_two - 1, 400_000), (True, False)):
                    ours = sweep_outcome(distance._bounded_weight_sweep, rows, spec, budget, reduced)
                    assert ours == sweep_outcome(reference_sweep, rows, spec, budget, reduced)
                    if isinstance(ours, DistanceResult):
                        lighter = ours.method == "sweep-found-lighter"
                        seen.add((ours.method, min(ours.exact, 3) if lighter else None))
    assert seen >= {
        ("sweep-found-lighter", 1),
        ("sweep-found-lighter", 2),
        ("sweep-found-lighter", 3),
        ("sweep-certified", None),
        ("sweep-budget-exhausted", None),
    }
