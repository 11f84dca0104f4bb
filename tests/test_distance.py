import random
import time
import tracemalloc
from contextlib import contextmanager
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import Span, hamming_weight

from skewcodes import distance
from skewcodes.catalog import example_code, get_example
from skewcodes.codes import build_code
from skewcodes.distance import DistanceResult, field_tables, min_distance, words_to_array
from skewcodes.errors import BudgetExceededError, FieldTooLargeError
from skewcodes.gf import make_field
from skewcodes.gray import gray_image_code
from skewcodes.linalg import nullspace, rref
from skewcodes.skewpoly import SkewPoly


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
    with pytest.raises(BudgetExceededError, match=r"^field tables need q\^2 = 625 entries, over the budget of 624$"):
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


def test_codes_past_int16_are_held_exactly():
    """Over F_{3^11} an element code reaches 3^11 - 1 > 2^15: the rows must
    not wrap. Neither case needs the q x q tables."""
    spec = make_field(3, 11, [2, 1, 2, 1, 1, 1, 2, 2, 2, 2, 0, 1])
    a, b, c = (spec.from_int(code) for code in (40000, 138737, spec.q - 1))
    full = min_distance([(a, b), (spec.zero, c)], spec)
    assert (full.exact, full.method) == (1, "full-space")
    res = min_distance([(a, b, c), (spec.zero, c, spec.zero)], spec)
    assert (res.exact, res.method) == (1, "sweep-certified")
    assert res.witness == (spec.zero, c, spec.zero)


def test_tables_past_int16_are_refused_whatever_the_budget():
    """Over F_{3^11} an int16 table code would wrap: a budget of q^2 or more
    must not reach the allocation of the q x q tables."""
    spec = make_field(3, 11, [1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1])
    a, b, c = (spec.from_int(code) for code in (40000, 138737, spec.q - 1))
    start = time.perf_counter()
    with pytest.raises(FieldTooLargeError, match=r"q <= 2\^15 = 32768, got q = 177147$"):
        field_tables(spec, budget=10 ** 12)
    with pytest.raises(FieldTooLargeError):
        min_distance([(a, b, c)], spec, budget=10 ** 12)  # level 1 fits, so the sweep asks for the tables
    assert time.perf_counter() - start < 1.0


def test_enumeration_and_sweep_agree(f9, f25):
    """The two exact paths are independent; they must agree on small codes."""
    rng = random.Random(404)
    f81 = make_field(*SWEEP_FIELDS["F81t2"])
    for spec in (f9, f25, f81):
        for _ in range(15):
            n = rng.randint(4, 8)
            k = rng.randint(1, 2 if spec is f81 else 3)  # q^k within ENUM_CAP
            rows = random_rows(spec, rng, k, n)
            if Span(rows).dim == 0:
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
    span = Span(rows)
    assert span.contains(res.witness)


def test_budget_exhaustion_returns_bounds(f25):
    code = example_code(1)
    rows = gray_image_code(code).rows
    res = min_distance(rows, code.field, budget=10)
    assert res.exact is None
    assert res.bounds == (1, 2)


def test_example_one_distance_certificate(f25):
    code = example_code(1)
    rows = gray_image_code(code).rows
    res = min_distance(rows, code.field)
    assert res.exact == 2
    assert res.method == "sweep-certified"
    assert res.candidates_swept == 16 * 24  # all weight-1 candidates
    assert hamming_weight(res.witness) == 2


def test_counter_counts_all_lower_weights(f9):
    code = example_code(2)
    rows = gray_image_code(code).rows
    res = min_distance(rows, code.field)
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


def reference_sweep(rows, basis, spec, n, budget):
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


def lookup_sweep(rows, spec, budget):
    """_bounded_weight_sweep as min_distance calls it: on the rows, their
    codes and their summands, each row-reduced."""
    return distance._bounded_weight_sweep(rows, *distance._reduce_by_summand(rows, spec), spec, budget)


def loop_sweep(rows, spec, budget):
    """The per-support loop given the rows and their RREF. The RREF holds
    every unit vector of the code, so neither sweep has a word to find at
    weight 1."""
    return reference_sweep(rows, rref(rows)[0], spec, len(rows[0]), budget)


def sweep_outcome(sweep, rows, spec, budget):
    """The sweep's result, or its refusal."""
    try:
        return sweep(rows, spec, budget)
    except BudgetExceededError as refusal:
        return ("refused", str(refusal))


def sweep_applies(rows):
    """The sweep runs on codes that are neither zero nor the full space."""
    return 0 < Span(rows).dim < len(rows[0])


@st.composite
def planted_codes(draw):
    spec = make_field(*SWEEP_FIELDS[draw(st.sampled_from(sorted(SWEEP_FIELDS)))])
    n = draw(st.integers(3, 8))
    support = draw(st.permutations(range(n)))[: draw(st.integers(1, min(4, n)))]
    planted = [draw(st.integers(1, spec.q - 1)) if i in support else 0 for i in range(n)]
    code = st.integers(0, spec.q - 1)
    masks = draw(st.lists(st.lists(code, min_size=n, max_size=n), min_size=1, max_size=3))
    budget = draw(st.one_of(st.integers(0, 3000), st.integers(3000, 300_000)))
    return spec, planted_rows(spec, planted, masks), budget


@settings(max_examples=300, deadline=None)
@given(planted_codes())
def test_lookup_sweep_matches_the_per_support_loop(case):
    spec, rows, budget = case
    if not sweep_applies(rows):
        return
    assert sweep_outcome(lookup_sweep, rows, spec, budget) == sweep_outcome(loop_sweep, rows, spec, budget)


def seeded_sweep_cases():
    """(spec, rows, budget) of seeded planted codes: weights 1 to 4
    planted over every field of SWEEP_FIELDS, each with a budget of one
    level, one that runs out in the second level and a large one."""
    rng = random.Random(8)
    for name in sorted(SWEEP_FIELDS):
        spec = make_field(*SWEEP_FIELDS[name])
        for weight in (1, 2, 3, 4):
            for _ in range(6):
                n = rng.randint(max(weight, 4), 8)
                support = rng.sample(range(n), weight)
                planted = [rng.randint(1, spec.q - 1) if i in support else 0 for i in range(n)]
                masks = [[rng.randrange(spec.q) for _ in range(n)] for _ in range(rng.randint(1, 2))]
                rows = planted_rows(spec, planted, masks)
                if not sweep_applies(rows):
                    continue
                first_two = n * (spec.q - 1) + comb(n, 2) * (spec.q - 1) ** 2
                for budget in (n * (spec.q - 1), first_two - 1, 400_000):
                    yield spec, rows, budget


def test_lookup_sweep_meets_every_outcome():
    """Seeded planted codes reach each outcome of the sweep, and the lookup
    agrees with the loop on all of them: proportional columns (weight 2), a
    lighter word at weight 3 or more, a unit row of the RREF (weight 1
    certified with no level swept), a certificate of weight 2 or more, and
    a budget that runs out after the first level."""
    seen = set()
    for spec, rows, budget in seeded_sweep_cases():
        ours = sweep_outcome(lookup_sweep, rows, spec, budget)
        assert ours == sweep_outcome(loop_sweep, rows, spec, budget)
        if isinstance(ours, DistanceResult):
            cap = {"sweep-found-lighter": 3, "sweep-certified": 2}.get(ours.method)
            seen.add((ours.method, cap and min(ours.exact, cap)))
    assert seen >= {
        ("sweep-found-lighter", 2),
        ("sweep-found-lighter", 3),
        ("sweep-certified", 1),
        ("sweep-certified", 2),
        ("sweep-budget-exhausted", None),
    }


# --- batch boundaries: the lookup in batches of a few sums ---

# One prefix per batch, and 20 sums: whole levels over F3, two prefixes per
# batch at weight 2 over F9, one over the larger fields.
SMALL_CHUNKS = (1, 20)


@contextmanager
def batches_of(chunk):
    original = distance._CHUNK
    distance._CHUNK = chunk
    try:
        yield
    finally:
        distance._CHUNK = original


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@settings(max_examples=100, deadline=None)
@given(planted_codes())
def test_small_batches_match_the_per_support_loop(chunk, case):
    spec, rows, budget = case
    if not sweep_applies(rows):
        return
    with batches_of(chunk):
        ours = sweep_outcome(lookup_sweep, rows, spec, budget)
    assert ours == sweep_outcome(loop_sweep, rows, spec, budget)


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
def test_small_batches_meet_every_seeded_outcome(chunk):
    with batches_of(chunk):
        for spec, rows, budget in seeded_sweep_cases():
            ours = sweep_outcome(lookup_sweep, rows, spec, budget)
            assert ours == sweep_outcome(loop_sweep, rows, spec, budget)


@pytest.mark.parametrize("chunk", (1, 2 * 2, 5 * 2))
def test_witness_prefix_in_a_later_batch(f3, chunk):
    """The only weight-2 words of span{planted, all-ones, e7 + e8 + e9} over
    F3 lie on {5, 7}, and its RREF rows, e5 + e8 + e9, e7 + e8 + e9 and one
    with pivot 0, weigh 3 or more. So the sweep finds the witness at the
    prefix (5,): with one, two or five prefixes per batch it comes after the
    first batch."""
    planted = [0, 0, 0, 0, 0, 1, 0, 2, 0, 0]
    rows = planted_rows(f3, planted, [[1] * 10, [0] * 7 + [1] * 3])
    with batches_of(chunk):
        ours = sweep_outcome(lookup_sweep, rows, f3, 10_000)
    assert ours == sweep_outcome(loop_sweep, rows, f3, 10_000)
    assert ours.method == "sweep-found-lighter"
    assert [pos for pos, c in enumerate(ours.witness) if not c.is_zero] == [5, 7]
    assert list(combinations(range(9), 1)).index((5,)) >= max(1, chunk // (f3.q - 1))


def test_lookups_are_per_batch_not_per_prefix(f9, monkeypatch):
    """On the example-2 image (distance 4, certified by sweeping weights 1
    to 3) each of the four length-6 summands makes one key lookup per batch
    and one for its column table, where the per-prefix form made one per
    prefix."""
    code = example_code(2)
    rows = gray_image_code(code).rows
    calls = []
    row_keys = distance._row_keys
    monkeypatch.setattr(distance, "_row_keys", lambda r, q: calls.append(1) or row_keys(r, q))
    res = min_distance(rows, code.field)
    assert (res.exact, res.method) == (4, "sweep-certified")
    q = code.field.q
    summands = distance._summands(words_to_array(rows))[0]
    assert summands == [(0, 6), (6, 12), (12, 18), (18, 24)]
    prefixes = {(lo, w): comb(hi - lo - 1, w - 1) for lo, hi in summands for w in (2, 3)}
    batches = {
        (lo, w): -(-count // max(1, distance._CHUNK // (q - 1) ** (w - 1)))
        for (lo, w), count in prefixes.items()
    }
    assert len(calls) <= sum(batches.values()) + len(summands)
    assert len(calls) < sum(prefixes.values())


def test_min_distance_row_reduces_once(monkeypatch):
    """On the example-2 image min_distance row-reduces once per summand, each
    of the four length-6 blocks, and the sweep builds each summand's H from
    those RREFs and their pivots, with no second row reduction inside
    nullspace."""
    import skewcodes.linalg

    code = example_code(2)
    rows = gray_image_code(code).rows
    calls = []
    original = skewcodes.linalg.rref

    def spy(rows):
        calls.append(len(rows[0]))
        return original(rows)

    monkeypatch.setattr(skewcodes.linalg, "rref", spy)
    monkeypatch.setattr(distance, "rref", spy)
    res = min_distance(rows, code.field)
    assert (res.exact, res.method) == (4, "sweep-certified")
    assert calls == [6, 6, 6, 6]


@pytest.mark.parametrize("weight", [2, 3])
@pytest.mark.parametrize("n, kind", [(41, "i"), (42, "V")])
def test_keys_are_int64_below_2_63_and_bytes_above(f3, monkeypatch, weight, n, kind):
    """[n, 2] codes over F3 with a planted word of the given weight: n - k =
    39 gives 3^39 < 2^63 and int64 keys, n - k = 40 gives 3^40 > 2^63 and
    byte keys. The second row starts at the planted word's second column,
    so the RREF, whose pivots are its first two, presents neither that word
    nor anything as light. Either way the sweep finds the word the
    per-support loop finds."""
    assert (3 ** (n - 2) < 2 ** 63) == (kind == "i")
    rng = random.Random(10 * n + weight)
    support = sorted(rng.sample(range(n // 2), weight))
    planted = [rng.randint(1, 2) if i in support else 0 for i in range(n)]
    tail = [rng.randrange(3) for _ in range(n - support[1] - 1)]
    rows = planted_rows(f3, planted, [[0] * support[1] + [rng.randint(1, 2)] + tail])
    basis, pivots = rref(rows)
    assert pivots == support[:2]
    assert min(hamming_weight(row) for row in rows + basis) > weight
    kinds = set()
    row_keys = distance._row_keys

    def spy(rows, q):
        keys = row_keys(rows, q)
        kinds.add(keys.dtype.kind)
        return keys

    monkeypatch.setattr(distance, "_row_keys", spy)
    budget = distance.DEFAULT_BUDGET
    expected = reference_sweep(rows, basis, f3, n, budget)
    assert (expected.exact, expected.method) == (weight, "sweep-found-lighter")
    assert lookup_sweep(rows, f3, budget) == expected
    assert kinds == {kind}


def test_sweep_memory_is_bounded_by_the_batch(f3):
    """A random [48, 24] code over F3 has no word of weight 4 or less; its
    sweep finishes weight 4, C(47, 3) * 2^3 = 129720 prefix sums, before the
    budget stops it at weight 5. The traced peak stays within a bound set
    by one batch of _CHUNK sums, which the whole level is 30 times over."""
    rng = random.Random(48)
    n, k = 48, 24
    rows = random_rows(f3, rng, k, n)
    words, parts = distance._reduce_by_summand(rows, f3)
    assert sum(len(part.basis) for part in parts) == k
    assert comb(n - 1, 3) * 2 ** 3 >= 10 ** 5
    field_tables(f3)
    tracemalloc.start()
    try:
        res = distance._bounded_weight_sweep(rows, words, parts, f3, distance.DEFAULT_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.method == "sweep-budget-exhausted"
    assert res.bounds[0] == 5
    assert peak < 32 * distance._CHUNK * (n - k)


# --- direct summands: the split, the merged RREF and the per-summand sweep ---


def reference_min_distance(rows, spec, budget):
    """min_distance made on the whole matrix: one RREF of all the rows, then
    the same branches, with the per-support loop in place of the sweep."""
    basis, pivots = rref(rows)
    k, n = len(basis), len(rows[0])
    if k == 0:
        return DistanceResult(None, None, None, 0, "zero-code", defined=False)
    if k == n:
        return DistanceResult(1, None, (spec.one,) + (spec.zero,) * (n - 1), 0, "full-space")
    if spec.q ** k <= min(budget, distance.ENUM_CAP):
        return distance._enumerate_messages(basis, spec, n, k, budget)
    return reference_sweep(rows, basis, spec, n, budget)


def outcome(find, *args):
    """find(*args), or its refusal."""
    try:
        return find(*args)
    except BudgetExceededError as refusal:
        return ("refused", str(refusal))


@contextmanager
def enumeration_cap(cap):
    original = distance.ENUM_CAP
    distance.ENUM_CAP = cap
    try:
        yield
    finally:
        distance.ENUM_CAP = original


def laid_out(spec, blocks):
    """The rows of the direct sum of `blocks`, (width, rows) pairs laid out
    left to right, each row padded with zeros to the whole length."""
    length = sum(width for width, _ in blocks)
    out, lo = [], 0
    for width, rows in blocks:
        out += [(spec.zero,) * lo + tuple(row) + (spec.zero,) * (length - lo - width) for row in rows]
        lo += width
    return out


def full_block(spec, width):
    """Unreduced rows e_i + e_(i+1 mod width) spanning all of F_q^width: for
    odd width their circulant has determinant 2, a unit in odd
    characteristic. Every row weighs 2, so only a sweep finds the weight-1
    words."""
    return [tuple(spec.one if j in (i, (i + 1) % width) else spec.zero for j in range(width)) for i in range(width)]


def straddling_row(spec, blocks, a, codes):
    """A row with the nonzero codes `codes` on the last column of block a and
    the first of block a + 1: it joins the two blocks into one summand."""
    cut = sum(width for width, _ in blocks[: a + 1])
    row = [spec.zero] * sum(width for width, _ in blocks)
    row[cut - 1], row[cut] = spec.from_int(codes[0]), spec.from_int(codes[1])
    return tuple(row)


def level_boundaries(n, q):
    """The budgets at each level boundary: the candidates of weights 1..w,
    and one less, for w up to 3, or up to 2 when q > 9, which keeps the
    per-support loop quick."""
    total, out = 0, []
    for w in range(1, min(3 if q <= 9 else 2, n) + 1):
        total += comb(n, w) * (q - 1) ** w
        out += [total - 1, total]
    return out


@st.composite
def block_codes(draw):
    """(spec, rows, budget, enumerate): 1-4 contiguous blocks, each
    a planted code, an all-zero block or a full-space block, in one matrix,
    maybe with a zero row and a row that straddles two blocks, in a drawn
    order; the budget is drawn or sits at a level boundary."""
    spec = make_field(*SWEEP_FIELDS[draw(st.sampled_from(sorted(SWEEP_FIELDS)))])
    code = st.integers(0, spec.q - 1)
    blocks = []
    for kind in draw(st.lists(st.sampled_from(("planted", "planted", "zero", "full")), min_size=1, max_size=4)):
        if kind == "planted":
            n = draw(st.integers(2, 4))
            support = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
            planted = [draw(st.integers(1, spec.q - 1)) if i in support else 0 for i in range(n)]
            masks = draw(st.lists(st.lists(code, min_size=n, max_size=n), min_size=1, max_size=2))
            blocks.append((n, planted_rows(spec, planted, masks)))
        elif kind == "zero":
            blocks.append((draw(st.integers(1, 3)), []))
        else:
            n = draw(st.sampled_from((1, 3)))
            blocks.append((n, full_block(spec, n)))
    rows = laid_out(spec, blocks)
    length = len(rows[0]) if rows else sum(width for width, _ in blocks)
    if not rows or draw(st.booleans()):
        rows.append((spec.zero,) * length)
    if len(blocks) > 1 and draw(st.booleans()):
        a = draw(st.integers(0, len(blocks) - 2))
        rows.append(straddling_row(spec, blocks, a, draw(st.lists(st.integers(1, spec.q - 1), min_size=2, max_size=2))))
    rows = draw(st.permutations(rows))
    budget = draw(st.one_of(
        st.sampled_from(level_boundaries(length, spec.q)),
        st.integers(0, 3000),
        st.integers(3000, 300_000),
    ))
    return spec, rows, budget, draw(st.booleans())


@settings(max_examples=250, deadline=None)
@given(block_codes())
def test_block_codes_match_the_whole_matrix(case):
    """min_distance, with message enumeration allowed or denied, and the
    sweep equal the whole-matrix forms, refusals included."""
    spec, rows, budget, enumerate_ = case
    with enumeration_cap(distance.ENUM_CAP if enumerate_ else 0):
        ours = outcome(min_distance, rows, spec, budget)
        assert ours == outcome(reference_min_distance, rows, spec, budget)
    if sweep_applies(rows):
        assert sweep_outcome(lookup_sweep, rows, spec, budget) == sweep_outcome(loop_sweep, rows, spec, budget)


def seeded_block_cases():
    """(spec, rows, first_block) of seeded block codes over every field of
    SWEEP_FIELDS: two or three planted blocks, with an all-zero block, a
    full-space block, a zero row or a straddling row mixed in, and over F3,
    F5 and F9 two blocks of one full-weight row each, in a shuffled row
    order. Then over every field a block whose RREF rows weigh 4 and whose
    weight-2 word no row presents, before and after a block of one
    full-weight row. first_block is the width of the leading block."""
    rng = random.Random(20)
    hidden_rng = random.Random(21)
    for name in sorted(SWEEP_FIELDS):
        spec = make_field(*SWEEP_FIELDS[name])
        for hidden_first in (True, False):
            a, b, c, *heavy = (spec.from_int(hidden_rng.randint(1, spec.q - 1)) for _ in range(7))
            one, zero = spec.one, spec.zero
            blocks = [(5, [(one, zero, a, b, c), (zero, one, -a, -b, -c)]), (4, [tuple(heavy)])]
            blocks = blocks if hidden_first else blocks[::-1]
            yield spec, laid_out(spec, blocks), blocks[0][0]
        for extra in ("none", "zero block", "full block", "zero row", "straddle", "heavy"):
            if extra == "heavy" and spec.q > 9:
                continue
            for _ in range(3):
                blocks = []
                for _ in range(rng.randint(2, 3) if extra != "heavy" else 0):
                    n = rng.randint(2, 4)
                    weight = rng.randint(1, n)
                    support = rng.sample(range(n), weight)
                    planted = [rng.randint(1, spec.q - 1) if i in support else 0 for i in range(n)]
                    masks = [[rng.randrange(spec.q) for _ in range(n)] for _ in range(rng.randint(1, 2))]
                    blocks.append((n, planted_rows(spec, planted, masks)))
                if extra == "heavy":  # one row of full weight per block: d >= 4
                    for width in (rng.randint(4, 5), rng.randint(4, 5)):
                        blocks.append((width, [tuple(spec.from_int(rng.randint(1, spec.q - 1)) for _ in range(width))]))
                if extra == "zero block":
                    blocks.insert(rng.randint(0, len(blocks)), (rng.randint(1, 2), []))
                if extra == "full block":
                    blocks.insert(rng.randint(0, len(blocks)), (3, full_block(spec, 3)))
                rows = laid_out(spec, blocks)
                if extra == "zero row":
                    rows.append((spec.zero,) * len(rows[0]))
                if extra == "straddle":
                    codes = [rng.randint(1, spec.q - 1) for _ in range(2)]
                    rows.append(straddling_row(spec, blocks, rng.randrange(len(blocks) - 1), codes))
                rng.shuffle(rows)
                yield spec, rows, blocks[0][0]


def test_block_codes_meet_every_outcome():
    """Seeded block codes, at every level boundary of the budget and a large
    budget: the sweep and min_distance equal the whole-matrix forms, and
    between them they reach a witness in the first and in a later block, a
    weight-1 certificate from a unit row of the RREF (as a full-space block
    gives), a certificate of weight 2 or more, a budget that runs out at
    each of the first three levels, a refusal of the tables, and the
    zero-code, full-space and enumeration results."""
    seen = set()
    for spec, rows, first_block in seeded_block_cases():
        length = len(rows[0])
        for budget in level_boundaries(length, spec.q) + [400_000]:
            if sweep_applies(rows):
                ours = sweep_outcome(lookup_sweep, rows, spec, budget)
                assert ours == sweep_outcome(loop_sweep, rows, spec, budget)
                if not isinstance(ours, DistanceResult):
                    seen.add("refused")
                elif ours.method == "sweep-found-lighter":
                    start = next(i for i, c in enumerate(ours.witness) if not c.is_zero)
                    seen.add(("lighter", start >= first_block))
                elif ours.method == "sweep-certified":
                    seen.add((ours.method, min(ours.exact, 2)))
                else:
                    seen.add((ours.method, ours.bounds[0]))
            ours = outcome(min_distance, rows, spec, budget)
            assert ours == outcome(reference_min_distance, rows, spec, budget)
            if isinstance(ours, DistanceResult):
                seen.add(ours.method)
    for rows in ([(spec.zero,) * 3], full_block(spec, 3)):
        ours = min_distance(rows, spec)
        assert ours == reference_min_distance(rows, spec, distance.DEFAULT_BUDGET)
        seen.add(ours.method)
    assert seen >= {
        ("lighter", False), ("lighter", True),
        ("sweep-certified", 1), ("sweep-certified", 2),
        ("sweep-budget-exhausted", 1), ("sweep-budget-exhausted", 2), ("sweep-budget-exhausted", 3),
        "refused", "zero-code", "full-space", "message-enumeration", "sweep-certified",
    }


def test_a_full_space_block_gives_e_at_its_first_column(f9):
    """Unreduced rows of weight 2 that span F_9^3, after a planted block with
    no word lighter than 3: the full block's RREF is the identity, so the
    sweep certifies weight 1 with no level swept, by e at the full block's
    first column with coefficient code 1, as the per-support loop does."""
    blocks = [(4, planted_rows(f9, [1, 2, 3, 0], [[1, 1, 1, 1]])), (3, full_block(f9, 3))]
    rows = laid_out(f9, blocks)
    ours = lookup_sweep(rows, f9, distance.DEFAULT_BUDGET)
    assert ours == loop_sweep(rows, f9, distance.DEFAULT_BUDGET)
    assert (ours.method, ours.exact, ours.candidates_swept) == ("sweep-certified", 1, 0)
    assert [c.to_int() for c in ours.witness] == [0, 0, 0, 0, 1, 0, 0]


def test_two_blocks_that_hit_at_the_same_level_give_the_first(f9):
    """The same block twice, rows (1, 0, 1, 1, 1) and (0, 1, -1, -1, -1) of
    weight 4 with the weight-2 sum (1, 1, 0, 0, 0): both copies hold the
    lightest words, and the witness is the one the per-support loop meets
    first, in the first copy."""
    one, zero = f9.one, f9.zero
    block = (5, [(one, zero, one, one, one), (zero, one, -one, -one, -one)])
    rows = laid_out(f9, [block, block])
    expected = loop_sweep(rows, f9, distance.DEFAULT_BUDGET)
    assert (expected.exact, expected.method) == (2, "sweep-found-lighter")
    assert [i for i, c in enumerate(expected.witness) if not c.is_zero] == [0, 1]
    assert lookup_sweep(rows, f9, distance.DEFAULT_BUDGET) == expected
    with enumeration_cap(0):
        assert min_distance(rows, f9) == expected


def test_a_straddling_row_joins_two_blocks(f9):
    """Cuts fall only where no row crosses; zero rows are in no summand; a
    column no row reaches stays in the summand before it, leading ones in
    the first."""
    el = f9.from_int
    blocks = [(3, [(el(1), el(2), el(1))]), (3, [(el(4), el(1), el(0)), (el(0), el(1), el(1))]), (2, [])]
    rows = laid_out(f9, blocks) + [(f9.zero,) * 8]
    assert distance._summands(words_to_array(rows)) == ([(0, 3), (3, 8)], [[0], [1, 2]])
    rows.append(straddling_row(f9, blocks, 0, [1, 1]))
    assert distance._summands(words_to_array(rows)) == ([(0, 8)], [[0, 1, 2, 4]])
    assert distance._summands(words_to_array([(f9.zero,) * 8])) == ([], [])
    inner = laid_out(f9, [blocks[0], (2, []), (3, [(el(4), el(1), el(0))])])
    assert distance._summands(words_to_array(inner)) == ([(0, 5), (5, 8)], [[0], [1]])
    leading = laid_out(f9, [(2, []), blocks[0]])
    assert distance._summands(words_to_array(leading)) == ([(0, 5)], [[0]])


def example_and_golden_images():
    """(rows, field) of the Gray images of examples 1-4, and of every image
    whose distance a golden report holds, taken from their CLI runs."""
    import skewcodes.cli
    from test_golden import CASES, run

    images = []
    for number in (1, 2, 3, 4):
        ex = get_example(number)
        if number == 4:  # <g> mod x^7 - (1 - 2v), from the CRT components of g
            g = ex["generator"]
            gens = [SkewPoly(ex["field"], "fq", [c.crt()[i] for c in g.coeffs]) for i in range(4)]
            code = build_code(ex["field"], ex["n"], ex["working_constant"], gens)
        else:
            code = example_code(number)
        images.append((gray_image_code(code).rows, ex["field"]))
    original = skewcodes.cli.min_distance
    skewcodes.cli.min_distance = lambda rows, spec, budget: images.append((rows, spec)) or original(rows, spec, budget)
    try:
        for name in sorted(CASES):
            assert run(CASES[name])[0] == 0
    finally:
        skewcodes.cli.min_distance = original
    return images


def merged_rref(rows, spec):
    """The summands' bases placed at their columns, and their pivots."""
    _, parts = distance._reduce_by_summand(rows, spec)
    basis = distance._placed(parts, len(rows[0]) if rows else 0)
    return basis, [part.lo + p for part in parts for p in part.pivots]


def test_merged_rref_is_the_whole_rref():
    """The summands' RREFs placed at their columns equal rref of the whole
    matrix, basis and pivots, on the images of examples 1-4, on the goldens'
    codes and on seeded block matrices."""
    images = example_and_golden_images()
    assert len(images) == 4 + 6  # examples 1-3, params_f25 (twice) and params_f81t2 report one
    for rows, spec in images:
        assert merged_rref(rows, spec) == rref(rows)
    for spec, rows, _ in seeded_block_cases():
        assert merged_rref(rows, spec) == rref(rows)
    assert merged_rref([], make_field(3, 1, [0, 1])) == ([], [])
