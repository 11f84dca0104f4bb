import random
import time
import tracemalloc
from contextlib import contextmanager
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    Span,
    code_tables,
    full_coefficient_min_distance,
    hamming_weight,
    log_summands,
    per_summand_min_distance,
    reference_sweep,
    words_to_array,
)
from test_kernel import FIELDS as KERNEL_FIELDS
from test_linalg import DIFFERENTIAL_FIELDS

from skewcodes import distance
from skewcodes.catalog import example_code, get_example
from skewcodes.codes import build_code
from skewcodes.distance import DistanceResult, field_tables, min_distance
from skewcodes.errors import BudgetExceededError, LengthMismatchError, MixedRingsError
from skewcodes.gf import make_field
from skewcodes.gray import gray_image_code
from skewcodes.linalg import rref
from skewcodes.skewpoly import SkewPoly


def random_rows(spec, rng, k, n):
    return [tuple(spec.random_element(rng) for _ in range(n)) for _ in range(k)]


def test_tables_are_exact(f9):
    """The logarithm sum, product and negation that the distance computes
    with, against the scalar field operations on every pair; F81 has the
    twist t = 2, F3 and F7 are prime fields."""
    f81, f7 = make_field(3, 4, [2, 0, 0, 1, 1], 2), make_field(7, 1, [0, 1])
    f3, f243 = make_field(3, 1, [0, 1]), make_field(3, 5, [1, 2, 0, 0, 0, 1])
    for spec in (f3, f7, f9, f81, f243):
        arrays = field_tables(spec)
        add, mul = code_tables(spec)
        x, y = arrays.log[:, None], arrays.log[None, :]
        assert (arrays.exp[arrays.wrap[x + arrays.plus[(y + arrays.zero) - x]]] == add).all()
        assert (arrays.exp[arrays.wrap[x + y]] == mul).all()
        negated = [(-c).code for c in spec.elements()]
        assert arrays.exp[arrays.wrap[arrays.log + arrays.half]].tolist() == negated


def test_tables_are_bounded_by_the_budget(f25):
    """The field tables are the field's O(q) logarithm arrays, with no
    budget to charge. The one q x q table, the enumeration's sums, is built
    only after its q^k * n entries, at least q^2, are charged."""
    arrays = field_tables(f25)
    assert arrays is f25.arrays()
    assert arrays.log.shape == (25,) and arrays.plus.shape == arrays.wrap.shape == (4 * 24 + 1,)
    rng = random.Random(2)
    rows = random_rows(f25, rng, 2, 4)
    assert Span(rows).dim == 2
    with pytest.raises(BudgetExceededError, match=r"^message enumeration needs q\^k \* n = 25\^2 \* 4 = 2500 entries, over the budget of 2499$"):
        min_distance(rows, f25, budget=25 ** 2 * 4 - 1)
    assert min_distance(rows, f25, budget=25 ** 2 * 4).method == "message-enumeration"


def test_distance_answers_where_the_square_tables_were_over_the_budget(f25):
    """A one-row code over F25 at a budget below q^2 = 625, the entries of a
    q x q table: its 25 messages are the multiples of the row, which need
    no addition."""
    rng = random.Random(2)
    rows = random_rows(f25, rng, 1, 4)
    res = min_distance(rows, f25, budget=600)
    assert (res.method, res.candidates_swept) == ("message-enumeration", 25)
    assert res.exact == hamming_weight(rows[0]) == hamming_weight(res.witness)
    assert Span(rows).contains(res.witness)


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
    not wrap. Neither case adds field elements."""
    spec = make_field(3, 11, [2, 1, 2, 1, 1, 1, 2, 2, 2, 2, 0, 1])
    a, b, c = (spec.from_int(code) for code in (40000, 138737, spec.q - 1))
    full = min_distance([(a, b), (spec.zero, c)], spec)
    assert (full.exact, full.method) == (1, "full-space")
    res = min_distance([(a, b, c), (spec.zero, c, spec.zero)], spec)
    assert (res.exact, res.method) == (1, "sweep-certified")
    assert res.witness == (spec.zero, c, spec.zero)


def test_codes_past_int16_are_enumerated_and_swept_on_logarithms():
    """Over F_{3^11} an element code reaches 3^11 - 1 > 2^15, and a q x q
    table would need 3^22 entries. A one-row code is enumerated as the q
    multiples of its row, with no addition. The rows (1, 0, a, b) and
    (0, 1, c, d), a, b, c, d nonzero, are their RREF and weigh 3; their
    code has a word of weight 2 exactly when ad = bc, (1, -a/c, 0, 0), so
    its sweep sums scaled columns on logarithms at weight 2, and finds that
    word or certifies 3."""
    spec = make_field(3, 11, [1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1])
    a, b, c = (spec.from_int(code) for code in (40000, 138737, spec.q - 1))
    start = time.perf_counter()
    res = min_distance([(a, b, c)], spec, budget=10 ** 12)
    expected = (3, "message-enumeration", (spec.one, b / a, c / a), spec.q)
    assert (res.exact, res.method, res.witness, res.candidates_swept) == expected
    assert time.perf_counter() - start < 1.0
    one, zero = spec.one, spec.zero
    budget = 4 * (spec.q - 1) + comb(4, 2) * (spec.q - 1) ** 2
    for d, expected in ((b * c / a, (2, "sweep-found-lighter")), (one, (3, "sweep-certified"))):
        rows = [(one, zero, a, b), (zero, one, c, d)]
        res = min_distance(rows, spec, budget=budget)
        assert (res.exact, res.method) == expected
        assert hamming_weight(res.witness) == res.exact and Span(rows).contains(res.witness)
        assert (res.witness == (one, -a / c, zero, zero)) == (res.exact == 2)


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
    assert lookup_sweep(rows, spec, budget) == loop_sweep(rows, spec, budget)


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
        ours = lookup_sweep(rows, spec, budget)
        assert ours == loop_sweep(rows, spec, budget)
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
        ours = lookup_sweep(rows, spec, budget)
    assert ours == loop_sweep(rows, spec, budget)


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
def test_small_batches_meet_every_seeded_outcome(chunk):
    with batches_of(chunk):
        for spec, rows, budget in seeded_sweep_cases():
            ours = lookup_sweep(rows, spec, budget)
            assert ours == loop_sweep(rows, spec, budget)


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
        ours = lookup_sweep(rows, f3, 10_000)
    assert ours == loop_sweep(rows, f3, 10_000)
    assert ours.method == "sweep-found-lighter"
    assert [pos for pos, c in enumerate(ours.witness) if not c.is_zero] == [5, 7]
    assert list(combinations(range(9), 1)).index((5,)) >= max(1, chunk // (f3.q - 1))


def test_lookups_are_per_batch_not_per_prefix(f9, monkeypatch):
    """On the example-2 image (distance 4, certified by sweeping weights 1
    to 3) the sweep makes one key pass for its one column table of all four
    length-6 summands, and one per batch at each level, the batches taking
    the prefixes of all four summands in turn. The per-summand sweep made
    a table and its own batches for each summand, and the per-prefix form
    one lookup per prefix."""
    code = example_code(2)
    rows = gray_image_code(code).rows
    calls = []
    row_keys = distance._row_keys
    monkeypatch.setattr(distance, "_row_keys", lambda r, q, *tag: calls.append(1) or row_keys(r, q, *tag))
    res = min_distance(rows, code.field)
    assert (res.exact, res.method) == (4, "sweep-certified")
    q = code.field.q
    summands = distance._summands(words_to_array(rows) != 0)[0]
    assert summands == [(0, 6), (6, 12), (12, 18), (18, 24)]
    prefixes = {w: sum(comb(hi - lo - 1, w - 1) for lo, hi in summands) for w in (2, 3)}
    batches = {w: -(-count // max(1, distance._CHUNK // (q - 1) ** (w - 2))) for w, count in prefixes.items()}
    assert batches == {2: 1, 3: 1}
    assert len(calls) == 1 + sum(batches.values())
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

    def spy(rows, *spec):
        calls.append(len(rows[0]))
        return original(rows, *spec)

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

    def spy(rows, q, tags, count):
        keys = row_keys(rows, q, tags, count)
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
        return distance._enumerate_messages(log_summands([(0, n, basis)], spec), n, spec, budget)
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
        assert lookup_sweep(rows, spec, budget) == loop_sweep(rows, spec, budget)


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
    each of the first three levels, an enumeration refused for its q^k * n
    entries, and the zero-code, full-space and enumeration results."""
    seen = set()
    for spec, rows, first_block in seeded_block_cases():
        length = len(rows[0])
        for budget in level_boundaries(length, spec.q) + [400_000]:
            if sweep_applies(rows):
                ours = lookup_sweep(rows, spec, budget)
                assert ours == loop_sweep(rows, spec, budget)
                if ours.method == "sweep-found-lighter":
                    start = next(i for i, c in enumerate(ours.witness) if not c.is_zero)
                    seen.add(("lighter", start >= first_block))
                elif ours.method == "sweep-certified":
                    seen.add((ours.method, min(ours.exact, 2)))
                else:
                    seen.add((ours.method, ours.bounds[0]))
            ours = outcome(min_distance, rows, spec, budget)
            assert ours == outcome(reference_min_distance, rows, spec, budget)
            seen.add(ours.method if isinstance(ours, DistanceResult) else ours[0])
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
    assert distance._summands(words_to_array(rows) != 0) == ([(0, 3), (3, 8)], [[0], [1, 2]])
    rows.append(straddling_row(f9, blocks, 0, [1, 1]))
    assert distance._summands(words_to_array(rows) != 0) == ([(0, 8)], [[0, 1, 2, 4]])
    assert distance._summands(words_to_array([(f9.zero,) * 8]) != 0) == ([], [])
    inner = laid_out(f9, [blocks[0], (2, []), (3, [(el(4), el(1), el(0))])])
    assert distance._summands(words_to_array(inner) != 0) == ([(0, 5), (5, 8)], [[0], [1]])
    leading = laid_out(f9, [(2, []), blocks[0]])
    assert distance._summands(words_to_array(leading) != 0) == ([(0, 5)], [[0]])


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
    """The summands' bases placed at their columns, as field elements, and
    their pivots."""
    _, parts = distance._reduce_by_summand(rows, spec)
    zero, n = spec.zero, len(rows[0]) if rows else 0
    basis = [
        (zero,) * part.lo + tuple(spec.exp[x] for x in row) + (zero,) * (n - part.hi)
        for part in parts
        for row in part.basis
    ]
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


# --- one coefficient vector per projective class, against every vector ---


def hidden_block(spec, rng, weight):
    """(width, rows) of a [weight + 3, 2] block whose rows (1, 0, x) and
    (0, 1, y), its RREF, weigh weight + 2, where y = -x but on weight - 2
    columns: their sum has the given weight, 2 to 4, and every word that is
    no multiple of it weighs more (weight + 2, or at least 5)."""
    nonzero = [spec.from_int(c) for c in range(1, spec.q)]
    x = [rng.choice(nonzero) for _ in range(weight + 1)]
    moved = rng.sample(range(weight + 1), weight - 2)
    y = [rng.choice([c for c in nonzero if c != -a]) if j in moved else -a for j, a in enumerate(x)]
    return weight + 3, [(spec.one, spec.zero, *x), (spec.zero, spec.one, *y)]


def differential_cases():
    """(spec, rows, unreached) of seeded block codes over every field of
    DIFFERENTIAL_FIELDS: a hidden block of each weight 2, 3 and 4 alone,
    then codes of one to four contiguous blocks, each a hidden block of
    weight 2, 3 or 4 or a planted one, which hides a word of that weight
    under one or two masks. In some a column that no row reaches
    (unreached) follows a block, and stays in its summand."""
    rng = random.Random(40)
    for name in sorted(DIFFERENTIAL_FIELDS):
        spec = make_field(*DIFFERENTIAL_FIELDS[name])
        for weight in (2, 3, 4):
            blocks = [hidden_block(spec, rng, weight)]
            if weight == 3:
                blocks.append((1, []))
            yield spec, laid_out(spec, blocks), weight == 3
        for _ in range(6):
            blocks = []
            for _ in range(rng.choice((1, 1, 2, 3, 4))):
                weight = rng.randint(2, 4)
                if rng.random() < 0.5:
                    blocks.append(hidden_block(spec, rng, weight))
                    continue
                width = rng.randint(5, 8)
                support = rng.sample(range(width), weight)
                planted = [rng.randint(1, spec.q - 1) if i in support else 0 for i in range(width)]
                masks = [[rng.randrange(spec.q) for _ in range(width)] for _ in range(rng.choice((1, 1, 2)))]
                blocks.append((width, planted_rows(spec, planted, masks)))
            unreached = rng.random() < 0.3
            if unreached:
                blocks.insert(rng.randint(1, len(blocks)), (1, []))
            rows = laid_out(spec, blocks)
            rng.shuffle(rows)
            yield spec, rows, unreached


def test_min_distance_is_the_sweep_over_every_coefficient_vector():
    """min_distance, which sums one coefficient vector per projective class
    and row-reduces on logarithms, gives the DistanceResult of the sweep
    over every vector on field elements (reference), refusals included, at
    every level boundary of the budget and the default, with the message
    enumeration allowed and denied. Between them the cases find lighter
    words of weight 2, 3 and 4, certify, run out of budget and hold a
    column no row reaches."""
    seen = set()
    for spec, rows, unreached in differential_cases():
        n = len(rows[0])
        for budget in level_boundaries(n, spec.q) + [distance.DEFAULT_BUDGET]:
            for cap in (distance.ENUM_CAP, 0):
                with enumeration_cap(cap):
                    ours = outcome(min_distance, rows, spec, budget)
                    assert ours == outcome(full_coefficient_min_distance, rows, spec, budget)
                method = ours.method if isinstance(ours, DistanceResult) else ours[0]
                seen.add((method, ours.exact) if method == "sweep-found-lighter" else method)
                if unreached and method.startswith("sweep"):
                    seen.add("unreached")
    assert seen >= {
        ("sweep-found-lighter", 2), ("sweep-found-lighter", 3), ("sweep-found-lighter", 4),
        "sweep-certified", "sweep-budget-exhausted", "message-enumeration", "refused", "unreached",
    }


def test_each_prefix_sums_one_vector_per_projective_class(f9, f25, monkeypatch):
    """A spy on _prefix_sums sees (q-1)^(w-2) sums per prefix at w = 2, 3
    and 4, over F9 and F25, where the sweep over every vector made
    (q-1)^(w-1): random [8, 4] codes swept to weight 4."""
    seen = {}
    prefix_sums = distance._prefix_sums

    def spy(scaled, arrays, prefixes):
        sums = prefix_sums(scaled, arrays, prefixes)
        assert sums.shape[0] == len(prefixes)
        seen.setdefault((scaled.shape[1] + 1, prefixes.shape[1] + 1), set()).add(sums.shape[1])
        return sums

    monkeypatch.setattr(distance, "_prefix_sums", spy)
    rng = random.Random(44)
    with enumeration_cap(0):
        for spec in (f9, f25):
            while (spec.q, 4) not in seen:
                min_distance(random_rows(spec, rng, 4, 8), spec, budget=10 ** 8)
    assert seen == {(q, w): {(q - 1) ** (w - 2)} for q in (9, 25) for w in (2, 3, 4)}


# --- one column table and one pass per level for all summands ---

SPLIT_FIELDS = {**KERNEL_FIELDS, "F3": (3, 1, [0, 1], 1), "F9": (3, 2, [1, 0, 1], 1), "F25": (5, 2, [1, 1, 1], 1)}


def planted_block(spec, rng, width, weight):
    """(width, rows) of a block that hides a word of the given weight under
    one or two masks."""
    support = rng.sample(range(width), weight)
    planted = [rng.randint(1, spec.q - 1) if i in support else 0 for i in range(width)]
    masks = [[rng.randrange(spec.q) for _ in range(width)] for _ in range(rng.choice((1, 2)))]
    return width, planted_rows(spec, planted, masks)


def split_blocks(spec, rng, kinds):
    """Blocks laid out in the order of `kinds`: a hidden block (heights 3 to
    5 by its weight), a planted one, a copy of the block before (identical
    summands, whose untagged keys collide), a width-1 block of one unit
    (a full-space summand: weight 1) or a column no row reaches (it joins
    the summand before it, or the first)."""
    blocks = []
    for kind in kinds:
        if kind == "hidden":
            blocks.append(hidden_block(spec, rng, rng.randint(2, 4)))
        elif kind == "planted":
            width = rng.randint(3, 6)
            blocks.append(planted_block(spec, rng, width, rng.randint(2, width)))
        elif kind == "copy" and blocks:
            blocks.append(blocks[-1])
        elif kind == "unit":
            blocks.append((1, [(spec.from_int(rng.randint(1, spec.q - 1)),)]))
        elif kind == "unreached":
            blocks.append((1, []))
    if not any(rows for _, rows in blocks):
        blocks.append(hidden_block(spec, rng, 2))
    return blocks


def split_cost_ok(spec, n, budget):
    """Whether the per-support loop of reference_min_distance stays quick:
    it sums every support of a level on (q-1)^w coefficient vectors."""
    total, w = 0, 1
    while w < n and total + comb(n, w) * (spec.q - 1) ** w <= budget:
        total += comb(n, w) * (spec.q - 1) ** w
        w += 1
    return comb(n, w - 1) * (spec.q - 1) ** (w - 1) <= 10 ** 6


@st.composite
def split_codes(draw):
    """(spec, rows, budget): two to four blocks of split_blocks' kinds over
    SPLIT_FIELDS, rows shuffled, at a level boundary of the budget or a
    drawn one."""
    spec = make_field(*SPLIT_FIELDS[draw(st.sampled_from(sorted(SPLIT_FIELDS)))])
    kinds = draw(st.lists(st.sampled_from(("hidden", "hidden", "planted", "copy", "unit", "unreached")), min_size=2, max_size=4))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    rows = laid_out(spec, split_blocks(spec, rng, kinds))
    budget = draw(st.one_of(
        st.sampled_from(level_boundaries(len(rows[0]), spec.q)),
        st.integers(0, 3000),
        st.just(distance.DEFAULT_BUDGET),
    ))
    return spec, draw(st.permutations(rows)), budget


def assert_split_results_agree(spec, rows, budget):
    """min_distance against the per-summand sweep, with the enumeration
    allowed and denied, and with it denied against the whole-matrix
    per-support loop, where that loop is quick: the DistanceResult, or the
    refusal. Returns the result with the enumeration denied."""
    for cap in (distance.ENUM_CAP, 0):
        with enumeration_cap(cap):
            ours = outcome(min_distance, rows, spec, budget)
            assert ours == outcome(per_summand_min_distance, rows, spec, budget)
    if split_cost_ok(spec, len(rows[0]), budget):
        with enumeration_cap(0):
            assert ours == outcome(reference_min_distance, rows, spec, budget)
    return ours


@settings(max_examples=120, deadline=None)
@given(split_codes())
def test_one_pass_sweep_is_the_per_summand_sweep(case):
    assert_split_results_agree(*case)


def seeded_split_cases():
    """(spec, rows, kinds) over every field of SPLIT_FIELDS: each kind of
    split_blocks next to hidden blocks, two different hidden blocks of one
    weight (hits in two summands at one level), and a heavy block of one
    full-weight row before a hidden block (the first hit in a later
    summand)."""
    rng = random.Random(44)
    layouts = (
        ("hidden", "copy"), ("hidden", "hidden", "hidden"), ("planted", "hidden", "unreached"),
        ("unreached", "hidden", "planted"), ("hidden", "unit"), ("copy", "hidden", "copy", "planted"),
    )
    for name in sorted(SPLIT_FIELDS):
        spec = make_field(*SPLIT_FIELDS[name])
        for kinds in layouts:
            yield spec, laid_out(spec, split_blocks(spec, rng, kinds)), kinds
        heavy = (5, [tuple(spec.from_int(rng.randint(1, spec.q - 1)) for _ in range(5))])
        for weight in (2, 3):
            later = [heavy, hidden_block(spec, rng, weight)]
            yield spec, laid_out(spec, later), ("heavy", "hidden")
            twins = [hidden_block(spec, rng, weight), hidden_block(spec, rng, weight)]
            yield spec, laid_out(spec, twins), ("hidden", "hidden")


def test_one_pass_sweep_meets_every_split_case():
    """Seeded split codes over every field of SPLIT_FIELDS, at every level
    boundary of the budget and the default: min_distance equals the
    per-summand sweep and the whole-matrix loop. Between them the cases
    find a lighter word in the first and in a later summand, hits in two
    summands at one level, certify weight 1 by a width-1 summand and
    weight 2 or more, and run out of budget."""
    seen = set()
    for spec, rows, kinds in seeded_split_cases():
        n = len(rows[0])
        for budget in level_boundaries(n, spec.q) + [distance.DEFAULT_BUDGET]:
            ours = assert_split_results_agree(spec, rows, budget)
            if not isinstance(ours, DistanceResult):
                continue
            if ours.method == "sweep-found-lighter":
                first = next(i for i, c in enumerate(ours.witness) if not c.is_zero)
                seen.add(("lighter", "later" if first >= 5 and kinds[0] == "heavy" else "first"))
                if kinds == ("hidden", "hidden") or "copy" in kinds:
                    seen.add("two summands hit")
            elif ours.method == "sweep-certified":
                seen.add((ours.method, min(ours.exact, 2)))
            else:
                seen.add(ours.method)
    assert seen >= {
        ("lighter", "first"), ("lighter", "later"), "two summands hit",
        ("sweep-certified", 1), ("sweep-certified", 2), "sweep-budget-exhausted",
    }


def tall_block(f3, rng, n, weight):
    """(n, rows) of an [n, 2] block over F3 holding a word of the given
    weight that neither its rows nor its RREF present, nor anything as
    light, as in test_keys_are_int64_below_2_63_and_bytes_above. The word
    starts at column 0, so the block is one summand and its H has n - 2
    rows."""
    support = [0] + sorted(rng.sample(range(1, n // 2), weight - 1))
    planted = [rng.randint(1, 2) if i in support else 0 for i in range(n)]
    tail = [rng.randrange(3) for _ in range(n - support[1] - 1)]
    rows = planted_rows(f3, planted, [[0] * support[1] + [rng.randint(1, 2)] + tail])
    assert min(hamming_weight(row) for row in rows + rref(rows)[0]) > weight
    return n, rows


@pytest.mark.parametrize("tall_first", [True, False])
@pytest.mark.parametrize("height, summands, kind", [(39, 2, "i"), (40, 2, "V"), (38, 4, "i"), (39, 4, "V")])
def test_tagged_keys_are_int64_below_2_63_and_bytes_above(f3, monkeypatch, height, summands, kind, tall_first):
    """`summands` summands over F3: a tall block, whose H has `height`
    rows, with a word of weight 3, and one or three [5, 1] blocks of one
    row of weight 5, the tall block first or last. The tag is the
    summand's index times 3^height, so 3^height * summands < 2^63 gives
    int64 keys, at height 39 for two summands and 38 for four, and byte
    keys with one tag entry at 40 and 39, for the table and every batch.
    Either way the sweep finds the word the whole-matrix loop and the
    per-summand sweep find, in the first or the last summand."""
    assert (3 ** height * summands < 2 ** 63) == (kind == "i")
    rng = random.Random(height)
    tall = tall_block(f3, rng, height + 2, 3)
    others = [(5, [(f3.one,) * 5])] * (summands - 1)
    rows = laid_out(f3, [tall, *others] if tall_first else [*others, tall])
    checks = [part.hi - part.lo - len(part.basis) for part in distance._reduce_by_summand(rows, f3)[1]]
    assert checks == ([height] + [4] * (summands - 1) if tall_first else [4] * (summands - 1) + [height])
    kinds = set()
    row_keys = distance._row_keys

    def spy(rows, q, tags, count):
        keys = row_keys(rows, q, tags, count)
        kinds.add((rows.shape[-1], count, keys.dtype.kind))
        return keys

    monkeypatch.setattr(distance, "_row_keys", spy)
    budget = distance.DEFAULT_BUDGET
    with enumeration_cap(0):  # 3^(summands + 1) messages
        expected = reference_min_distance(rows, f3, budget)
        assert (expected.exact, expected.method) == (3, "sweep-found-lighter")
        assert min_distance(rows, f3, budget) == expected == per_summand_min_distance(rows, f3, budget)
    assert {(width, k) for width, count, k in kinds if count == summands} == {(height, kind)}


@pytest.mark.parametrize("summands", [4, 5])
def test_more_summands_than_q(f3, summands):
    """F3 codes of 4 and 5 one-row summands, alone and before a hidden
    block: the tags reach q = 3 and pass it, so index * 3^m carries into
    the base-3 digit above the tag's first, and the hidden block's words
    must not complete on the columns of the summand whose index it shares
    modulo 3. min_distance equals the per-summand sweep and the
    whole-matrix forms, refusals included, with the enumeration allowed
    and denied, at every level boundary of the budget and the default."""
    rng = random.Random(summands)
    seen = set()
    for _ in range(6):
        blocks = []
        for _ in range(summands):
            width = rng.randint(4, 5)
            blocks.append((width, [tuple(f3.from_int(rng.randint(1, 2)) for _ in range(width))]))
        for layout in (blocks, blocks + [hidden_block(f3, rng, rng.randint(2, 3))]):
            rows = laid_out(f3, layout)
            assert len(distance._reduce_by_summand(rows, f3)[1]) == len(layout)
            for budget in level_boundaries(len(rows[0]), 3) + [distance.DEFAULT_BUDGET]:
                for cap in (distance.ENUM_CAP, 0):
                    with enumeration_cap(cap):
                        ours = outcome(min_distance, rows, f3, budget)
                        assert ours == outcome(per_summand_min_distance, rows, f3, budget)
                        assert ours == outcome(reference_min_distance, rows, f3, budget)
                    seen.add(ours.method if isinstance(ours, DistanceResult) else ours[0])
    assert seen >= {"message-enumeration", "sweep-certified", "sweep-found-lighter", "sweep-budget-exhausted"}


def enumerated_by_hand(rows, spec):
    """The message enumeration on field elements: every combination of the
    RREF rows, coefficient codes in base q with the first row most
    significant, and the first word of least nonzero weight."""
    basis = rref(rows)[0]
    best = None
    for message in product(range(spec.q), repeat=len(basis)):
        word = [spec.zero] * len(rows[0])
        for c, row in zip(message, basis):
            word = [a + spec.from_int(c) * b for a, b in zip(word, row)]
        weight = hamming_weight(word)
        if weight and (best is None or weight < best[0]):
            best = (weight, tuple(word))
    return DistanceResult(best[0], None, best[1], spec.q ** len(basis), "message-enumeration")


def test_enumeration_places_each_summand_at_its_columns():
    """The enumeration places each summand's RREF rows at its columns in one
    logarithm array: on split codes with columns no row reaches, leading
    and inner, and zero rows, over F3, F5 and F9, it meets the words the
    enumeration on field elements meets, in the same order."""
    rng = random.Random(45)
    layouts = (("unreached", "hidden", "planted"), ("hidden", "unreached", "hidden"), ("planted", "unit", "unreached"))
    for name in ("F3", "F5", "F9"):
        spec = make_field(*SWEEP_FIELDS[name])
        for kinds in layouts:
            rows = laid_out(spec, split_blocks(spec, rng, kinds))
            rows.insert(rng.randint(0, len(rows)), (spec.zero,) * len(rows[0]))
            rng.shuffle(rows)
            if spec.q ** Span(rows).dim > distance.ENUM_CAP:
                continue
            assert min_distance(rows, spec) == enumerated_by_hand(rows, spec)


def test_split_sweep_batches_and_memory_are_bounded(f3, monkeypatch):
    """Random [24, 12] and [20, 10] blocks over F3, side by side, have no
    word of weight 4 or less; the sweep finishes weight 4, 10960 prefix
    sums in batches of at most _CHUNK, one of which holds prefixes of both
    summands, before the budget stops it at weight 5. The traced peak stays
    within the bound of test_sweep_memory_is_bounded_by_the_batch."""
    rng = random.Random(5)
    rows = laid_out(f3, [(24, random_rows(f3, rng, 12, 24)), (20, random_rows(f3, rng, 10, 20))])
    n, k = 44, 22
    words, parts = distance._reduce_by_summand(rows, f3)
    assert [(part.lo, part.hi, len(part.basis)) for part in parts] == [(0, 24, 12), (24, 44, 10)]
    sums, straddle = [], []
    prefix_sums = distance._prefix_sums

    def spy(scaled, arrays, prefixes):
        out = prefix_sums(scaled, arrays, prefixes)
        sums.append((prefixes.shape[1] + 1, out.shape[0] * out.shape[1]))
        straddle.append(prefixes[0, 0] < 24 <= prefixes[-1, 0])
        return out

    monkeypatch.setattr(distance, "_prefix_sums", spy)
    field_tables(f3)
    tracemalloc.start()
    try:
        res = distance._bounded_weight_sweep(rows, words, parts, f3, distance.DEFAULT_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.method == "sweep-budget-exhausted"
    assert res.bounds[0] == 5
    level = [count for w, count in sums if w == 4]
    assert sum(level) == (comb(23, 3) + comb(19, 3)) * 2 ** 2 == 10960
    assert len(level) >= 3 and max(count for _, count in sums) <= distance._CHUNK
    assert any(straddle)
    assert peak < 32 * distance._CHUNK * (n - k)


# --- rows that are no matrix over spec ---


def refuse_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("built")

    monkeypatch.setattr(distance, "_reduce_by_summand", refuse)


def test_rows_of_another_field_are_refused(f9, f25, monkeypatch):
    """F9 rows with the F25 spec raise MixedRingsError before anything is
    built; they were answered as an F25 code (message enumeration over
    15625 words)."""
    rows = random_rows(f9, random.Random(1), 3, 6)
    refuse_building(monkeypatch)
    with pytest.raises(MixedRingsError, match=r"not an element of GF\(5\^2; t=1\)"):
        min_distance(rows, f25)
    with pytest.raises(MixedRingsError):
        min_distance(rows[:2] + [rows[2][:5] + (f25.one,)], f9)


def test_ragged_rows_are_refused(f9, monkeypatch):
    """Rows of unequal length raise LengthMismatchError before anything is
    built, where numpy raised its inhomogeneous-shape ValueError."""
    rows = random_rows(f9, random.Random(2), 2, 6) + random_rows(f9, random.Random(3), 1, 5)
    refuse_building(monkeypatch)
    with pytest.raises(LengthMismatchError, match=r"^rows of lengths \[5, 6\] in one matrix$"):
        min_distance(rows, f9)


def test_rows_of_ints_are_refused(f9, monkeypatch):
    """Int entries raise MixedRingsError before anything is built, where
    reading their code raised AttributeError."""
    refuse_building(monkeypatch)
    for rows in ([(1, 2, 0, 1)], [(f9.one, f9.zero, 1, f9.one)]):
        with pytest.raises(MixedRingsError):
            min_distance(rows, f9)
