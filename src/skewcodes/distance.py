"""Minimum Hamming distance for F_q linear codes given by generator rows.

Exact answers come from one of two certificates:
  * full message enumeration when q^dim is small, or
  * a bounded-weight absence sweep against a parity-check matrix H (no word
    of weight < d exists) together with an exhibited weight-d codeword.
Otherwise the result degrades to bounds. The sweep decides each weight w by
lookup: it sums the scaled columns of H over every (w-1)-position prefix and
looks the sums up in a sorted table of the scaled columns c*h_j, by exact
keys of their logarithms, a batch of _CHUNK sums per numpy pass. It sums
one coefficient vector per projective class, the one whose first
coefficient is 1, (q-1)^(w-2) sums per prefix: the table is closed under
scaling, so a vector and its multiples complete alike, and the first word
in (support, coefficient) order has first coefficient 1 already
(_bounded_weight_sweep). A level still counts all of its C(n, w) (q-1)^w
candidates. The sweep runs in numpy on the field's logarithm arrays
(gf.FieldArrays), which are exact.

The rows are read once into logarithm lists, the one conversion from
field elements (_reduce_by_summand), and split into contiguous direct
summands: a cut falls before a column where a row starts and no row has
nonzero entries on both sides, as between the four CRT blocks of a Gray
image. The row reduction is made summand by summand, and each summand's H
is read off its own RREF, so a code that splits is never reduced as one
length-n matrix; a matrix that does not split is the one-summand case. The
sweep then decides each level for all summands at once (_Lookup): one
table of every summand's scaled columns, each key carrying its summand's
index as an offset (_row_keys), and one stream of the summands' prefixes
through the batches, with the whole code's bound, budget gate and counts.
The enumeration places the summands' RREF rows in one logarithm array. A
summand keeps its RREF and parity checks as logarithm lists (linalg on
logarithms) up to the table; field elements are made only for a reported
row.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .errors import DEFAULT_BUDGET, LengthMismatchError, MixedRingsError, charge
from .gf import FieldArrays, FieldElement, FieldSpec
from .linalg import nullspace, rref

ENUM_CAP = 200_000
# Prefix sums tested per numpy batch of the distance sweep. A batch's
# working memory is about 30 bytes per sum and parity check (tracemalloc
# peaks of F3 sweeps through weight 4: 29.9 on one [48, 24] summand, 31.7
# on [24, 12] + [20, 10]), so this bounds it whatever the number of
# prefixes in a level.
_CHUNK = 1 << 12


def field_tables(spec: FieldSpec) -> FieldArrays:
    """The field's logarithm arrays, on which every sum and product here is
    made. The traced benchmark (perfbench/tracer.py) times this call by
    name, until its revision (ROADMAP item 1a)."""
    return spec.arrays()


def array_to_word(row, spec: FieldSpec):
    return tuple(spec.from_int(int(c)) for c in row)


@dataclass(frozen=True)
class DistanceResult:
    exact: int | None
    bounds: tuple | None
    witness: tuple | None
    candidates_swept: int
    method: str
    defined: bool = True

    def as_dict(self):
        out = {
            "defined": self.defined,
            "method": self.method,
            "candidates_swept": self.candidates_swept,
        }
        if self.exact is not None:
            out["exact"] = self.exact
        if self.bounds is not None:
            out["bounds"] = list(self.bounds)
        if self.witness is not None:
            out["witness"] = [c.to_int() for c in self.witness]
        return out


def min_distance(rows, spec: FieldSpec, budget: int = DEFAULT_BUDGET) -> DistanceResult:
    """Minimum nonzero weight of the row space of `rows` over spec.

    Raises LengthMismatchError for rows of unequal length and
    MixedRingsError for an entry that is not an element of spec, before
    anything is built.
    """
    rows = list(rows)
    if len({len(row) for row in rows}) > 1:
        raise LengthMismatchError(f"rows of lengths {sorted({len(row) for row in rows})} in one matrix")
    # fields are interned: a field check is `is`
    if not all(c.__class__ is FieldElement and c.spec is spec for row in rows for c in row):
        raise MixedRingsError(f"rows hold an entry that is not an element of {spec!r}")
    nonzero, parts = _reduce_by_summand(rows, spec)
    k = sum(len(part.basis) for part in parts)
    if k == 0:
        return DistanceResult(None, None, None, 0, "zero-code", defined=False)
    n = len(rows[0])
    q = spec.q
    if k == n:
        witness = [spec.zero] * n
        witness[0] = spec.one
        return DistanceResult(1, None, tuple(witness), 0, "full-space")
    if q ** k <= min(budget, ENUM_CAP):
        return _enumerate_messages(parts, n, spec, budget)
    return _bounded_weight_sweep(rows, nonzero, parts, spec, budget)


def _summands(nonzero):
    """(summands, parts) of the (r, n) mask of a matrix's nonzero entries:
    the column ranges (lo, hi) of the contiguous direct summands of its row
    space, in column order, and for each summand the indices of its rows
    (zero rows are in none). A cut falls before column c when a row starts
    at c and no row has nonzero entries on both sides of it. A column no
    row reaches stays in the summand before it (leading ones in the first),
    so every summand holds a row and the summands cover all n columns."""
    if not nonzero.any():
        return [], []
    n = nonzero.shape[1]
    held = nonzero.any(axis=1).tolist()
    first = nonzero.argmax(axis=1).tolist()
    last = (n - 1 - nonzero[:, ::-1].argmax(axis=1)).tolist()
    starts, reach = [], -1
    for lo, hi in sorted((f, l) for f, l, h in zip(first, last, held) if h):
        if lo > reach:
            starts.append(lo)
        reach = max(reach, hi)
    bounds = [0, *starts[1:], n]
    parts = [[] for _ in starts]
    for i, (f, h) in enumerate(zip(first, held)):
        if h:
            parts[bisect_right(bounds, f) - 1].append(i)
    return list(zip(bounds, bounds[1:])), parts


def _reduce_by_summand(rows, spec):
    """(nonzero, parts): the mask of the rows' nonzero entries, which the
    sweep reuses for its bound, and a _Summand for each contiguous direct
    summand, in column order, each given the logarithms of its rows cut to
    its columns. The rows are read into logarithm lists here, once: this
    is the only place the module reads an element's code."""
    log = spec.log
    logs = [[log[c.code] for c in row] for row in rows]
    nonzero = np.array(logs, dtype=np.intp) != spec.log_zero
    return nonzero, [
        _Summand(spec, lo, hi, [logs[i][lo:hi] for i in part]) for (lo, hi), part in zip(*_summands(nonzero))
    ]


def _enumerate_messages(parts, n, spec, budget) -> DistanceResult:
    """Every word of the row space of the summands' bases, as element codes,
    in the order of the messages read in base q, first row most
    significant: q^k words of n entries each, charged against the budget
    before the first is built. The bases are placed at their columns in
    one (k, n) logarithm array: the RREF of the whole matrix, which is its
    summands' RREFs side by side."""
    zero = spec.log_zero
    basis = [(zero,) * part.lo + row + (zero,) * (n - part.hi) for part in parts for row in part.basis]
    k, q = len(basis), spec.q
    charge(budget, q ** k * n, f"message enumeration needs q^k * n = {q}^{k} * {n}", "entries")
    arrays = field_tables(spec)
    # multiples[c, r] = c*g_r for the element c with code c
    multiples = arrays.exp[arrays.log[:, None, None] + np.array(basis, dtype=np.intp)]
    words = multiples[:, 0]
    if k > 1:
        # q^2 <= ENUM_CAP, so q <= 447: one q x q table of int16 sums
        log = arrays.log[:, None]
        add = arrays.exp[log + arrays.plus[log.T + arrays.zero - log]].astype(np.int16)
        words = words.astype(np.int16)
        for r in range(1, k):
            words = add[words[:, None, :], multiples[None, :, r]].reshape(-1, n)
    weights = np.count_nonzero(words, axis=1)
    nz = weights > 0
    d = int(weights[nz].min())
    idx = int(np.flatnonzero(nz & (weights == d))[0])
    return DistanceResult(d, None, array_to_word(words[idx], spec), int(len(words)), "message-enumeration")


def _row_keys(rows, q, tags, count) -> np.ndarray:
    """One key per row (the last axis) of m logarithms and its tag, a
    summand index below `count` that broadcasts against the leading axes;
    keys are equal exactly when rows and tags are. The logarithm of 0,
    2(q-1), is folded to q - 1, so every entry is in [0, q): the key is the
    row read in base q plus tag * q^m, an int64 when count * q^m < 2^63,
    else an np.void of the row's int32 bytes and the tag's. The kind
    depends on q, m and count only, so a table and its batches agree."""
    width = rows.shape[-1]
    rows = np.minimum(rows, q - 1)
    if count * q ** width < 1 << 63:
        return (rows @ q ** np.arange(width, dtype=np.int64) + tags * q ** width).ravel()
    tags = np.broadcast_to(tags, rows.shape[:-1])[..., None]
    rows = np.concatenate((rows, tags), axis=-1).astype(np.int32).reshape(-1, width + 1)
    return rows.view(np.dtype((np.void, 4 * (width + 1)))).ravel()


def _prefix_sums(scaled, arrays, prefixes):
    """(P, (q-1)^(w-2), m) logarithms of sums: for each of the P prefixes
    (rows of w-1 positions), the sums of its scaled columns over every
    coefficient vector whose first coefficient is 1, in product order of
    the others."""
    wrap, plus, zero = arrays.wrap, arrays.plus, arrays.zero
    sums = scaled[prefixes[:, 0], :1]  # the coefficient with code 1 is the element 1
    for i in range(1, prefixes.shape[1]):
        x = sums[:, :, None, :]
        # log(x + y) = wrap[x + plus[y - x + zero]] on logarithms x, y
        sums = wrap[x + plus[(scaled[prefixes[:, i]][:, None] + zero) - x]]
        sums = sums.reshape(len(prefixes), -1, sums.shape[-1])
    return sums


class _Summand:
    """One contiguous direct summand, columns [lo, hi), of a code: the RREF
    of its rows cut to its columns, given and kept as logarithm lists."""

    def __init__(self, spec, lo, hi, rows):
        self.lo, self.hi = lo, hi
        self.basis, self.pivots = rref(rows, spec)


class _Lookup:
    """The sweep's lookup, one for all the summands of a code: the scaled
    columns c*h_j of each summand's own parity checks H, read off its own
    RREF, side by side as one (n, q-1, m) array `scaled` of logarithms, each
    H padded with zero rows to the tallest summand's m rows; and one sorted
    table of their distinct keys, each carrying its summand's index as its
    tag (_row_keys, for s summands: index * q^m added to an int64 key while
    s * q^m < 2^63, one more int32 entry in a byte key past it), with the
    largest column j that gives it. A sum carries its prefix's summand, so
    it matches only columns of that summand; a one-summand code's tags are
    all 0 and its int64 keys are the rows read in base q.

    Made when the sweep reaches weight 2, that is when no summand has a
    weight-1 word or is the full space: each H has a row and no zero column.
    """

    def __init__(self, parts, spec, arrays):
        q = self.q = spec.q
        self.parts, self.arrays = parts, arrays
        checks = [nullspace(p.basis, p.hi - p.lo, spec, p.pivots, logs=True) for p in parts]
        height = max(map(len, checks))
        # the columns h_j of every H, each padded with the logarithm of 0 to `height`
        columns = [h_j + (spec.log_zero,) * (height - len(h)) for h in checks for h_j in zip(*h)]
        columns = np.array(columns, dtype=np.intp)
        self.scaled = arrays.wrap[arrays.log[1:, None] + columns[:, None, :]]  # log(c*h_j), c = 1 .. q-1
        self.owner = np.repeat(np.arange(len(parts)), [part.hi - part.lo for part in parts])
        keys = _row_keys(self.scaled, q, self.owner[:, None], len(parts))  # column j's rows come j-th
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        run_end = np.append(keys[1:] != keys[:-1], True)
        self.keys, self.last = keys[run_end], order[run_end] // (q - 1)

    def first_prefix(self, w):
        """The first (w-1)-position prefix P, in (summand, combinations)
        order, with a sum over P equal to some c*h_j of P's summand with
        j > max(P); None when there is none. Only sums with first
        coefficient 1 are tried: a multiple of a sum hits the same columns
        (_bounded_weight_sweep).

        The prefixes of all summands are tested a batch at a time, _CHUNK
        sums per batch, or one prefix when its (q-1)^(w-2) sums are more:
        one key per sum and one searchsorted against the table per batch.
        A batch may hold prefixes of several summands.
        """
        keys, last, q = self.keys, self.last, self.q
        count = (q - 1) ** (w - 2)
        prefixes = chain.from_iterable(combinations(range(part.lo, part.hi - 1), w - 1) for part in self.parts)
        per_batch = max(1, _CHUNK // count)
        while True:
            batch = np.fromiter(chain.from_iterable(islice(prefixes, per_batch)), dtype=np.intp)
            if not batch.size:
                return None
            batch = batch.reshape(-1, w - 1)
            sums = _prefix_sums(self.scaled, self.arrays, batch)
            wanted = _row_keys(sums, q, self.owner[batch[:, :1]], len(self.parts))
            pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
            hit = (keys[pos] == wanted) & (last[pos] > np.repeat(batch[:, -1], count))
            if hit.any():
                return tuple(int(j) for j in batch[hit.argmax() // count])
            if len(batch) < per_batch:
                return None

    def first_word(self, w):
        """The code's first word of weight w >= 2 in (support, coefficient)
        order, as (column, coefficient code) pairs, or None; asked for
        w = 2, 3, .. in turn, each only once no lighter word was found. Its
        first coefficient is 1 (_bounded_weight_sweep). The completion runs
        on the columns of the prefix's own summand, with no tag."""
        prefix = self.first_prefix(w)
        if prefix is None:
            return None
        arrays, q, scaled = self.arrays, self.q, self.scaled
        # the keys of the prefix's sums, negated (log(-x) = log x + (q-1)/2),
        # one per coefficient vector (1, c_2, .., c_(w-1)) in product order
        T = _prefix_sums(scaled, arrays, np.array([prefix]))[0]
        wanted = _row_keys(arrays.wrap[T + arrays.half], q, 0, 1)
        for j in range(prefix[-1] + 1, self.parts[self.owner[prefix[0]]].hi):
            column = _row_keys(scaled[j], q, 0, 1)
            hits = np.isin(wanted, column)
            if hits.any():
                i = int(hits.argmax())
                coefs = (0, *np.unravel_index(i, (q - 1,) * (w - 2)), np.flatnonzero(column == wanted[i])[0])
                return tuple(zip(prefix + (j,), (int(c) + 1 for c in coefs)))


def _bounded_weight_sweep(rows, nonzero, parts, spec, budget) -> DistanceResult:
    """Sweep weights 1, 2, .. below the lightest presented row for a codeword.

    `nonzero` is the mask of the rows' nonzero entries and `parts` their
    summands, as _reduce_by_summand gives them. A word with support
    P + (j,), j > max(P), and nonzero coefficients is a codeword iff its
    prefix sum T = sum_{i in P} c_i h_i over the columns of the
    parity-check matrix H equals -c_j h_j. The scaled columns {c*h_j : c != 0} are closed under
    negation, so each prefix P of w - 1 positions has a weight-w completion
    iff one of its (q-1)^(w-1) sums is a scaled column c*h_j with j > max(P).
    A level's sums are looked up in a sorted table of the scaled columns,
    one searchsorted per batch of about _CHUNK sums, instead of adding
    every last column.
    Supports in combinations order are ordered by (prefix, last column), so
    enumerating the completions of the first prefix that has one gives the
    word a full enumeration meets first.

    Only the (q-1)^(w-2) sums whose first coefficient c_1 is 1 are tried,
    one per projective class. The sum of the vector l*c is l times the sum
    of c, and l*(c*h_j) = (l*c)*h_j, so the table is closed under scaling:
    a sum is some c*h_j exactly when its multiples are, with the same
    columns j and so the same largest one. A prefix with any completion
    therefore has one with c_1 = 1, the multiple by c_1^(-1). Nor does the
    word found change: the coefficient vectors of one support run in
    product order, c_1 most significant, and coefficient code 1, the first,
    is the element 1. If some vector completes at the first last column j,
    so does its multiple with c_1 = 1, which comes before every vector with
    another c_1; so the first word of the full order has c_1 = 1. Nor does
    the count: candidates_swept is a level's C(n, w) (q-1)^w candidates,
    all of them decided, whatever the sums made to decide them.

    Each level is decided for all summands in one pass (_Lookup), on each
    summand's own H. At the first level w that has a word, every lighter
    level has none, so w is the least summand distance and each weight-w
    word lies in one summand (two nonzero parts weigh at least 2w). A sum
    is matched only against columns of its own summand, by its tag, and
    the prefixes run in (summand, combinations) order: every support in a
    summand precedes those in later ones, so the first hit is in the first
    summand that has a word, at its first completable prefix, and gives
    the word the whole sweep meets first. The bound (the first lightest
    presented row, the rows before their RREF), the budget gate and
    candidates_swept stay the whole code's: each level still counts its
    C(n, w) (q-1)^w candidates. A weight-1 codeword e_j is the RREF row
    with pivot j, so level 1, below a bound of 2 or more, has no word to
    find, and the table is made at level 2.
    """
    n, q = nonzero.shape[1], spec.q
    # upper bound and witness candidate: the first lightest presented row,
    # made of field elements only if it is an RREF row
    basis = [(part, row) for part in parts for row in part.basis]
    zero = spec.log_zero
    weights = np.count_nonzero(nonzero, axis=1).tolist() + [len(row) - row.count(zero) for _, row in basis]
    best_w = min(w for w in weights if w)
    best = weights.index(best_w)
    if best < len(rows):
        best_row = tuple(rows[best])
    else:
        part, row = basis[best - len(rows)]
        best_row = (spec.zero,) * part.lo + tuple(spec.exp[x] for x in row) + (spec.zero,) * (n - part.hi)

    swept, lookup = 0, None
    for w in range(1, best_w):
        level = comb(n, w) * (q - 1) ** w
        if swept + level > budget:
            return DistanceResult(None, (w, best_w), best_row, swept, "sweep-budget-exhausted")
        arrays = field_tables(spec)
        if w > 1:
            lookup = lookup or _Lookup(parts, spec, arrays)
            found = lookup.first_word(w)
            if found is not None:
                word = [spec.zero] * n
                for pos, c in found:
                    word[pos] = spec.from_int(c)
                return DistanceResult(w, None, tuple(word), swept, "sweep-found-lighter")
        swept += level
    return DistanceResult(best_w, None, best_row, swept, "sweep-certified")
