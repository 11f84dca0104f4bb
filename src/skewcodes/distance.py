"""Minimum Hamming distance for F_q linear codes given by generator rows.

Exact answers come from one of two certificates:
  * full message enumeration when q^dim is small, or
  * a bounded-weight absence sweep against a parity-check matrix H (no word
    of weight < d exists) together with an exhibited weight-d codeword.
Otherwise the result degrades to bounds. The sweep decides each weight w by
lookup: it sums the scaled columns of H over every (w-1)-position prefix and
looks the sums up in a sorted table of the scaled columns c*h_j, by exact
keys of their integer codes, a batch of _CHUNK sums per numpy pass.
A level still counts all of its C(n, w) (q-1)^w candidates. Everything runs
in numpy over integer element codes, with exact arithmetic tables.

The rows are split into contiguous direct summands first: a cut falls
before a column where a row starts and no row has nonzero entries on both
sides, as between the four CRT blocks of a Gray image. The row reduction and
every level of the sweep are then made summand by summand, with the whole
code's bound, budget gate and counts, so a code that splits is never
reduced or swept as one length-n matrix; a matrix that does not split is the
one-summand case.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .errors import DEFAULT_BUDGET, FieldTooLargeError, charge
from .gf import FieldSpec
from .linalg import nullspace, rref

ENUM_CAP = 200_000
# Prefix sums tested per numpy batch of the distance sweep. A batch's
# working memory is about 18 bytes per sum and parity check (traced), so
# this bounds it whatever the number of prefixes in a level.
_CHUNK = 1 << 12
# Element codes the int16 field tables and words hold: 0 .. 2^15 - 1.
_INT16_CODES = 1 << 15


def field_tables(spec: FieldSpec, budget: int = DEFAULT_BUDGET):
    """(add, mul) tables over integer element codes, dtype int16.

    The two q x q tables count against the budget like candidates do, and
    are refused before anything is allocated when q^2 exceeds it. They are
    also refused for q > 2^15, whatever the budget: an int16 code, and so
    every word built from the tables, would wrap there.
    """
    charge(budget, spec.q ** 2, "field tables need q^2", "entries")
    if spec.q > _INT16_CODES:
        raise FieldTooLargeError(f"field tables hold int16 codes, so q <= 2^15 = {_INT16_CODES}, got q = {spec.q}")
    return _field_tables(spec)


@functools.lru_cache(maxsize=None)
def _field_tables(spec: FieldSpec):
    # From the kernel's arrays (gf.FieldArrays), which cover zero too:
    # x*y = exp[log x + log y] and x+y = exp[log x + plus[log y - log x + zero]].
    arrays = spec.arrays()
    exp = arrays.exp.astype(np.int16)
    log = arrays.log[:, None]
    mul = exp[log + log.T]
    add = exp[log + arrays.plus[(log.T + arrays.zero) - log]]
    return add, mul


def words_to_array(words) -> np.ndarray:
    # int32: a code of F_q reaches q - 1, which is 2^15 or more above 3^9
    return np.array([[c.code for c in w] for w in words], dtype=np.int32)


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
    """Minimum nonzero weight of the row space of `rows` over spec."""
    rows = list(rows)
    words, parts = _reduce_by_summand(rows, spec)
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
        return _enumerate_messages(_placed(parts, n), spec, n, k, budget)
    return _bounded_weight_sweep(rows, words, parts, spec, budget)


def _summands(words):
    """(summands, parts) of an (r, n) array of element codes: the column
    ranges (lo, hi) of the contiguous direct summands of its row space, in
    column order, and for each summand the indices of its rows (zero rows
    are in none). A cut falls before column c when a row starts at c and no
    row has nonzero entries on both sides of it. A column no row reaches
    stays in the summand before it (leading ones in the first), so every
    summand holds a row and the summands cover all n columns."""
    nonzero = words != 0
    if not nonzero.any():
        return [], []
    n = words.shape[1]
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
    """(words, parts): the rows as an array of element codes, which the
    sweep reuses for its bound, and a _Summand for each contiguous direct
    summand, in column order, each holding the RREF of its rows cut to its
    columns."""
    words = words_to_array(rows)
    return words, [_Summand(spec, lo, hi, [rows[i] for i in part]) for (lo, hi), part in zip(*_summands(words))]


def _placed(parts, n):
    """The summands' bases at their columns in length n, in summand order:
    rref of the whole matrix, since the RREF is unique and the RREF of a
    direct sum is its summands' RREFs side by side."""
    return [
        (part.spec.zero,) * part.lo + row + (part.spec.zero,) * (n - part.lo - part.width)
        for part in parts for row in part.basis
    ]


def _enumerate_messages(basis, spec, n, k, budget) -> DistanceResult:
    add, mul = field_tables(spec, budget)
    G = words_to_array(basis)
    words = np.zeros((1, n), dtype=np.int16)
    for r in range(k):
        scaled = mul[np.arange(spec.q)[:, None], G[r][None, :]]
        words = add[words[:, None, :], scaled[None, :, :]].reshape(-1, n)
    weights = np.count_nonzero(words, axis=1)
    nz = weights > 0
    d = int(weights[nz].min())
    idx = int(np.flatnonzero(nz & (weights == d))[0])
    return DistanceResult(d, None, array_to_word(words[idx], spec), int(len(words)), "message-enumeration")


def _row_keys(rows, q) -> np.ndarray:
    """One key per row (the last axis) of element codes in [0, q), equal
    exactly when the rows are: the row read in base q as an int64 when
    q^width < 2^63, else an np.void of its int16 bytes."""
    width = rows.shape[-1]
    if q ** width < 1 << 63:
        return rows.reshape(-1, width) @ q ** np.arange(width, dtype=np.int64)
    rows = np.ascontiguousarray(rows, dtype=np.int16)
    return rows.reshape(-1, width).view(np.dtype((np.void, 2 * width))).ravel()


def _column_table(scaled):
    """(keys, last): the distinct keys of the scaled columns c*h_j of the
    (n, q-1, n-k) array `scaled`, sorted, and for each key the largest j
    that gives it."""
    keys = _row_keys(scaled, scaled.shape[1] + 1)  # column j's rows come j-th
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    run_end = np.append(keys[1:] != keys[:-1], True)
    return keys[run_end], order[run_end] // scaled.shape[1]


def _prefix_sums(scaled, add, prefixes):
    """(P, (q-1)^(w-1), n-k) sums: for each of the P prefixes (rows of w-1
    positions), the sums of its scaled columns over every coefficient
    vector, in product order."""
    # add[x, y] is taken as flat[x*q + y]: numpy takes by one intp index
    # several times faster than by a pair of int16 ones
    flat, q = add.ravel(), len(add)
    sums = scaled[prefixes[:, 0]]
    for i in range(1, prefixes.shape[1]):
        sums = flat[sums[:, :, None, :].astype(np.intp) * q + scaled[prefixes[:, i]][:, None]]
        sums = sums.reshape(len(prefixes), -1, sums.shape[-1])
    return sums


def _first_completable_prefix(scaled, add, table, w):
    """The first (w-1)-position prefix P, in combinations order, with a sum
    over P equal to some c*h_j with j > max(P); None when there is none.

    Whole prefixes are tested a batch at a time, _CHUNK sums per batch, or
    one prefix when its (q-1)^(w-1) sums are more: one key per sum and one
    searchsorted against the column table per batch.
    """
    keys, last = table
    count = scaled.shape[1] ** (w - 1)
    prefixes = combinations(range(len(scaled) - 1), w - 1)
    per_batch = max(1, _CHUNK // count)
    while True:
        batch = np.fromiter(chain.from_iterable(islice(prefixes, per_batch)), dtype=np.intp)
        if not batch.size:
            return None
        batch = batch.reshape(-1, w - 1)
        wanted = _row_keys(_prefix_sums(scaled, add, batch), len(add))
        pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        hit = (keys[pos] == wanted) & (last[pos] > np.repeat(batch[:, -1], count))
        if hit.any():
            return tuple(int(j) for j in batch[hit.argmax() // count])


class _Summand:
    """One contiguous direct summand, columns [lo, hi), of a code: the RREF
    of its rows cut to its columns, and its parity checks H, scaled columns
    and column table, built when a level of the sweep first asks this
    summand for a word."""

    def __init__(self, spec, lo, hi, rows):
        self.spec, self.lo, self.width = spec, lo, hi - lo
        self.basis, self.pivots = rref([row[lo:hi] for row in rows])
        self._lookup = None

    def first_word(self, w, tables):
        """The summand's first word of weight w >= 2 in (support,
        coefficient) order, as (column in the summand, coefficient code)
        pairs, or None; asked for w = 2, 3, .. in turn, each only once no
        lighter word was found. The summand has no weight-1 word and is not
        the full space, or its RREF would hold a unit row."""
        add, mul = tables
        if self._lookup is None:
            # the c*h_j of the summand's own H, read off its own pivots
            H = words_to_array(nullspace(self.basis, self.width, self.spec, self.pivots))
            scaled = mul[np.arange(1, self.spec.q)[None, :, None], H.T[:, None, :]]
            self._lookup = scaled, _column_table(scaled)
        scaled, table = self._lookup
        q = self.spec.q
        prefix = _first_completable_prefix(scaled, add, table, w)
        if prefix is None:
            return None
        # the prefix's sums, shaped (q-1,)*(w-1) + (width-k,)
        T = _prefix_sums(scaled, add, np.array([prefix])).reshape((q - 1,) * (w - 1) + (-1,))
        for j in range(prefix[-1] + 1, self.width):
            hits = ~np.any(add[T[..., None, :], scaled[j]], axis=-1)
            if hits.any():
                return tuple(zip(prefix + (j,), (int(c) + 1 for c in np.argwhere(hits)[0])))


def _bounded_weight_sweep(rows, words, parts, spec, budget) -> DistanceResult:
    """Sweep weights 1, 2, .. below the lightest presented row for a codeword.

    `words` are the rows as element codes and `parts` their summands, as
    _reduce_by_summand gives them. A word with support P + (j,), j > max(P),
    and nonzero coefficients is a codeword iff its prefix sum
    T = sum_{i in P} c_i h_i over the columns of the parity-check matrix H
    equals -c_j h_j. The scaled columns {c*h_j : c != 0} are closed under
    negation, so each prefix P of w - 1 positions has a weight-w completion
    iff one of its (q-1)^(w-1) sums is a scaled column c*h_j with j > max(P).
    A level's sums are looked up in a sorted table of the summand's scaled
    columns, one searchsorted per batch of about _CHUNK sums, instead of
    adding every last column.
    Supports in combinations order are ordered by (prefix, last column), so
    enumerating the completions of the first prefix that has one gives the
    word a full enumeration meets first.

    Each level asks each summand in column order for a word of weight w, on
    the summand's own H. At the first level w that has a word, every lighter
    level has none, so w is the least summand distance and each weight-w
    word lies in one summand (two nonzero parts weigh at least 2w). Every
    support in a summand precedes those in later ones, so the first summand
    that has a word holds the word the whole sweep meets first: its first
    word, placed at its columns. The bound (the first lightest presented
    row, the rows before their RREF), the budget gate and candidates_swept
    stay the whole code's: each level still counts its C(n, w) (q-1)^w
    candidates. A weight-1 codeword e_j is the RREF row with pivot j, so
    level 1, below a bound of 2 or more, has no word to find.
    """
    n, q = words.shape[1], spec.q
    # upper bound and witness candidate: the first lightest presented row
    basis = _placed(parts, n)
    weights = np.count_nonzero(np.vstack((words, words_to_array(basis))), axis=1)
    best_w = int(weights[weights > 0].min())
    best_row = tuple((rows + basis)[int(np.argmax(weights == best_w))])

    swept, tables = 0, None
    for w in range(1, best_w):
        level = comb(n, w) * (q - 1) ** w
        if swept + level > budget:
            return DistanceResult(None, (w, best_w), best_row, swept, "sweep-budget-exhausted")
        tables = tables or field_tables(spec, budget)
        for part in parts if w > 1 else ():
            found = part.first_word(w, tables)
            if found is not None:
                word = [spec.zero] * n
                for pos, c in found:
                    word[part.lo + pos] = spec.from_int(c)
                return DistanceResult(w, None, tuple(word), swept, "sweep-found-lighter")
        swept += level
    return DistanceResult(best_w, None, best_row, swept, "sweep-certified")
