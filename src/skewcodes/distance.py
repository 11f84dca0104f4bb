"""Minimum Hamming distance for F_q linear codes given by generator rows.

Exact answers come from one of two certificates:
  * full message enumeration when q^dim is small, or
  * a bounded-weight absence sweep against a parity-check matrix H (no word
    of weight < d exists) together with an exhibited weight-d codeword.
Otherwise the result degrades to bounds. The sweep decides each weight w by
lookup: it sums the scaled columns of H over every (w-1)-position prefix and
looks each sum up in a sorted table of the scaled columns c*h_j, by the
exact bytes of its integer codes. A level still counts all of its
C(n, w) (q-1)^w candidates. Everything runs in numpy over integer element
codes, with exact arithmetic tables.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import BudgetExceededError
from .gf import FieldSpec
from .linalg import nullspace, rref

DEFAULT_BUDGET = 20_000_000
ENUM_CAP = 200_000


def field_tables(spec: FieldSpec, budget: int = DEFAULT_BUDGET):
    """(add, mul) tables over integer element codes, dtype int16.

    The two q x q tables count against the budget like candidates do, and
    are refused before anything is allocated when q^2 exceeds it.
    """
    if spec.q ** 2 > budget:
        raise BudgetExceededError(
            f"field tables need q^2 = {spec.q ** 2} entries, over the budget of {budget}"
        )
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
    return np.array([[c.to_int() for c in w] for w in words], dtype=np.int16)


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
    basis, _ = rref(rows)
    k = len(basis)
    if k == 0:
        return DistanceResult(None, None, None, 0, "zero-code", defined=False)
    n = len(basis[0])
    q = spec.q
    if k == n:
        witness = [spec.zero] * n
        witness[0] = spec.one
        return DistanceResult(1, None, tuple(witness), 0, "full-space")
    if q ** k <= min(budget, ENUM_CAP):
        return _enumerate_messages(basis, spec, n, k, budget)
    return _bounded_weight_sweep(rows, basis, spec, n, k, budget)


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


def _row_keys(rows) -> np.ndarray:
    """One np.void key per int16 row (the last axis): its bytes, so two keys
    are equal exactly when the rows are."""
    rows = np.ascontiguousarray(rows, dtype=np.int16)
    width = rows.shape[-1]
    return rows.reshape(-1, width).view(np.dtype((np.void, 2 * width))).ravel()


def _column_table(scaled_cols):
    """(keys, last): the distinct keys of the scaled columns c*h_j, sorted,
    and for each key the largest j that gives it."""
    per_col = len(scaled_cols[0])
    keys = _row_keys(np.concatenate(scaled_cols))  # column j's rows come j-th
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    run_end = np.append(keys[1:] != keys[:-1], True)
    return keys[run_end], order[run_end] // per_col


def _has_completion(sums, start, table) -> bool:
    """Whether some prefix sum equals c*h_j for a c != 0 and a j >= start."""
    keys, last = table
    wanted = _row_keys(sums)
    pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return bool(np.any((keys[pos] == wanted) & (last[pos] >= start)))


def _bounded_weight_sweep(rows, basis, spec, n, k, budget) -> DistanceResult:
    """Sweep weights 1, 2, .. below the lightest presented row for a codeword.

    A word with support P + (j,), j > max(P), and nonzero coefficients is a
    codeword iff its prefix sum T = sum_{i in P} c_i h_i over the columns of
    the parity-check matrix H equals -c_j h_j. The scaled columns
    {c*h_j : c != 0} are closed under negation, so each prefix P of w - 1
    positions has a weight-w completion iff one of its (q-1)^(w-1) sums is a
    scaled column c*h_j with j > max(P): one lookup in a sorted table of the
    n(q-1) scaled columns per sum, instead of adding every last column.
    Supports in combinations order are ordered by (prefix, last column), so
    enumerating the completions of the first prefix that has one gives the
    word a full enumeration meets first. Each level still counts its
    C(n, w) (q-1)^w candidates, against the budget and in candidates_swept.
    """
    q = spec.q
    # upper bound and witness candidate from the presented rows
    best_w, best_row = None, None
    for w in list(rows) + list(basis):
        wt = sum(0 if c.is_zero else 1 for c in w)
        if wt > 0 and (best_w is None or wt < best_w):
            best_w, best_row = wt, tuple(w)
    scaled_cols = None  # built once the first level fits the budget

    swept = 0
    for w in range(1, best_w):
        level = comb(n, w) * (q - 1) ** w
        if swept + level > budget:
            return DistanceResult(None, (w, best_w), best_row, swept, "sweep-budget-exhausted")
        if scaled_cols is None:
            add, mul = field_tables(spec, budget)
            H = words_to_array(nullspace(basis, n, spec))  # (n-k, n)
            nzcoef = np.arange(1, q, dtype=np.int16)
            scaled_cols = [mul[nzcoef[:, None], H[:, j][None, :]] for j in range(n)]  # each (q-1, n-k)
        if w == 2:  # weight 1 needs no table
            table = _column_table(scaled_cols)
        for prefix in combinations(range(n - 1), w - 1):
            start = prefix[-1] + 1 if prefix else 0
            if prefix:
                T = scaled_cols[prefix[0]]  # sums over the prefix, (q-1,)*(w-1) + (n-k,)
                for j in prefix[1:]:
                    T = add[T[..., None, :], scaled_cols[j]]
                if not _has_completion(T, start, table):
                    continue
            else:  # weight 1: T = 0, which is c*h_j only for a zero column h_j
                T = np.zeros(len(H), dtype=np.int16)
                if H.any(axis=0).all():
                    continue
            for j in range(start, n):
                hits = ~np.any(add[T[..., None, :], scaled_cols[j]], axis=-1)
                if hits.any():
                    coef = np.argwhere(hits)[0]
                    word = [spec.zero] * n
                    for pos, c in zip(prefix + (j,), coef):
                        word[pos] = spec.from_int(int(c) + 1)
                    return DistanceResult(w, None, tuple(word), swept, "sweep-found-lighter")
        swept += level
    return DistanceResult(best_w, None, best_row, swept, "sweep-certified")
