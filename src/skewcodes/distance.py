"""Minimum Hamming distance for F_q linear codes given by generator rows.

Exact answers come from one of two certificates:
  * full message enumeration when q^dim is small, or
  * a bounded-weight absence sweep against a parity-check matrix (no word of
    weight < d exists) together with an exhibited weight-d codeword.
Otherwise the result degrades to bounds. The sweep is vectorized with numpy
over integer element codes; all underlying arithmetic tables are exact.
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


def _bounded_weight_sweep(rows, basis, spec, n, k, budget) -> DistanceResult:
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
