"""Exact Gaussian elimination over F_q on tuples of field elements.

Desk-scale only: everything is dense, pure Python, and exact.
"""

from __future__ import annotations

from .gf import FieldSpec


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns); zero rows are dropped.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if not rows[i][col].is_zero), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and not rows[i][col].is_zero:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return [tuple(r) for r in rows[:rank]], pivots


def nullspace(rows, ncols: int, spec: FieldSpec, pivots=None):
    """Basis of {x : r . x = 0 for every row r}, i.e. the classical dual.

    Given `pivots`, the rows are taken to be in RREF with those pivot
    columns, as rref returns them, and are not reduced again.
    """
    reduced, pivots = rref(rows) if pivots is None else (rows, pivots)
    basis = []
    free_cols = [c for c in range(ncols) if c not in pivots]
    for fc in free_cols:
        vec = [spec.zero] * ncols
        vec[fc] = spec.one
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc]
        basis.append(tuple(vec))
    return basis


def inner_product(x, y):
    spec = x[0].spec
    acc = spec.zero
    for a, b in zip(x, y):
        acc = acc + a * b
    return acc
