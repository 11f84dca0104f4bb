"""Exact Gaussian elimination over F_q.

Desk-scale only: everything is dense and exact. The elimination runs in
pure Python on lists of logarithms, with the field's own tables (gf's
module docstring): spec.log reads an element's logarithm, spec.plus adds
two logarithms, and spec.exp gives the element back, with log_zero standing
for 0, so no entry needs a zero branch and no FieldElement is operated on.
rref and nullspace take rows of field elements and return tuples of them,
or, for a caller that keeps logarithms (the distance sweep), take and
return logarithms.
"""

from __future__ import annotations

from .gf import FieldSpec


def rref(rows, spec: FieldSpec | None = None):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns); zero rows are dropped, before
    the elimination. The rows are of field elements and so are the reduced
    rows, or, given `spec`, both are of logarithms in spec.
    """
    rows = list(rows)
    if not rows or not rows[0]:
        return [], []
    elements = spec is None
    if elements:
        spec = rows[0][0].spec
        log = spec.log
        rows = [[log[c.code] for c in r] for r in rows]
    else:
        rows = [list(r) for r in rows]
    order, zero, plus = spec.q - 1, spec.log_zero, spec.plus
    half = order // 2  # the logarithm of -1
    rows = [r for r in rows if r.count(zero) < len(r)]
    pivots = []
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != zero), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        # scale the pivot row by the inverse of its pivot: add q - 1 - log
        inv = order - rows[rank][col]
        row = rows[rank] = [(x + inv) % order if x < zero else zero for x in rows[rank]]
        # its entries left of col are zero: earlier pivots cleared them
        terms = [(j, x) for j, x in enumerate(row[col:], col) if x != zero]
        for i, other in enumerate(rows):
            factor = other[col]
            if i == rank or factor == zero:
                continue
            # other - factor * row, term by term: log(-factor * x) is x + log factor + half
            factor += half
            for j, x in terms:
                term = (x + factor) % order
                y = other[j]
                total = y + plus[term - y + zero]
                other[j] = total % order if total < zero else zero
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    if elements:
        exp = spec.exp
        return [tuple(exp[x] for x in r) for r in rows[:rank]], pivots
    return [tuple(r) for r in rows[:rank]], pivots


def nullspace(rows, ncols: int, spec: FieldSpec, pivots=None, logs: bool = False):
    """Basis of {x : r . x = 0 for every row r}, i.e. the classical dual.

    Given `pivots`, the rows are taken to be in RREF with those pivot
    columns, as rref returns them, and are not reduced again. With `logs`,
    the rows and the basis are of logarithms in spec, as rref(rows, spec)
    gives them; otherwise both are of field elements.
    """
    order, zero = spec.q - 1, spec.log_zero
    half = order // 2
    if not logs:
        log = spec.log
        rows = [[log[c.code] for c in r] for r in rows]
    reduced, pivots = rref(rows, spec) if pivots is None else (rows, pivots)
    basis = []
    pivot_set = set(pivots)
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [zero] * ncols
        vec[fc] = 0  # the logarithm of 1
        for row, pc in zip(reduced, pivots):
            # log(-x) = log x + half; log 0 reads zero
            total = row[fc] + half
            vec[pc] = total % order if total < zero else zero
        basis.append(tuple(vec))
    if logs:
        return basis
    exp = spec.exp
    return [tuple(exp[x] for x in vec) for vec in basis]


def inner_product(x, y):
    spec = x[0].spec
    acc = spec.zero
    for a, b in zip(x, y):
        acc = acc + a * b
    return acc
