"""Exact Gaussian elimination over F_q.

Desk-scale only: everything is dense and exact. The elimination and the
inner product run in pure Python on lists of logarithms, with the field's
own tables (gf's module docstring): spec.log reads an element's logarithm,
spec.plus adds two logarithms and spec.wrap reduces the sum, and spec.exp
gives the element back, with log_zero standing for 0, so no entry needs a
zero branch and no FieldElement is operated on. rref and nullspace take
rows of field elements and return tuples of them, or, for a caller that
keeps logarithms (the distance sweep, decomp.minimal_generator), take and
return logarithms. element_logs gives the logarithm rows of element rows,
and refuses an entry of another field before anything is eliminated.
"""

from __future__ import annotations

from .errors import MixedRingsError
from .gf import FieldElement, FieldSpec
from .ring4 import join_word, split_word


def element_logs(rows, spec: FieldSpec):
    """The logarithm rows, in spec, of rows of elements of spec. An entry of
    another field raises MixedRingsError, and no logarithm of it is read:
    fields are interned, so a field check is `is`."""
    rows = list(rows)
    log = spec.log
    logs = [[log[c.code] for c in r if c.spec is spec] for r in rows]
    if sum(map(len, logs)) != sum(map(len, rows)):
        raise MixedRingsError(f"rows hold an entry that is not an element of {spec!r}")
    return logs


def rref(rows, spec: FieldSpec | None = None):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns); zero rows are dropped before
    the elimination. The rows are of field elements, all of the first
    entry's field (element_logs refuses any other), and so are the reduced
    rows, or, given `spec`, both are of logarithms in spec.
    """
    rows = list(rows)
    if not rows or not rows[0]:
        return [], []
    elements = spec is None
    if elements:
        spec = rows[0][0].spec
        rows = element_logs(rows, spec)
    rows = [list(r) for r in rows if r.count(spec.log_zero) < len(r)]
    order, zero, plus, wrap = spec.q - 1, spec.log_zero, spec.plus, spec.wrap
    half = order // 2  # the logarithm of -1
    pivots = []
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != zero), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        # scale the pivot row by the inverse of its pivot: add q - 1 - log
        inv = wrap[order - rows[rank][col]]
        row = rows[rank] = [wrap[x + inv] for x in rows[rank]]
        # its entries left of col are zero: earlier pivots cleared them
        terms = [(j, x) for j, x in enumerate(row[col:], col) if x != zero]
        for i, other in enumerate(rows):
            factor = other[col]
            if i == rank or factor == zero:
                continue
            # other - factor * row, term by term: log(-factor * x) is x + log factor + half
            factor = wrap[factor + half]
            for j, x in terms:
                y = other[j]
                other[j] = wrap[y + plus[wrap[x + factor] - y + zero]]
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
    gives them; otherwise both are of field elements of spec (element_logs
    refuses any other).
    """
    zero, wrap = spec.log_zero, spec.wrap
    half = (spec.q - 1) // 2
    if not logs:
        rows = element_logs(rows, spec)
    reduced, pivots = rref(rows, spec) if pivots is None else (rows, pivots)
    basis = []
    pivot_set = set(pivots)
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [zero] * ncols
        vec[fc] = 0  # the logarithm of 1
        for row, pc in zip(reduced, pivots):
            vec[pc] = wrap[row[fc] + half]  # log(-x)
        basis.append(tuple(vec))
    if logs:
        return basis
    exp = spec.exp
    return [tuple(exp[x] for x in vec) for vec in basis]


def inner_product(x, y):
    """sum x_i * y_i of two words of one length over F_q, or over R, where
    each of the four CRT components is an inner product over F_q."""
    if x[0].__class__ is not FieldElement:
        return join_word([inner_product(a, b)] for a, b in zip(split_word(x), split_word(y)))[0]
    spec = x[0].spec
    log, plus, wrap, zero = spec.log, spec.plus, spec.wrap, spec.log_zero
    acc = zero
    for a, b in zip(x, y):
        acc = wrap[acc + plus[wrap[log[a.code] + log[b.code]] - acc + zero]]
    return spec.exp[acc]
