"""Row reduction, nullspaces and inner products on logarithm lists against
the same with field-element arithmetic (reference.object_rref,
object_nullspace, object_inner_product)."""

import random

import pytest
from reference import object_inner_product, object_nullspace, object_rref
from test_kernel import FIELDS as KERNEL_FIELDS

from skewcodes.errors import MixedRingsError
from skewcodes.gf import FieldElement, FieldSpec, make_field
from skewcodes.linalg import _log_inner_product, element_logs, nullspace, rref

# the kernel's fields (F7, F125, F243, F81 and F729 with the twist t = 2)
# and the fields the codes of the examples and the benchmark use
DIFFERENTIAL_FIELDS = {
    **KERNEL_FIELDS,
    "F9": (3, 2, [1, 0, 1], 1),
    "F25": (5, 2, [1, 1, 1], 1),
    "F27": (3, 3, [1, 2, 0, 1], 1),
    "F49": (7, 2, [3, 6, 1], 1),
}


def random_row(spec, rng, n, sparsity=0.0):
    """A row of n elements, each zero with probability `sparsity` and
    uniform otherwise."""
    return tuple(spec.zero if rng.random() < sparsity else spec.random_element(rng) for _ in range(n))


def elimination_cases():
    """(spec, rows) over every field of DIFFERENTIAL_FIELDS: random
    matrices, the same with a repeated row, a zero row and a multiple of a
    row added, sparse matrices, shuffled full-rank squares, all-zero
    matrices, and the shape decomp.minimal_generator gets in verify
    decomposition: 9 reversed span vectors, 2 of them nonzero."""
    rng = random.Random(41)
    for name in sorted(DIFFERENTIAL_FIELDS):
        spec = make_field(*DIFFERENTIAL_FIELDS[name])
        for _ in range(6):
            r, n = rng.randint(1, 6), rng.randint(1, 8)
            rows = [random_row(spec, rng, n) for _ in range(r)]
            yield spec, rows
            c = spec.from_int(rng.randrange(1, spec.q))
            dependent = rows + [rows[0], (spec.zero,) * n, tuple(c * x for x in rows[-1])]
            rng.shuffle(dependent)
            yield spec, dependent
            yield spec, [random_row(spec, rng, n, 0.6) for _ in range(r + 2)]
        for n in (1, 3, 6):
            square = [
                tuple(spec.zero if j < i else spec.random_element(rng) if j > i else spec.from_int(rng.randrange(1, spec.q)) for j in range(n))
                for i in range(n)
            ]
            rng.shuffle(square)
            yield spec, square
        yield spec, [(spec.zero,) * 4] * 3
        span = [(spec.zero,) * 9] * 7 + [random_row(spec, rng, 9, 0.3) for _ in range(2)]
        rng.shuffle(span)
        yield spec, [v[::-1] for v in span]


def logs(spec, rows):
    return [tuple(spec.log[c.code] for c in row) for row in rows]


def test_rref_and_nullspace_are_the_elimination_on_field_elements():
    """Reduced rows, pivots and nullspace bases equal the references, as
    field elements and as logarithms, and with given pivots; the empty
    matrix gives nothing."""
    cases = 0
    for spec, rows in elimination_cases():
        n = len(rows[0])
        reduced, pivots = object_rref(rows)
        dual = object_nullspace(rows, n, spec)
        assert rref(rows) == (reduced, pivots)
        assert rref(logs(spec, rows), spec) == (logs(spec, reduced), pivots)
        assert nullspace(rows, n, spec) == dual
        assert nullspace(reduced, n, spec, pivots) == dual
        assert nullspace(logs(spec, rows), n, spec, logs=True) == logs(spec, dual)
        assert nullspace(logs(spec, reduced), n, spec, pivots, logs=True) == logs(spec, dual)
        cases += 1
    assert cases == len(DIFFERENTIAL_FIELDS) * (6 * 3 + 3 + 2)
    assert rref([]) == object_rref([]) == ([], [])


def test_elimination_makes_no_field_element_arithmetic(monkeypatch):
    """With FieldElement's +, -, * and inverse refused, rref, nullspace and
    _log_inner_product still give the references' results and verdicts:
    they compute on logarithms. The inner products are of each matrix's rows,
    each row with itself and with the next, and of its nullspace basis
    words with its rows, which are all zero."""
    cases = [(spec, rows, object_rref(rows), object_nullspace(rows, len(rows[0]), spec)) for spec, rows in elimination_cases()]
    products = [
        (spec, x, y, object_inner_product(x, y))
        for spec, rows, _, dual in cases
        for x, y in [*zip(rows, rows), *zip(rows, rows[1:]), *((h, r) for h in dual for r in rows)]
    ]
    assert {z.is_zero for *_, z in products} == {True, False}

    def refuse(*args):
        raise AssertionError("FieldElement arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "inverse"):
        monkeypatch.setattr(FieldElement, name, refuse)
    for spec, rows, (reduced, pivots), dual in cases:
        assert rref(rows) == (reduced, pivots)
        assert nullspace(rows, len(rows[0]), spec) == dual
        assert nullspace(reduced, len(rows[0]), spec, pivots) == dual
    for spec, x, y, z in products:
        product = spec.exp[_log_inner_product(spec, *element_logs([x, y], spec))]
        assert product == z and product.is_zero == z.is_zero


def test_entries_of_another_field_are_refused_before_any_elimination():
    """The element forms of rref and nullspace refuse an entry of another
    field, a zero one included, with MixedRingsError before any logarithm
    is read: an F25 code past F9's tables raises no IndexError. An element
    of a separately built equal field is accepted (fields are interned, so
    the spec is F9 itself), with the result of the interned field's
    elements."""
    f9, f25 = make_field(3, 2, [1, 0, 1]), make_field(5, 2, [1, 1, 1])
    row9, row25 = (f9.one, f9.zero, f9.root()), (f25.from_int(3), f25.zero, f25.one)
    mixed = [
        [row25, row9],
        [row9, row25],
        [row9, (f9.one, f25.zero, f9.one)],
        [row9, (f25.zero,) * 3],
    ]
    for rows in mixed:
        with pytest.raises(MixedRingsError):
            rref(rows)
        with pytest.raises(MixedRingsError):
            nullspace(rows, 3, f9)
        with pytest.raises(MixedRingsError):
            element_logs(rows, f9)
    with pytest.raises(MixedRingsError):
        nullspace([(f25.from_int(20),) * 3], 3, f9)

    separate = FieldSpec(3, 2, [1, 0, 1], 1)
    assert separate is f9
    rows = [row9, tuple(separate.from_int(c.code) for c in (f9.root(), f9.one, f9.zero))]
    interned = [row9, (f9.root(), f9.one, f9.zero)]
    assert element_logs(rows, f9) == element_logs(interned, f9)
    assert rref(rows) == rref(interned)
    assert nullspace(rows, 3, f9) == nullspace(interned, 3, f9)
