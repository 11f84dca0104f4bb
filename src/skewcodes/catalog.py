"""Bundled reference constructions over F_25, F_9, F_49, and F_27.

These are the worked desk-scale instances exercised by the CLI `example`
command and the verification suites, together with the values claimed for
them by their source. Claimed values are compared against computed ones at
run time; mismatches surface as report discrepancies, never as silent fixes.
"""

from __future__ import annotations

from .codes import SkewCode, build_code
from .gf import FieldSpec, make_field
from .ring4 import RingElement, ring_one
from .skewpoly import fq_poly, r_poly


def field_f25() -> FieldSpec:
    return make_field(5, 2, [1, 1, 1], 1)


def field_f9() -> FieldSpec:
    return make_field(3, 2, [1, 0, 1], 1)


def field_f49() -> FieldSpec:
    return make_field(7, 2, [3, 6, 1], 1)


def field_f27() -> FieldSpec:
    return make_field(3, 3, [1, 2, 0, 1], 1)


def example_one():
    """Skew cyclic code of length 4 over R with base field F_25."""
    field = field_f25()
    a = field.root()
    gen = fq_poly(field, [a + 1, 1])
    return {
        "number": 1,
        "field": field,
        "n": 4,
        "alpha": ring_one(field),
        "gens": (gen, gen, gen, gen),
        "claims": {"gray_params": (16, 12, 2)},
    }


def example_two():
    """Skew cyclic code of length 6 over R with base field F_9."""
    field = field_f9()
    a = field.root()
    quartic = fq_poly(field, [2, a, 0, 2 * a, 1])
    cubic = fq_poly(field, [2, 1, field.one + 2 * a, 1])
    return {
        "number": 2,
        "field": field,
        "n": 6,
        "alpha": ring_one(field),
        "gens": (quartic, quartic, quartic, cubic),
        "claims": {"gray_params": (24, 9, 4)},
    }


def example_three():
    """Skew (1-2uv)-constacyclic code of length 4 over R with base field F_49."""
    field = field_f49()
    linear = fq_poly(field, [1, 1])
    quad = fq_poly(field, [1, 4, 1])
    return {
        "number": 3,
        "field": field,
        "n": 4,
        "alpha": RingElement.from_ints(field, 1, 0, 0, -2),
        "gens": (linear, linear, linear, quad),
        "claims": {"self_dual": True, "quasi_twist_index": 2},
    }


def example_four():
    """Stated (1-2v-2uv)-constacyclic construction of length 7 over F_9 + ...

    The shift constant fails the unit criterion and the displayed generator
    is not a right divisor of the stated modulus (both facts are recomputed
    and reported by the audit); the generator does right-divide
    x^7 - (1-2v).
    """
    field = field_f9()
    one_minus_2v = RingElement.from_ints(field, 1, 0, -2, 0)
    gen = r_poly(
        field,
        [1, one_minus_2v, 1, one_minus_2v, 1, one_minus_2v, 1],
    )
    return {
        "number": 4,
        "field": field,
        "n": 7,
        "alpha": RingElement.from_ints(field, 1, 0, -2, -2),
        "generator": gen,
        "working_constant": one_minus_2v,
        "claims": {"right_divisor": True, "constacyclic_closure": True},
    }


EXAMPLES = {1: example_one, 2: example_two, 3: example_three, 4: example_four}


def get_example(number: int):
    if number not in EXAMPLES:
        raise KeyError(f"no example {number}; choose from {sorted(EXAMPLES)}")
    return EXAMPLES[number]()


def example_code(number: int) -> SkewCode:
    """The code of example 1, 2 or 3; example 4's stated generator is
    audited, not built."""
    ex = get_example(number)
    return build_code(ex["field"], ex["n"], ex["alpha"], ex["gens"])
