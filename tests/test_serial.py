import pytest
from reference import code_to_json

from skewcodes.catalog import example_code
from skewcodes.errors import ParseError
from skewcodes.ring4 import RingElement
from skewcodes.serial import (
    code_from_json,
    field_from_json,
    field_to_json,
    load_input,
    poly_from_json,
    poly_to_json,
    ring_from_json,
    ring_to_json,
)
from skewcodes.skewpoly import fq_poly, r_poly


def test_field_round_trip(f25):
    assert field_from_json(field_to_json(f25)) == f25


def test_ring_element_forms(f9):
    r = RingElement.from_ints(f9, 1, 0, -2, -2)
    assert ring_from_json(f9, ring_to_json(r)) == r
    # crt form accepted on input
    crt = [c.to_int() for c in r.crt()]
    assert ring_from_json(f9, {"crt": crt}) == r
    # bare integer means a base-field constant
    assert ring_from_json(f9, 1) == RingElement.from_ints(f9, 1)


def test_poly_round_trip(f9):
    f = fq_poly(f9, [2, f9.root(), 1])
    assert poly_from_json(f9, poly_to_json(f)) == f
    g = r_poly(f9, [1, RingElement.from_ints(f9, 1, 0, -2, 0)])
    assert poly_from_json(f9, poly_to_json(g)) == g


def test_code_round_trip():
    from skewcodes.codes import build_code

    code = example_code(3)
    field, n, alpha, gens = code_from_json(code_to_json(code))
    rebuilt = build_code(field, n, alpha, gens)
    assert rebuilt.gens == code.gens
    assert rebuilt.alpha == code.alpha


def test_parse_errors(f9):
    with pytest.raises(ParseError):
        load_input("{not json")
    with pytest.raises(ParseError):
        load_input("/nonexistent/file.json")
    with pytest.raises(ParseError):
        ring_from_json(f9, {"crt": [1, 2]})
    with pytest.raises(ParseError):
        poly_from_json(f9, {"ring": "Z4", "coeffs": [1]})
    with pytest.raises(ParseError):
        code_from_json({"field": {"p": 3, "m": 2, "modulus": [1, 0, 1]}})
