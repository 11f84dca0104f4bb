"""JSON encodings for fields, elements, polynomials, and code specs.

Field elements travel as their integer code in [0, q), base-p digits with
the constant coefficient least significant. Ring elements are {a, b, c, d}
objects (a {crt: [r1..r4]} form is accepted on input). Polynomials are
{ring: "fq"|"R", coeffs: [...]} with ascending powers.
"""

from __future__ import annotations

import json
import os

from .errors import ParseError
from .gf import FieldElement, FieldSpec, make_field
from .ring4 import RingElement
from .skewpoly import SkewPoly


def load_input(source: str) -> dict:
    """Parse inline JSON (starts with '{') or read a JSON file; either must
    hold a JSON object."""
    try:
        text = source if source.lstrip().startswith("{") else None
        if text is None:
            if not os.path.exists(source):
                raise ParseError(f"input file not found: {source}")
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON input: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"input must be a JSON object, got {type(obj).__name__}")
    return obj


def json_int(obj, what: str, minimum: int | None = None) -> int:
    """An integer read from JSON input: booleans, floats and strings are refused."""
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ParseError(f"{what} must be an integer, got {json.dumps(obj)}")
    if minimum is not None and obj < minimum:
        raise ParseError(f"{what} must be at least {minimum}, got {obj}")
    return obj


def field_to_json(spec: FieldSpec) -> dict:
    return {"p": spec.p, "m": spec.m, "modulus": list(spec.modulus), "t": spec.t}


def field_from_json(obj) -> FieldSpec:
    try:
        return make_field(
            json_int(obj["p"], "p"),
            json_int(obj["m"], "m"),
            [json_int(c, "modulus coefficient") for c in obj["modulus"]],
            json_int(obj.get("t", 1), "t"),
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad field spec: {exc}") from exc


def element_from_json(spec: FieldSpec, obj) -> FieldElement:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ParseError(f"field element must be an integer code, got {obj!r}")
    try:
        return spec.from_int(obj)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def ring_to_json(r: RingElement) -> dict:
    return {
        "a": r.a.to_int(),
        "b": r.b.to_int(),
        "c": r.c.to_int(),
        "d": r.d.to_int(),
    }


def ring_from_json(spec: FieldSpec, obj) -> RingElement:
    if isinstance(obj, int):
        return RingElement.from_field(element_from_json(spec, obj))
    if not isinstance(obj, dict):
        raise ParseError(f"ring element must be an object or integer, got {obj!r}")
    if "crt" in obj:
        comps = obj["crt"]
        if len(obj) != 1 or not isinstance(comps, list) or len(comps) != 4:
            raise ParseError(f"crt form needs exactly four components and no other key, got {obj!r}")
        return RingElement.from_crt(spec, *(element_from_json(spec, c) for c in comps))
    unknown = sorted(set(obj) - set("abcd"))
    if unknown:
        raise ParseError(f"ring element keys must be a, b, c, d or crt, got {unknown}")
    return RingElement(*(element_from_json(spec, obj.get(k, 0)) for k in "abcd"))


def poly_to_json(f: SkewPoly) -> dict:
    if f.ring == "R":
        coeffs = [ring_to_json(c) for c in f.coeffs]
    else:
        coeffs = [c.to_int() for c in f.coeffs]
    return {"ring": f.ring, "coeffs": coeffs}


def poly_from_json(spec: FieldSpec, obj) -> SkewPoly:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ParseError(f"polynomial must be {{ring, coeffs}}, got {obj!r}")
    ring = obj.get("ring", "fq")
    if ring == "R":
        parse = ring_from_json
    elif ring == "fq":
        parse = element_from_json
    else:
        raise ParseError(f"unknown coefficient ring tag {ring!r}")
    if not isinstance(obj["coeffs"], list):
        raise ParseError(f"polynomial coeffs must be a list, got {obj['coeffs']!r}")
    return SkewPoly(spec, ring, [parse(spec, c) for c in obj["coeffs"]])


def code_from_json(obj):
    """(field, n, alpha, gens) from a {field, n, alpha, gens} object."""
    try:
        field = field_from_json(obj["field"])
        n = json_int(obj["n"], "n", 1)
        alpha = ring_from_json(field, obj["alpha"])
        gens = obj["gens"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad code spec: {exc}") from exc
    if not isinstance(gens, list) or len(gens) != 4:
        raise ParseError("code spec needs exactly four generators")
    return field, n, alpha, [poly_from_json(field, g) for g in gens]


def code_to_json(code) -> dict:
    return {
        "field": field_to_json(code.field),
        "n": code.n,
        "alpha": ring_to_json(code.alpha),
        "gens": [poly_to_json(g) for g in code.gens],
    }
