"""Correctness checks on one request's exit code and report.

Every seed gets these invariant checks; the default seed is also compared,
request by request, against the stdout digests in reference.json.
"""

from __future__ import annotations

import json

from workloads import BUDGET, sweep_floor

EXPECTED_DISCREPANCIES = {1: False, 2: False, 3: True, 4: True}  # examples 3 and 4 by design
EXAMPLE_GRAY_PARAMS = {1: [16, 12, 2], 2: [24, 9, 4]}


def _seed(argv):
    return int(argv[argv.index("--seed") + 1])


def _payload(argv):
    return json.loads(argv[argv.index("--input") + 1])


def _is_monic(poly, ring):
    lead = poly["coeffs"][-1] if poly["coeffs"] else None
    return lead == ({"a": 1, "b": 0, "c": 0, "d": 0} if ring == "R" else 1)


def check(req, rc, stdout):
    """None when the request's output is correct, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not one JSON report: {exc}"
    argv = req["argv"]
    if report.get("status") != "ok":
        return f"status {report.get('status')!r}"
    if report.get("command") != argv[0]:
        return f"command {report.get('command')!r}"
    if report.get("budget") != BUDGET or report.get("seed") != _seed(argv):
        return "budget or seed differs from the pinned values"
    return CHECKS[req["kind"]](req["expect"], report["result"], report, argv)


def _example(expect, result, report, argv):
    number = expect["number"]
    if bool(report["discrepancies"]) != EXPECTED_DISCREPANCIES[number]:
        return f"example {number}: discrepancies {report['discrepancies']!r}"
    claimed = EXAMPLE_GRAY_PARAMS.get(number)
    if claimed is not None and result.get("gray_params") != claimed:
        return f"example {number}: gray_params {result.get('gray_params')}"
    return None


def _dims(expect):
    return sum(expect["n"] - d for d in expect["degrees"])


def _params(expect, result, report, argv):
    n, q, dim = expect["n"], expect["q"], _dims(expect)
    length, dimension, exact = result["gray_params"]
    if (length, dimension) != (4 * n, dim):
        return f"gray_params {result['gray_params']} for n={n}, dimension {dim}"
    if result["cardinality"] != q ** dim or sum(result["component_dims"]) != dim:
        return "cardinality or component_dims inconsistent with the generators"
    dist = result["distance"]
    if exact != dist.get("exact"):
        return "gray_params distance differs from distance.exact"
    if exact is not None and not 1 <= exact <= 4 * n - dim + 1:
        return f"distance {exact} violates the Singleton bound"
    if expect["deep"] and not (dist["method"].startswith("sweep") and dist["candidates_swept"] >= sweep_floor(n)):
        return f"sweep stopped before weight 3: {dist}"
    return None


def _dual(expect, result, report, argv):
    if not (result["cardinality_product_ok"] and result["orthogonal"]):
        return "dual contract failed"
    if len(result["dual_gens"]) != 4 or result["n"] != expect["n"]:
        return "dual generators or length malformed"
    return None


def _gray_image(expect, result, report, argv):
    n, q, dim = expect["n"], expect["q"], _dims(expect)
    rows = result["rows"]
    if result["length"] != 4 * n or result["dimension"] != dim or len(rows) != dim:
        return f"gray image [{result['length']}, {result['dimension']}] with {len(rows)} rows"
    if any(len(r) != 4 * n or not all(0 <= c < q for c in r) for r in rows):
        return "gray image row of wrong length or with an out-of-range entry"
    return None


def _divisor_search(expect, result, report, argv):
    divisors = result["divisors"]
    if result["count"] != len(divisors) or result["degree"] != expect["degree"]:
        return "count or degree inconsistent"
    for g in divisors:
        if g["ring"] != expect["ring"] or len(g["coeffs"]) != expect["degree"] + 1:
            return f"divisor {g} has the wrong ring or degree"
        if not _is_monic(g, expect["ring"]):
            return f"divisor {g} is not monic"
    if expect["ring"] == "fq" and [d["coeffs"] for d in divisors] != sorted(d["coeffs"] for d in divisors):
        return "divisors are not in lexicographic order"
    return None


def _idempotent(expect, result, report, argv):
    if not (result["idempotent_ok"] and result["module_equal"]):
        return "idempotent contract failed"
    if result["n"] != _payload(argv)["n"]:
        return "length differs from the request"
    return None


def _verify(expect, result, report, argv):
    suites = result["suites"]
    if list(suites) != [expect["suite"]] or not suites[expect["suite"]]["pass"] or not result["pass"]:
        return f"suite {expect['suite']} did not pass"
    return None


CHECKS = {
    "example": _example,
    "params": _params,
    "dual": _dual,
    "gray-image": _gray_image,
    "divisor-search": _divisor_search,
    "idempotent": _idempotent,
    "verify": _verify,
}
