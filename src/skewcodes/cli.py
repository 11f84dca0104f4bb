"""Command-line front end: build and audit codes, emit JSON reports.

Reports are machine-first JSON (byte-identical for identical input, seed,
and budget); --table renders the same content as aligned text. Exit codes:
0 success (including reports that carry discrepancies), 1 verification
failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

from . import __version__
from .catalog import field_f9, field_f25, field_f27, get_example
from .codes import (
    build_code,
    constacyclic_shift,
    dual_code,
    is_closed_under,
    quasi_twist_shift,
    self_dual_report,
    skew_constacyclic_shift,
)
from .decomp import (
    ModuleSpan,
    components_from_words,
    dual_hypothesis_note,
    verify_decomposition_theorem,
)
from .distance import DEFAULT_BUDGET, min_distance
from .errors import (
    NotADivisorError,
    ParseError,
    SkewcodesError,
    UnknownSuiteError,
    VerificationError,
)
from .gray import check_commutation, gray_image_code
from .linalg import inner_product
from .ring4 import RingElement, ring_one, unit_check
from .serial import (
    code_from_json,
    element_from_json,
    field_from_json,
    field_to_json,
    json_int,
    load_input,
    poly_from_json,
    poly_to_json,
    ring_from_json,
    ring_to_json,
)
from .skewpoly import (
    ModulusSpec,
    dual_idempotent,
    fq_poly,
    from_components,
    idempotent_generator,
    random_right_divisor,
    right_divisor_search,
    right_divmod,
    span_words,
)

INPUT_ERRORS = (SkewcodesError, KeyError, ValueError)


def _require_input(args):
    if not args.input:
        raise ParseError("this command requires --input")
    return load_input(args.input)


def _input_code(args):
    field, n, alpha, gens = code_from_json(_require_input(args))
    return build_code(field, n, alpha, gens)


def _code_summary(code):
    return {
        "field": field_to_json(code.field),
        "n": code.n,
        "alpha": ring_to_json(code.alpha),
        "alpha_crt": list(code.alpha.crt_ints()),
        "alpha_is_unit": code.alpha.is_unit,
        "component_degrees": [g.degree for g in code.gens],
        "component_dims": list(code.dims),
        "cardinality": code.cardinality,
    }


# --- analysis stages shared by commands, suites and example audits ---

def _closures(code, budget):
    """Closure under tau_alpha and under the quasi-twist of index gcd(n, k)."""
    l = math.gcd(code.n, code.field.k)
    return {
        "tau": is_closed_under(code, lambda w: skew_constacyclic_shift(w, code.alpha), budget),
        "quasi_twist": {
            "index": l,
            "closed": is_closed_under(code, lambda w: quasi_twist_shift(w, code.alpha, l), budget),
        },
    }


def _gray_params(result, code, budget):
    """Record the Gray image parameters [4n, k, d] and the distance report."""
    image = gray_image_code(code)
    dist = min_distance(image.rows, code.field, budget=budget)
    result["gray_params"] = [image.length, image.dimension, dist.exact]
    result["distance"] = dist.as_dict()


def _self_dual(result, code):
    """Record the self-duality verdict and its evidence; return the verdict."""
    sd = self_dual_report(code)
    result["self_dual"] = sd.verdict
    result["self_dual_evidence"] = {
        "component_dims": list(sd.dims),
        "half_length": sd.half_length,
        "gram_zero": list(sd.gram_zero),
    }
    return sd.verdict


def _dual_contract(code):
    """(dual, |C||C^perp| = q^{4n}, C and C^perp orthogonal)."""
    dual = dual_code(code)
    product_ok = code.cardinality * dual.cardinality == code.field.q ** (4 * code.n)
    orthogonal = all(
        inner_product(x, y).is_zero
        for x in code.basis_words()
        for y in dual.basis_words()
    )
    return dual, product_ok, orthogonal


def _untwisted_closure(gen, n, alpha, field):
    """(R-span of <gen> mod x^n - alpha, its closure under the untwisted
    constacyclic shift)."""
    words = span_words(gen, ModulusSpec(n, alpha))
    span = ModuleSpan(words, n, field)
    return span, all(span.contains(constacyclic_shift(w, alpha)) for w in words)


def cmd_build(args):
    code = _input_code(args)
    result = _code_summary(code)
    result["closures"] = {
        "tau": is_closed_under(code, lambda w: skew_constacyclic_shift(w, code.alpha), args.budget)
    }
    return result, list(code.warnings), []


def cmd_params(args):
    code = _input_code(args)
    result = _code_summary(code)
    closures = _closures(code, args.budget)
    if math.gcd(code.n, code.field.k) == 1:
        closures["untwisted_constacyclic"] = is_closed_under(
            code, lambda w: constacyclic_shift(w, code.alpha), args.budget
        )
    else:
        closures["untwisted_constacyclic"] = None
    result["closures"] = closures
    _gray_params(result, code, args.budget)
    _self_dual(result, code)
    return result, list(code.warnings), []


def cmd_dual(args):
    code = _input_code(args)
    dual, product_ok, orthogonal = _dual_contract(code)
    result = {
        "field": field_to_json(code.field),
        "n": code.n,
        "dual_alpha": ring_to_json(dual.alpha),
        "dual_gens": [poly_to_json(g) for g in dual.gens],
        "dual_component_degrees": [g.degree for g in dual.gens],
        "cardinality_product_ok": product_ok,
        "orthogonal": orthogonal,
        "hypothesis_note": dual_hypothesis_note(code),
    }
    if not (product_ok and orthogonal):
        raise VerificationError("dual contract failed; see report")
    return result, list(code.warnings), []


def cmd_gray_image(args):
    code = _input_code(args)
    image = gray_image_code(code)
    result = {
        "field": field_to_json(code.field),
        "length": image.length,
        "dimension": image.dimension,
        "rows": [[c.to_int() for c in row] for row in image.rows],
    }
    return result, list(code.warnings), []


def cmd_divisor_search(args):
    obj = _require_input(args)
    field = field_from_json(obj["field"])
    n = json_int(obj["n"], "n", 1)
    raw_alpha = obj["alpha"]
    degree = json_int(obj["degree"], "degree", 0)
    if isinstance(raw_alpha, dict):
        alpha = ring_from_json(field, raw_alpha)
    else:
        alpha = element_from_json(field, raw_alpha)
    divisors = right_divisor_search(ModulusSpec(n, alpha), degree, budget=args.budget)
    result = {
        "field": field_to_json(field),
        "n": n,
        "degree": degree,
        "count": len(divisors),
        "divisors": [poly_to_json(g) for g in divisors],
    }
    return result, [], []


def cmd_idempotent(args):
    obj = _require_input(args)
    field = field_from_json(obj["field"])
    n = json_int(obj["n"], "n", 1)
    if "gens" in obj:
        _, n, alpha, gens = code_from_json(obj)
        consts = alpha.crt()
        es = [
            idempotent_generator(g, ModulusSpec(n, consts[i]))
            for i, g in enumerate(gens)
        ]
        e = from_components(*es)
        result = {
            "field": field_to_json(field),
            "n": n,
            "e": poly_to_json(e),
            "component_idempotents": [poly_to_json(x) for x in es],
        }
        return result, [], []
    alpha = element_from_json(field, obj.get("alpha", 1))
    f = poly_from_json(field, obj["f"])
    mod = ModulusSpec(n, alpha)
    e = idempotent_generator(f, mod)
    result = {
        "field": field_to_json(field),
        "n": n,
        "alpha": alpha.to_int(),
        "e": poly_to_json(e),
        "dual_idempotent": poly_to_json(dual_idempotent(e, mod)),
        "idempotent_ok": True,
        "module_equal": True,
    }
    return result, [], []


# --- verification suites ---

def _suite_gray_commutation(trials, seed):
    runs = []
    for field in (field_f9(), field_f25()):
        for n in (3, 4, 6):
            rep = check_commutation("sigma_pi4", field, n, trials, seed=seed)
            runs.append({"identity": "sigma_pi4", "field": field_to_json(field), "n": n, "pass": rep.passed})
            for alpha in (
                ring_one(field),
                RingElement.from_ints(field, -1),
                RingElement.from_ints(field, 1, 0, 0, -2),
            ):
                rep = check_commutation("tau_omega4", field, n, trials, seed=seed, alpha=alpha)
                runs.append(
                    {
                        "identity": "tau_omega4",
                        "field": field_to_json(field),
                        "n": n,
                        "alpha": ring_to_json(alpha),
                        "pass": rep.passed,
                    }
                )
    rep = check_commutation("permuted_sigma4", field_f27(), 5, trials, seed=seed)
    runs.append({"identity": "permuted_sigma4", "field": field_to_json(field_f27()), "n": 5, "pass": rep.passed})
    return {"runs": runs, "pass": all(r["pass"] for r in runs)}


def _suite_ret1(trials, seed):
    # gcd(n, k) = 1 instances: closure under the untwisted constacyclic shift
    details = []
    ex4 = get_example(4)
    _, closed = _untwisted_closure(ex4["generator"], ex4["n"], ex4["alpha"], ex4["field"])
    details.append({"instance": "length-7 audit module", "gcd": 1, "closed": closed})
    field = field_f9()
    code = build_code(field, 5, ring_one(field), [fq_poly(field, [-1, 1])] * 4)
    closed5 = is_closed_under(code, lambda w: constacyclic_shift(w, code.alpha))
    details.append({"instance": "length-5 cyclic over F9", "gcd": 1, "closed": closed5})
    return {"details": details, "pass": all(d["closed"] for d in details)}


def _suite_ret2(trials, seed):
    details = []
    for num in (1, 3):
        ex = get_example(num)
        code = build_code(ex["field"], ex["n"], ex["alpha"], ex["gens"])
        l = math.gcd(ex["n"], ex["field"].k)
        closed = is_closed_under(code, lambda w: quasi_twist_shift(w, code.alpha, l))
        details.append({"instance": f"example {num}", "index": l, "closed": closed})
    return {"details": details, "pass": all(d["closed"] for d in details)}


def _suite_decomposition(trials, seed):
    rng = random.Random(seed)
    runs = []
    fields = [field_f9(), field_f25()]
    for i in range(10):
        field = fields[i % 2]
        n = rng.randint(2, 6)
        signs = [rng.choice((1, -1)) for _ in range(4)]
        alpha = RingElement.from_crt(field, *signs)
        gens = [
            random_right_divisor(ModulusSpec(n, field.constant(signs[j])), rng, rng.randint(0, n))
            for j in range(4)
        ]
        code = build_code(field, n, alpha, gens)
        back = components_from_words(code.basis_words(), n, alpha)
        round_trip = back.gens == code.gens
        report = verify_decomposition_theorem(code)
        runs.append(
            {
                "field": field_to_json(field),
                "n": n,
                "round_trip": round_trip,
                "closed": report.closed,
            }
        )
    return {"runs": runs, "pass": all(r["round_trip"] and r["closed"] for r in runs)}


def _suite_dual_contract(trials, seed):
    details = []
    for num in (1, 2, 3):
        ex = get_example(num)
        code = build_code(ex["field"], ex["n"], ex["alpha"], ex["gens"])
        _, product_ok, orthogonal = _dual_contract(code)
        details.append({"instance": f"example {num}", "product_ok": product_ok, "orthogonal": orthogonal})
    return {"details": details, "pass": all(d["product_ok"] and d["orthogonal"] for d in details)}


SUITES = {
    "gray-commutation": _suite_gray_commutation,
    "ret1": _suite_ret1,
    "ret2": _suite_ret2,
    "decomposition": _suite_decomposition,
    "dual-contract": _suite_dual_contract,
}


def cmd_verify(args):
    names = args.suites
    for name in names:
        if name not in SUITES:
            raise UnknownSuiteError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    if args.trials < 1:
        raise ParseError(f"trials must be at least 1, got {args.trials}")
    results = {}
    for name in names:
        results[name] = SUITES[name](args.trials, args.seed)
    all_pass = all(r["pass"] for r in results.values())
    result = {"suites": results, "pass": all_pass}
    if not all_pass:
        raise SuiteFailure(result)
    return result, [], []


class SuiteFailure(VerificationError):
    def __init__(self, result):
        super().__init__("one or more verification suites failed")
        self.result = result


# --- example audits ---

def _audit_standard_example(ex, budget):
    discrepancies = []
    code = build_code(ex["field"], ex["n"], ex["alpha"], ex["gens"])
    result = _code_summary(code)
    result["closures"] = _closures(code, budget)
    _gray_params(result, code, budget)
    claimed = ex["claims"].get("gray_params")
    if claimed is not None:
        result["claimed_gray_params"] = list(claimed)
        if list(claimed) != result["gray_params"]:
            discrepancies.append(
                {
                    "claim": f"Gray image parameters {list(claimed)}",
                    "computed": result["gray_params"],
                }
            )
    if "self_dual" in ex["claims"]:
        verdict = _self_dual(result, code)
        if verdict != ex["claims"]["self_dual"]:
            discrepancies.append(
                {
                    "claim": f"self-dual = {ex['claims']['self_dual']}",
                    "computed": verdict,
                    "evidence": result["self_dual_evidence"],
                }
            )
    return result, list(code.warnings), discrepancies


def _audit_example_four(ex):
    warnings = []
    discrepancies = []
    field = ex["field"]
    n = ex["n"]
    alpha = ex["alpha"]
    gen = ex["generator"]
    report = unit_check(alpha)
    result = {
        "field": field_to_json(field),
        "n": n,
        "alpha": ring_to_json(alpha),
        "alpha_crt": list(report.crt_components),
        "alpha_is_unit": report.is_unit,
        "generator": poly_to_json(gen),
    }
    if not report.is_unit:
        warnings.append(f"shift constant is not a unit: crt={list(report.crt_components)}")
        discrepancies.append(
            {
                "claim": "shift constant is a unit (implicit hypothesis)",
                "computed": False,
                "evidence": {"crt": list(report.crt_components)},
            }
        )
    remainder = right_divmod(ModulusSpec(n, alpha).poly(), gen)[1]
    divides = remainder.is_zero
    result["right_divisor"] = divides
    result["division_remainder"] = poly_to_json(remainder)
    working = ex["working_constant"]
    divides_working = right_divmod(ModulusSpec(n, working).poly(), gen)[1].is_zero
    result["right_divisor_of_working_constant"] = {
        "constant": ring_to_json(working),
        "divides": divides_working,
    }
    if ex["claims"].get("right_divisor") and not divides:
        discrepancies.append(
            {
                "claim": "generator right-divides x^n - alpha",
                "computed": False,
                "evidence": {
                    "remainder": repr(remainder),
                    "divides_instead": f"x^{n} - ({working!r})",
                },
            }
        )
    span, closed = _untwisted_closure(gen, n, alpha, field)
    result["submodule_component_dims"] = list(span.dims)
    result["closures"] = {
        "untwisted_constacyclic": closed,
        "gcd_n_k": math.gcd(n, field.k),
    }
    return result, warnings, discrepancies


def cmd_example(args):
    ex = get_example(args.number)
    if ex["number"] == 4:
        return _audit_example_four(ex)
    return _audit_standard_example(ex, args.budget)


# --- report plumbing ---

def flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            rows.extend(flatten(obj[key], f"{prefix}{key}."))
    elif isinstance(obj, list) and any(isinstance(x, (dict, list)) for x in obj):
        for i, item in enumerate(obj):
            rows.extend(flatten(item, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], obj))
    return rows


def render_table(report) -> str:
    rows = flatten(report)
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def _budget_default():
    """SKEWCODES_BUDGET if set, else DEFAULT_BUDGET; None when the variable
    is not an integer, which main reports as an input error."""
    raw = os.environ.get("SKEWCODES_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewcodes",
        description="Construct and verify skew constacyclic codes over F_q + uF_q + vF_q + uvF_q.",
    )
    parser.add_argument("--version", action="version", version=f"skewcodes {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="path to a JSON file, or inline JSON")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--budget", type=int, default=_budget_default())
    common.add_argument("--trials", type=int, default=1000)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="table", action="store_false", default=False)
    fmt.add_argument("--table", dest="table", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("build", parents=[common]).set_defaults(handler=cmd_build)
    sub.add_parser("params", parents=[common]).set_defaults(handler=cmd_params)
    sub.add_parser("dual", parents=[common]).set_defaults(handler=cmd_dual)
    sub.add_parser("gray-image", parents=[common]).set_defaults(handler=cmd_gray_image)
    sub.add_parser("divisor-search", parents=[common]).set_defaults(handler=cmd_divisor_search)
    sub.add_parser("idempotent", parents=[common]).set_defaults(handler=cmd_idempotent)
    p_verify = sub.add_parser("verify", parents=[common])
    p_verify.add_argument("suites", nargs="*", default=[])
    p_verify.set_defaults(handler=cmd_verify)
    p_example = sub.add_parser("example", parents=[common])
    p_example.add_argument("number", type=int, choices=(1, 2, 3, 4))
    p_example.set_defaults(handler=cmd_example)
    return parser


def make_report(args, result, warnings, discrepancies, status) -> dict:
    return {
        "tool": {"name": "skewcodes", "version": __version__},
        "command": args.command,
        "seed": args.seed,
        "budget": args.budget,
        "status": status,
        "result": result,
        "warnings": warnings,
        "discrepancies": discrepancies,
    }


def emit(report: dict, table: bool):
    if table:
        print(render_table(report))
    else:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.budget is None:
            raise ParseError(
                f"SKEWCODES_BUDGET must be an integer, got {os.environ.get('SKEWCODES_BUDGET')!r}"
            )
        if args.budget <= 0:
            raise ParseError(f"budget must be positive, got {args.budget}")
        result, warnings, discrepancies = args.handler(args)
    except SuiteFailure as exc:
        emit(make_report(args, exc.result, [], [], "verification_failed"), args.table)
        return 1
    except (NotADivisorError, VerificationError) as exc:
        emit(make_report(args, {"error": str(exc)}, [], [], "verification_failed"), args.table)
        return 1
    except INPUT_ERRORS as exc:
        emit(make_report(args, {"error": str(exc)}, [], [], "input_error"), args.table)
        return 2
    emit(make_report(args, result, warnings, discrepancies, "ok"), args.table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
