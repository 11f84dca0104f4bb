"""Command-line front end: build and audit codes, emit JSON reports.

Reports are machine-first JSON (byte-identical for identical input, seed,
and budget); --table renders the same content as aligned text. Exit codes:
0 success (including reports that carry discrepancies), 1 verification
failure, 2 input error.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass

from . import __version__
from .catalog import example_code, field_f9, field_f25, field_f27, get_example
from .codes import (
    build_code,
    component_orthogonality,
    dual_code,
    self_dual_report,
    shift_closures,
)
from .decomp import (
    components_from_words,
    dual_hypothesis_note,
    verify_decomposition_theorem,
)
from .distance import min_distance
from .errors import (
    DEFAULT_BUDGET,
    NotADivisorError,
    ParseError,
    SkewcodesError,
    UnknownSuiteError,
    VerificationError,
    charge,
)
from .gray import check_commutation, gray_image_code, permuted_sigma4, tau_omega4
from .ring4 import RingElement, ring_one
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
    right_remainder,
    span_words,
)

INPUT_ERRORS = (SkewcodesError, KeyError, ValueError)


def _require_input(args):
    if not args.input:
        raise ParseError("this command requires --input")
    return load_input(args.input)


def _input_code(args):
    """The input code, refused before build_code reads each remainder of
    x^n - beta_i by g_i off its residue rows x^D mod g_i, deg g_i <= D <= n,
    when the sum of (n - deg g_i + 1)(deg g_i + 1), a bound on the
    (n + 1 - deg g_i) deg g_i entries of each table, is over the budget."""
    field, n, alpha, gens = code_from_json(_require_input(args))
    degrees = [g.degree or 0 for g in gens]  # build_code refuses a zero generator
    steps = sum(max(n - d + 1, 0) * (d + 1) for d in degrees)
    needs = "the code's residue tables need at most sum (n - deg g_i + 1)(deg g_i + 1)"
    charge(args.budget, steps, needs, "entries")
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
    tau, l, closed = shift_closures(code, budget)
    return {"tau": tau, "quasi_twist": {"index": l, "closed": closed}}


def _gray_image(code, budget):
    """gray_image_code, refused over the budget of k^2 * 4n steps for the
    k = sum(dims) image rows of length 4n: it bounds the rows that
    gray-image prints and that params and the example audits build.
    min_distance row-reduces those rows block by block, never as one
    length-4n matrix."""
    k = sum(code.dims)
    charge(budget, k * k * 4 * code.n, f"Gray image needs k^2 * 4n = {k}^2 * {4 * code.n}")
    return gray_image_code(code)


def _gray_params(result, code, budget):
    """Record the Gray image parameters [4n, k, d] and the distance report."""
    image = _gray_image(code, budget)
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


def _dual_contract(code, budget):
    """(dual, |C||C^perp| = q^{4n}, C and C^perp orthogonal), refused before
    the dual is built over the budget of the orthogonality check's products:
    dual component i has dimension n - k_i."""
    n = code.n
    steps = sum(k * (n - k) * n for k in code.dims)
    charge(budget, steps, "orthogonality check needs sum k_i * (n - k_i) * n")
    dual = dual_code(code)
    product_ok = code.cardinality * dual.cardinality == code.field.q ** (4 * n)
    orthogonal = all(component_orthogonality(code, dual))
    return dual, product_ok, orthogonal


def _example_four_module(ex):
    """Example 4's module <generator> mod x^7 - alpha as a code, from its
    seven span words (no division); gcd(7, k) = 1, so shift_closures' rho_1
    is the untwisted constacyclic shift."""
    n, alpha = ex["n"], ex["alpha"]
    return components_from_words(span_words(ex["generator"], ModulusSpec(n, alpha)), n, alpha)


def cmd_build(args):
    code = _input_code(args)
    result = _code_summary(code)
    result["closures"] = {"tau": shift_closures(code, args.budget)[0]}
    return result, list(code.warnings), []


def cmd_params(args):
    code = _input_code(args)
    result = _code_summary(code)
    closures = _closures(code, args.budget)
    # With index 1 the quasi-twist is the untwisted constacyclic shift.
    quasi_twist = closures["quasi_twist"]
    closures["untwisted_constacyclic"] = quasi_twist["closed"] if quasi_twist["index"] == 1 else None
    result["closures"] = closures
    _gray_params(result, code, args.budget)
    _self_dual(result, code)
    return result, list(code.warnings), []


def cmd_dual(args):
    code = _input_code(args)
    dual, product_ok, orthogonal = _dual_contract(code, args.budget)
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
    image = _gray_image(code, args.budget)
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
    # Each idempotent is one linear solve of n equations, checked by one
    # remainder and one row reduction of the n span words of e: O(n^3)
    # steps, charged as n^3 and refused before the first division.
    count = 4 if "gens" in obj else 1
    charge(args.budget, count * n ** 3, f"idempotent check needs {count} * n^3")
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

def _suite_gray_commutation(seed, budget):
    runs = []
    for field in (field_f9(), field_f25()):
        for n in (3, 4, 6):
            passed = check_commutation(*tau_omega4(ring_one(field)), field, n) is None
            runs.append({"identity": "sigma_pi4", "field": field_to_json(field), "n": n, "pass": passed})
            for alpha in (
                ring_one(field),
                RingElement.from_ints(field, -1),
                RingElement.from_ints(field, 1, 0, 0, -2),
            ):
                passed = check_commutation(*tau_omega4(alpha), field, n) is None
                runs.append(
                    {
                        "identity": "tau_omega4",
                        "field": field_to_json(field),
                        "n": n,
                        "alpha": ring_to_json(alpha),
                        "pass": passed,
                    }
                )
    f27 = field_f27()
    passed = check_commutation(*permuted_sigma4(f27), f27, 5) is None
    runs.append({"identity": "permuted_sigma4", "field": field_to_json(f27), "n": 5, "pass": passed})
    return {"runs": runs, "pass": all(r["pass"] for r in runs)}


def _suite_ret1(seed, budget):
    # gcd(n, k) = 1 instances: closure under the untwisted constacyclic shift
    details = []
    closed = shift_closures(_example_four_module(get_example(4)), budget)[2]
    details.append({"instance": "length-7 audit module", "gcd": 1, "closed": closed})
    field = field_f9()
    code = build_code(field, 5, ring_one(field), [fq_poly(field, [-1, 1])] * 4)
    closed5 = shift_closures(code, budget)[2]
    details.append({"instance": "length-5 cyclic over F9", "gcd": 1, "closed": closed5})
    return {"details": details, "pass": all(d["closed"] for d in details)}


def _suite_ret2(seed, budget):
    details = []
    for num in (1, 3):
        _, l, closed = shift_closures(example_code(num), budget)
        details.append({"instance": f"example {num}", "index": l, "closed": closed})
    return {"details": details, "pass": all(d["closed"] for d in details)}


def _suite_decomposition(seed, budget):
    rng = random.Random(seed)
    runs = []
    # the theorem: the whole-code verdict agrees with the component verdicts
    equivalences = []
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
        report = verify_decomposition_theorem(code, budget)
        equivalences.append(report.equivalence_holds)
        runs.append(
            {
                "field": field_to_json(field),
                "n": n,
                "round_trip": round_trip,
                "closed": report.closed,
            }
        )
    return {"runs": runs, "pass": all(equivalences) and all(r["round_trip"] and r["closed"] for r in runs)}


def _suite_dual_contract(seed, budget):
    details = []
    for num in (1, 2, 3):
        _, product_ok, orthogonal = _dual_contract(example_code(num), budget)
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
        results[name] = SUITES[name](args.seed, args.budget)
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
    crt = list(alpha.crt_ints())
    result = {
        "field": field_to_json(field),
        "n": n,
        "alpha": ring_to_json(alpha),
        "alpha_crt": crt,
        "alpha_is_unit": alpha.is_unit,
        "generator": poly_to_json(gen),
    }
    if not alpha.is_unit:
        warnings.append(f"shift constant is not a unit: crt={crt}")
        discrepancies.append(
            {
                "claim": "shift constant is a unit (implicit hypothesis)",
                "computed": False,
                "evidence": {"crt": crt},
            }
        )
    remainder = right_remainder(ModulusSpec(n, alpha).poly(), gen)
    divides = remainder.is_zero
    result["right_divisor"] = divides
    result["division_remainder"] = poly_to_json(remainder)
    working = ex["working_constant"]
    divides_working = right_remainder(ModulusSpec(n, working).poly(), gen).is_zero
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
    module = _example_four_module(ex)
    _, l, closed = shift_closures(module)
    result["submodule_component_dims"] = list(module.dims)
    result["closures"] = {"untwisted_constacyclic": closed, "gcd_n_k": l}
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
    """SKEWCODES_BUDGET if set, else DEFAULT_BUDGET; a ParseError when the
    variable is not an integer."""
    raw = os.environ.get("SKEWCODES_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise ParseError(f"SKEWCODES_BUDGET must be an integer, got {raw!r}") from exc


COMMANDS = {
    "build": cmd_build,
    "params": cmd_params,
    "dual": cmd_dual,
    "gray-image": cmd_gray_image,
    "divisor-search": cmd_divisor_search,
    "idempotent": cmd_idempotent,
    "verify": cmd_verify,
    "example": cmd_example,
}
VALUE_OPTIONS = ("--input", "--seed", "--budget", "--trials")
FORMATS = {"--json": False, "--table": True}
USAGE = f"""\
usage: skewcodes COMMAND [OPERAND ...] [--input X] [--seed N] [--budget N] [--trials N] [--json | --table]
       skewcodes --help | --version

Construct and verify skew constacyclic codes over F_q + uF_q + vF_q + uvF_q.

commands:
  build, params, dual, gray-image    analyze the code spec given by --input
  divisor-search, idempotent         search right divisors, idempotent generators (--input)
  verify [SUITE ...]                 run suites: {' '.join(SUITES)}
  example N                          audit bundled construction N, 1 to 4

Options go before or after the operands, as --opt value or --opt=value;
the last of a repeated option wins.
  --input X    path to a JSON file, or inline JSON
  --seed N     seed of the decomposition suite (default 0)
  --budget N   work cap (default SKEWCODES_BUDGET, else {DEFAULT_BUDGET})
  --trials N   at least 1; no suite reads it (default 1000)
  --json       print the report as JSON (the default)
  --table      print the report as aligned text"""


@dataclass
class Args:
    """A parsed command line; each default is what a left-out option means."""

    command: str | None = None
    input: str | None = None
    seed: int = 0
    budget: int | None = None  # None: SKEWCODES_BUDGET, else DEFAULT_BUDGET (main reads it)
    trials: int = 1000
    table: bool = False
    suites: tuple = ()
    number: int | None = None


def _int(value: str, what: str) -> int:
    """int(value), signs, surrounding spaces and '_' included; a ParseError otherwise."""
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {value!r}") from None


def parse_argv(argv, args: Args) -> str | None:
    """Fill `args` from argv in one pass, for the grammar of USAGE.

    Raises ParseError at the first malformed token, with what was parsed
    before it left in `args` for the report. --help and --version end the
    parse and return the text to print in place of a report; otherwise the
    result is None. As with getopt, the token after an option that takes a
    value is its value, whatever it looks like.
    """
    operands, fmt = [], None
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return USAGE
        if token == "--version":
            return f"skewcodes {__version__}"
        if args.command is None:
            if token not in COMMANDS:
                raise ParseError(f"unknown command {token!r}; known: {', '.join(COMMANDS)}")
            args.command = token
            continue
        if not token.startswith("--"):
            operands.append(token)
            continue
        name, eq, value = token.partition("=")
        if name in FORMATS:
            if eq:
                raise ParseError(f"{name} takes no value")
            if fmt not in (None, name):
                raise ParseError("--json and --table cannot be combined")
            fmt, args.table = name, FORMATS[name]
            continue
        if name not in VALUE_OPTIONS:
            raise ParseError(f"unknown option {name!r}; known: {', '.join((*VALUE_OPTIONS, *FORMATS))}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ParseError(f"{name} needs a value")
        if name == "--input":
            args.input = value
        else:
            setattr(args, name[2:], _int(value, name))
    if args.command is None:
        raise ParseError(f"missing command; known: {', '.join(COMMANDS)}")
    if args.command == "verify":
        args.suites = tuple(operands)
    elif args.command == "example":
        if len(operands) != 1:
            raise ParseError(f"example takes one operand, the example number, got {len(operands)}")
        args.number = _int(operands[0], "the example number")
        if args.number not in (1, 2, 3, 4):
            raise ParseError(f"the example number must be 1 to 4, got {args.number}")
    elif operands:
        raise ParseError(f"{args.command} takes no operands, got {' '.join(operands)!r}")
    return None


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
    args = Args()
    try:
        text = parse_argv(sys.argv[1:] if argv is None else argv, args)
        if text is not None:
            print(text)
            return 0
        if args.budget is None:
            args.budget = _budget_default()
        if args.budget <= 0:
            raise ParseError(f"budget must be positive, got {args.budget}")
        result, warnings, discrepancies = COMMANDS[args.command](args)
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
