import copy
import json
import time

import pytest

from skewcodes.cli import build_parser, main
from skewcodes.codes import SkewCode


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


CODESPEC = json.dumps(
    {
        "field": {"p": 5, "m": 2, "modulus": [1, 1, 1], "t": 1},
        "n": 4,
        "alpha": {"a": 1},
        "gens": [{"ring": "fq", "coeffs": [6, 1]}] * 4,
    }
)


def test_build_report(capsys):
    code, report = run_cli(capsys, "build", "--input", CODESPEC)
    assert code == 0
    assert report["status"] == "ok"
    assert report["tool"] == {"name": "skewcodes", "version": "0.1.0"}
    assert report["result"]["cardinality"] == 25 ** 12
    assert report["result"]["closures"]["tau"] is True
    assert report["seed"] == 0


def test_params_report(capsys):
    code, report = run_cli(capsys, "params", "--input", CODESPEC)
    assert code == 0
    res = report["result"]
    assert res["gray_params"] == [16, 12, 2]
    assert res["self_dual"] is False
    assert res["closures"]["quasi_twist"] == {"index": 2, "closed": True}


def test_reports_are_byte_identical(capsys):
    main(["example", "2"])
    first = capsys.readouterr().out
    main(["example", "2"])
    second = capsys.readouterr().out
    assert first == second


def test_example_three_reports_self_dual_discrepancy(capsys):
    code, report = run_cli(capsys, "example", "3")
    assert code == 0
    assert report["status"] == "ok"
    assert report["result"]["self_dual"] is False
    assert report["result"]["closures"]["tau"] is True
    assert report["result"]["closures"]["quasi_twist"]["closed"] is True
    claims = [d["claim"] for d in report["discrepancies"]]
    assert any("self-dual" in c for c in claims)
    evidence = report["discrepancies"][0]["evidence"]
    assert evidence["component_dims"] == [3, 3, 3, 2]


def test_example_four_reports_divisibility_and_unit_discrepancies(capsys):
    code, report = run_cli(capsys, "example", "4")
    assert code == 0
    res = report["result"]
    assert res["alpha_is_unit"] is False
    assert res["alpha_crt"] == [1, 1, 2, 0]
    assert res["right_divisor"] is False
    assert res["right_divisor_of_working_constant"]["divides"] is True
    assert res["submodule_component_dims"] == [1, 1, 1, 7]
    assert res["closures"]["untwisted_constacyclic"] is True
    claims = [d["claim"] for d in report["discrepancies"]]
    assert any("unit" in c for c in claims)
    assert any("right-divides" in c for c in claims)
    assert any("not a unit" in w for w in report["warnings"])


def test_example_audits_one_and_two(capsys):
    code, report = run_cli(capsys, "example", "1")
    assert code == 0
    assert report["result"]["gray_params"] == [16, 12, 2]
    assert report["discrepancies"] == []
    code, report = run_cli(capsys, "example", "2")
    assert code == 0
    assert report["result"]["gray_params"] == [24, 9, 4]
    assert report["discrepancies"] == []


def test_verify_empty_is_ok(capsys):
    code, report = run_cli(capsys, "verify")
    assert code == 0
    assert report["result"] == {"suites": {}, "pass": True}


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_needs_at_least_one_trial(capsys, trials):
    code, report = run_cli(capsys, "verify", "gray-commutation", "--trials", trials)
    assert code == 2
    assert report["status"] == "input_error"
    assert report["result"] == {"error": f"trials must be at least 1, got {trials}"}


def test_verify_unknown_suite(capsys):
    code, report = run_cli(capsys, "verify", "nonsense")
    assert code == 2
    assert report["status"] == "input_error"
    assert report["result"]["error"] == (
        "unknown suite 'nonsense'; known: gray-commutation, ret1, ret2, decomposition, dual-contract"
    )


def test_verify_suites_pass(capsys):
    code, report = run_cli(
        capsys, "verify", "gray-commutation", "ret1", "ret2", "--trials", "25"
    )
    assert code == 0
    assert report["result"]["pass"] is True


def test_verify_decomposition_and_dual_suites(capsys):
    code, report = run_cli(
        capsys, "verify", "decomposition", "dual-contract", "--trials", "10"
    )
    assert code == 0
    suites = report["result"]["suites"]
    assert suites["decomposition"]["pass"] is True
    assert suites["dual-contract"]["pass"] is True


def test_reports_embed_field_spec(capsys):
    _, report = run_cli(capsys, "build", "--input", CODESPEC)
    assert report["result"]["field"] == {"p": 5, "m": 2, "modulus": [1, 1, 1], "t": 1}
    _, report = run_cli(capsys, "example", "4")
    assert report["result"]["field"]["p"] == 3


def test_parse_error_exit_code(capsys):
    code, report = run_cli(capsys, "build", "--input", "{broken")
    assert code == 2
    assert report["status"] == "input_error"


def test_missing_input_exit_code(capsys):
    code, report = run_cli(capsys, "build")
    assert code == 2


def test_non_divisor_input_fails_verification(capsys):
    bad = json.dumps(
        {
            "field": {"p": 3, "m": 2, "modulus": [1, 0, 1], "t": 1},
            "n": 4,
            "alpha": {"a": 1},
            "gens": [{"ring": "fq", "coeffs": [1, 1, 1]}] * 4,
        }
    )
    code, report = run_cli(capsys, "build", "--input", bad)
    assert code == 1
    assert report["status"] == "verification_failed"


def test_divisor_search_command(capsys):
    spec = json.dumps(
        {
            "field": {"p": 5, "m": 2, "modulus": [1, 1, 1], "t": 1},
            "n": 4,
            "alpha": 1,
            "degree": 1,
        }
    )
    code, report = run_cli(capsys, "divisor-search", "--input", spec)
    assert code == 0
    assert report["result"]["count"] == 12
    assert {"ring": "fq", "coeffs": [2, 1]} in report["result"]["divisors"]
    assert {"ring": "fq", "coeffs": [6, 1]} in report["result"]["divisors"]


def test_idempotent_command(capsys):
    spec = json.dumps(
        {
            "field": {"p": 3, "m": 2, "modulus": [1, 0, 1], "t": 1},
            "n": 5,
            "alpha": 1,
            "f": {"ring": "fq", "coeffs": [2, 1]},
        }
    )
    code, report = run_cli(capsys, "idempotent", "--input", spec)
    assert code == 0
    assert report["result"]["e"] == {"ring": "fq", "coeffs": [2, 1, 1, 1, 1]}
    assert report["result"]["dual_idempotent"] == {"ring": "fq", "coeffs": [2, 2, 2, 2, 2]}


def test_idempotent_command_for_a_code_spec(capsys):
    spec = json.dumps(
        {
            "field": {"p": 3, "m": 2, "modulus": [1, 0, 1], "t": 1},
            "n": 5,
            "alpha": {"crt": [1, 1, 2, 2]},
            "gens": [
                {"ring": "fq", "coeffs": [2, 1]},
                {"ring": "fq", "coeffs": [2, 1]},
                {"ring": "fq", "coeffs": [1, 1]},
                {"ring": "fq", "coeffs": [1, 1]},
            ],
        }
    )
    code, report = run_cli(capsys, "idempotent", "--input", spec)
    assert code == 0
    assert len(report["result"]["component_idempotents"]) == 4
    assert report["result"]["e"]["ring"] == "R"


def test_idempotent_command_enforces_hypotheses(capsys):
    spec = json.dumps(
        {
            "field": {"p": 3, "m": 2, "modulus": [1, 0, 1], "t": 1},
            "n": 6,
            "alpha": 1,
            "f": {"ring": "fq", "coeffs": [2, 1]},
        }
    )
    code, report = run_cli(capsys, "idempotent", "--input", spec)
    assert code == 2
    assert report["status"] == "input_error"


def test_gray_image_command(capsys):
    code, report = run_cli(capsys, "gray-image", "--input", CODESPEC)
    assert code == 0
    assert report["result"]["length"] == 16
    assert report["result"]["dimension"] == 12
    assert len(report["result"]["rows"]) == 12


def test_dual_command(capsys):
    code, report = run_cli(capsys, "dual", "--input", CODESPEC)
    assert code == 0
    assert report["result"]["orthogonal"] is True
    assert report["result"]["cardinality_product_ok"] is True


def test_table_rendering(capsys):
    code = main(["example", "1", "--table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "result.gray_params" in out
    assert "{" not in out.splitlines()[0]


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("SKEWCODES_BUDGET", "123")
    parser = build_parser()
    args = parser.parse_args(["build"])
    assert args.budget == 123


def test_non_positive_budget_rejected(capsys):
    code, report = run_cli(capsys, "example", "1", "--budget", "0")
    assert code == 2
    assert report["status"] == "input_error"


def test_seed_recorded_in_report(capsys):
    code, report = run_cli(capsys, "verify", "ret2", "--seed", "99", "--trials", "10")
    assert code == 0
    assert report["seed"] == 99


def test_budget_env_not_an_integer_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setenv("SKEWCODES_BUDGET", "abc")
    code, report = run_cli(capsys, "example", "1")
    assert code == 2
    assert report["status"] == "input_error"
    assert "SKEWCODES_BUDGET" in report["result"]["error"]


SEARCH_F3 = {"field": {"p": 3, "m": 1, "modulus": [0, 1], "t": 1}, "n": 4, "alpha": 1, "degree": 1}


@pytest.mark.parametrize(
    "path",
    [("n",), ("degree",), ("alpha",), ("field", "p"), ("field", "m"), ("field", "t"), ("field", "modulus", 1)],
)
def test_json_booleans_are_not_integers(capsys, path):
    obj = copy.deepcopy(SEARCH_F3)
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = True
    code, report = run_cli(capsys, "divisor-search", "--input", json.dumps(obj))
    assert code == 2
    assert report["status"] == "input_error"
    assert "must be an integer" in report["result"]["error"]


def test_json_boolean_coefficient_is_not_an_element_code(capsys):
    obj = json.loads(CODESPEC)
    obj["gens"] = [{"ring": "fq", "coeffs": [True, 1]}] * 4
    code, report = run_cli(capsys, "build", "--input", json.dumps(obj))
    assert code == 2
    assert report["result"]["error"] == "field element must be an integer code, got True"


@pytest.mark.parametrize("key, value, message", [
    ("degree", -1, "degree must be at least 0, got -1"),
    ("n", 0, "n must be at least 1, got 0"),
])
def test_divisor_search_rejects_out_of_range_sizes(capsys, key, value, message):
    code, report = run_cli(capsys, "divisor-search", "--input", json.dumps({**SEARCH_F3, key: value}))
    assert code == 2
    assert report["result"]["error"] == message


@pytest.mark.parametrize("alpha", [1, {"crt": [1, 1, 1, 1]}])
def test_divisor_search_above_degree_n_is_empty(capsys, alpha):
    start = time.perf_counter()
    code, report = run_cli(
        capsys, "divisor-search", "--input", json.dumps({**SEARCH_F3, "alpha": alpha, "degree": 3000000})
    )
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert report["result"]["count"] == 0


def test_divisor_search_count_too_long_to_print_is_refused(capsys):
    obj = {**SEARCH_F3, "n": 10000, "degree": 10000}
    start = time.perf_counter()
    code, report = run_cli(capsys, "divisor-search", "--input", json.dumps(obj), "--budget", "10000000")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert report["result"]["error"] == "3^10000 candidates exceed the budget of 10000000"


F9 = {"p": 3, "m": 2, "modulus": [1, 0, 1], "t": 1}
IDEMPOTENT_F9 = {"field": F9, "n": 5, "alpha": 1, "f": {"ring": "fq", "coeffs": [2, 1]}}
PARAMS_F9 = {"field": F9, "n": 5, "alpha": 1, "gens": [{"ring": "fq", "coeffs": [2, 1]}] * 4}


@pytest.mark.parametrize("command, obj", [
    ("idempotent", {**IDEMPOTENT_F9, "f": {"ring": "fq", "coeffs": 5}}),
    ("idempotent", {**IDEMPOTENT_F9, "f": {"ring": "fq", "coeffs": None}}),
    ("params", {**PARAMS_F9, "gens": [{"ring": "fq", "coeffs": 5}] * 4}),
    ("params", {**PARAMS_F9, "gens": [{"ring": "fq", "coeffs": None}] * 4}),
    ("divisor-search", {**SEARCH_F3, "alpha": {"crt": None}}),
    ("divisor-search", {**SEARCH_F3, "alpha": {"a": 1, "uv": 1}}),
    ("divisor-search", {**SEARCH_F3, "alpha": {"a": 1, "crt": [1, 1, 1, 1]}}),
    ("params", {**PARAMS_F9, "alpha": {"crt": [1, 1, 1, 1], "b": 0}}),
])
def test_malformed_json_is_an_input_error(capsys, command, obj):
    code, report = run_cli(capsys, command, "--input", json.dumps(obj))
    assert code == 2
    assert report["status"] == "input_error"


def test_input_that_is_not_a_json_object_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    for command in ("divisor-search", "idempotent", "params"):
        code, report = run_cli(capsys, command, "--input", str(path))
        assert code == 2
        assert report["result"]["error"] == "input must be a JSON object, got list"


F243_CODE = {
    "field": {"p": 3, "m": 5, "modulus": [1, 2, 0, 0, 0, 1], "t": 1},
    "n": 2,
    "alpha": 1,
    "gens": [{"ring": "fq", "coeffs": [2, 1]}] * 4,
}


def test_field_tables_over_the_budget_are_refused(capsys):
    # the weight-1 sweep (8 * 242 candidates) fits; the 243^2 tables do not
    code, report = run_cli(capsys, "params", "--input", json.dumps(F243_CODE), "--budget", "50000")
    assert code == 2
    assert report["status"] == "input_error"
    assert "q^2 = 59049" in report["result"]["error"]
    code, report = run_cli(capsys, "params", "--input", json.dumps(F243_CODE), "--budget", "59049")
    assert code == 0


def cyclic_f3(n):
    """Four x - 1 generators over F3: sum(dims) * 4n = 16 n (n - 1) closure steps."""
    return json.dumps({
        "field": {"p": 3, "m": 1, "modulus": [0, 1], "t": 1},
        "n": n,
        "alpha": {"a": 1},
        "gens": [{"ring": "fq", "coeffs": [2, 1]}] * 4,
    })


def test_closure_checks_are_bounded_by_the_budget(capsys, monkeypatch):
    code, report = run_cli(capsys, "build", "--input", cyclic_f3(50))
    assert code == 0
    assert report["result"]["closures"]["tau"] is True
    calls = []
    monkeypatch.setattr(SkewCode, "contains", lambda self, word: calls.append(word))
    for command in ("build", "params"):
        code, report = run_cli(capsys, command, "--input", cyclic_f3(200), "--budget", "600000")
        assert code == 2
        assert report["status"] == "input_error"
        assert report["result"]["error"] == (
            "closure check needs 796 basis words * 4n = 636800 steps, over the budget of 600000"
        )
    assert calls == []


def test_field_above_max_q_is_an_input_error(capsys):
    obj = {**SEARCH_F3, "field": {"p": 3, "m": 12, "modulus": [2] + [0] * 10 + [1, 1], "t": 1}}
    code, report = run_cli(capsys, "divisor-search", "--input", json.dumps(obj))
    assert code == 2
    assert report["result"]["error"] == "q = 3^12 exceeds MAX_Q = 177147"
