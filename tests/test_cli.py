import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import skewcodes
from skewcodes.cli import main
from skewcodes.codes import SkewCode
from skewcodes.distance import DEFAULT_BUDGET
from skewcodes.gf import FieldElement
from skewcodes.serial import code_from_json
from skewcodes.skewpoly import ModulusSpec


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


def test_gray_commutation_result_reads_neither_trials_nor_seed(capsys):
    """The suite proves its identities on a basis, so --trials and --seed
    leave its result unchanged."""
    results = []
    for trials, seed in (("1", "0"), ("20", "7"), ("1000", "123")):
        code, report = run_cli(capsys, "verify", "gray-commutation", "--trials", trials, "--seed", seed)
        assert code == 0
        results.append(report["result"])
    assert results[0]["pass"] is True
    assert results[1] == results[0]
    assert results[2] == results[0]


def test_verify_decomposition_and_dual_suites(capsys):
    code, report = run_cli(
        capsys, "verify", "decomposition", "dual-contract", "--trials", "10"
    )
    assert code == 0
    suites = report["result"]["suites"]
    assert suites["decomposition"]["pass"] is True
    assert suites["dual-contract"]["pass"] is True


def test_decomposition_suite_fails_when_the_theorem_fails(capsys, monkeypatch):
    """A run passes only when its whole-code verdict agrees with its
    component verdicts. Each component verdict is patched to its negation:
    every code stays closed and round-trips, but the suite fails."""
    import dataclasses

    import skewcodes.cli as cli

    verify = cli.verify_decomposition_theorem

    def negated(code, budget):
        report = verify(code, budget)
        components = tuple(not c for c in report.components)
        return dataclasses.replace(report, components=components, equivalence_holds=report.closed == all(components))

    monkeypatch.setattr(cli, "verify_decomposition_theorem", negated)
    code, report = run_cli(capsys, "verify", "decomposition")
    assert code == 1
    runs = report["result"]["suites"]["decomposition"]["runs"]
    assert all(r["round_trip"] and r["closed"] for r in runs)
    assert report["result"]["suites"]["decomposition"]["pass"] is False


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


@pytest.mark.parametrize(
    "suite, needs",
    [
        ("ret1", "closure check needs 10 basis words * 4n = 280 steps"),
        ("ret2", "closure check needs 12 basis words * 4n = 192 steps"),
        ("decomposition", "closure check needs 16 basis words * 4n = 320 steps"),
        ("dual-contract", "orthogonality check needs sum k_i * (n - k_i) * n = 48 steps"),
    ],
)
def test_verify_suites_are_charged_against_the_budget(capsys, suite, needs):
    code, report = run_cli(capsys, "verify", suite, "--budget", "10")
    assert (code, report["status"], report["budget"]) == (2, "input_error", 10)
    assert report["result"]["error"] == f"{needs}, over the budget of 10"


def test_gray_commutation_charges_nothing(capsys):
    code, report = run_cli(capsys, "verify", "gray-commutation", "--budget", "1")
    assert (code, report["result"]["pass"]) == (0, True)


def test_budget_env_override(monkeypatch, capsys):
    monkeypatch.setenv("SKEWCODES_BUDGET", "123")
    code, report = run_cli(capsys, "verify")
    assert code == 0
    assert report["budget"] == 123


def test_budget_env_is_read_on_every_call(monkeypatch, capsys):
    for value in (123, 456):
        monkeypatch.setenv("SKEWCODES_BUDGET", str(value))
        code, report = run_cli(capsys, "verify")
        assert (code, report["budget"]) == (0, value)
    monkeypatch.delenv("SKEWCODES_BUDGET")
    assert run_cli(capsys, "verify")[1]["budget"] == DEFAULT_BUDGET


def test_explicit_budget_beats_an_invalid_env(monkeypatch, capsys):
    monkeypatch.setenv("SKEWCODES_BUDGET", "abc")
    code, report = run_cli(capsys, "verify", "--budget", "77")
    assert (code, report["status"], report["budget"]) == (0, "ok", 77)


def test_cli_main_does_not_import_argparse():
    """The command line is parsed by cli.parse_argv, in one pass: a request
    in a fresh interpreter never imports argparse."""
    src = Path(skewcodes.__file__).resolve().parents[1]
    probe = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from skewcodes import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['verify', 'ret2', '--seed', '3'])\n"
        "print(rc, 'argparse' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout.split()) == (0, ["0", "False"]), proc.stderr


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


@pytest.mark.parametrize("n", [10**4, 10**5])
def test_divisor_search_charges_the_certificate_divisions(capsys, n):
    """81 candidates at degree 2 over F9 are within the budget, but each is
    charged the (n - 1) * 3 steps of one division of x^n - alpha before the
    screen starts."""
    obj = {"field": {"p": 3, "m": 2, "modulus": [1, 0, 1], "t": 1}, "n": n, "alpha": 1, "degree": 2}
    start = time.perf_counter()
    code, report = run_cli(capsys, "divisor-search", "--input", json.dumps(obj), "--budget", "200000")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert report["result"]["error"] == (
        f"81 candidates * (n - degree + 1)(degree + 1) = {81 * (n - 1) * 3}"
        " division steps, over the budget of 200000"
    )


def test_degree_one_search_over_f_q_is_bounded_in_n(capsys):
    """Over F3 with n = 10^9, e_n = 0: alpha = 2 has no root and returns at
    once, and alpha = 1 has two, whose certificates are refused unbuilt."""
    obj = {**SEARCH_F3, "n": 10**9, "alpha": 2}
    start = time.perf_counter()
    code, report = run_cli(capsys, "divisor-search", "--input", json.dumps(obj))
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert report["result"]["count"] == 0
    start = time.perf_counter()
    code, report = run_cli(capsys, "divisor-search", "--input", json.dumps({**obj, "alpha": 1}))
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert report["result"]["error"] == (
        f"2 divisors * (n - degree + 1)(degree + 1) = {2 * 10**9 * 2} division steps,"
        f" over the budget of {DEFAULT_BUDGET}"
    )


def test_degree_one_search_over_r_is_bounded_in_n(capsys):
    """R over F3 with n = 10^9: each component's roots come from (n, beta_i).
    CRT view (1, 2, 1, 2) has none in components 2 and 4 and returns at once;
    (1, 1, 1, 1) has 2^4 = 16 divisors, whose certificates are refused
    before x^n - alpha is built."""
    obj = {**SEARCH_F3, "n": 10**9, "alpha": {"crt": [1, 2, 1, 2]}}
    start = time.perf_counter()
    code, report = run_cli(capsys, "divisor-search", "--input", json.dumps(obj))
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert report["result"]["count"] == 0
    start = time.perf_counter()
    code, report = run_cli(capsys, "divisor-search", "--input", json.dumps({**obj, "alpha": {"crt": [1, 1, 1, 1]}}))
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert report["result"]["error"] == (
        f"16 divisors * (n - degree + 1)(degree + 1) = {16 * 10**9 * 2} division steps,"
        f" over the budget of {DEFAULT_BUDGET}"
    )


def test_divisor_search_step_charge_is_exact(capsys):
    """SEARCH_F3 at degree 1, solved in closed form: its 2 divisors are
    charged 2 * 4 * 2 = 16 certificate steps."""
    code, report = run_cli(capsys, "divisor-search", "--input", json.dumps(SEARCH_F3), "--budget", "16")
    assert code == 0
    code, report = run_cli(capsys, "divisor-search", "--input", json.dumps(SEARCH_F3), "--budget", "15")
    assert code == 2
    assert report["result"]["error"] == (
        "2 divisors * (n - degree + 1)(degree + 1) = 16 division steps, over the budget of 15"
    )


def test_divisor_search_count_too_long_to_print_is_refused(capsys):
    obj = {**SEARCH_F3, "n": 10000, "degree": 10000}
    start = time.perf_counter()
    code, report = run_cli(capsys, "divisor-search", "--input", json.dumps(obj), "--budget", "10000000")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert report["result"]["error"] == "3^10000 candidates per component exceed the budget of 10000000"


F9 = {"p": 3, "m": 2, "modulus": [1, 0, 1], "t": 1}
IDEMPOTENT_F9 = {"field": F9, "n": 5, "alpha": 1, "f": {"ring": "fq", "coeffs": [2, 1]}}
PARAMS_F9 = {"field": F9, "n": 5, "alpha": 1, "gens": [{"ring": "fq", "coeffs": [2, 1]}] * 4}


@pytest.mark.parametrize("obj, count", [(IDEMPOTENT_F9, 1), (PARAMS_F9, 4)])
def test_idempotent_is_charged_before_it_runs(capsys, obj, count):
    """Each idempotent check costs n^3 steps: exact at n = 5, and n = 1000
    over F7 (which meets the gcd hypotheses) is refused at once."""
    steps = count * 125
    code, report = run_cli(capsys, "idempotent", "--input", json.dumps(obj), "--budget", str(steps))
    assert code == 0
    code, report = run_cli(capsys, "idempotent", "--input", json.dumps(obj), "--budget", str(steps - 1))
    assert code == 2
    assert report["result"]["error"] == (
        f"idempotent check needs {count} * n^3 = {steps} steps, over the budget of {steps - 1}"
    )
    big = {**obj, "field": {"p": 7, "m": 1, "modulus": [4, 1], "t": 1}, "n": 1000}
    start = time.perf_counter()
    code, report = run_cli(capsys, "idempotent", "--input", json.dumps(big), "--budget", "200000")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert report["result"]["error"].startswith(f"idempotent check needs {count} * n^3 = ")


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


def test_unreadable_input_is_an_input_error(capsys, tmp_path):
    for source in (str(tmp_path), str(tmp_path / "missing.json")):
        code, report = run_cli(capsys, "dual", "--input", source)
        assert code == 2
        assert report["status"] == "input_error"
        assert report["result"]["error"].startswith("cannot read input: ")


def test_deeply_nested_input_is_an_input_error(capsys):
    code, report = run_cli(capsys, "params", "--input", '{"gens": ' + "[" * 100000 + "}")
    assert code == 2
    assert report["status"] == "input_error"
    assert report["result"]["error"].startswith("cannot read input: ")


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


def test_build_divisions_are_linear_before_the_closure_refusal(capsys):
    """build_code divides x^1200 - 1 by each generator before the closure
    check refuses the code; with quadratic divisions this took seconds."""
    start = time.perf_counter()
    code, report = run_cli(capsys, "build", "--input", cyclic_f3(1200), "--budget", "200000")
    assert time.perf_counter() - start < 3.0
    assert code == 2
    assert report["result"]["error"] == (
        "closure check needs 4796 basis words * 4n = 23020800 steps, over the budget of 200000"
    )


def test_gray_image_is_bounded_by_the_budget(capsys, monkeypatch):
    """k^2 * 4n for the k = sum(dims) image rows is charged before any row
    reduction: n = 68 passes at the default budget, n = 70 is refused."""
    code, report = run_cli(capsys, "params", "--input", cyclic_f3(40))
    assert code == 0
    assert report["result"]["gray_params"] == [160, 156, 2]
    code, report = run_cli(capsys, "gray-image", "--input", cyclic_f3(68))
    assert code == 0
    assert report["result"]["dimension"] == 268
    code, _ = run_cli(capsys, "gray-image", "--input", cyclic_f3(40), "--budget", str(156 ** 2 * 160))
    assert code == 0
    calls = []
    refuse = lambda *args, **kwargs: calls.append(args)
    monkeypatch.setattr("skewcodes.linalg.rref", refuse)
    monkeypatch.setattr("skewcodes.distance.rref", refuse)
    for command, n, message in (
        ("params", 100, "396^2 * 400 = 62726400"),
        ("gray-image", 100, "396^2 * 400 = 62726400"),
        ("gray-image", 70, "276^2 * 280 = 21329280"),
    ):
        code, report = run_cli(capsys, command, "--input", cyclic_f3(n))
        assert code == 2
        assert report["status"] == "input_error"
        assert report["result"]["error"] == (
            f"Gray image needs k^2 * 4n = {message} steps, over the budget of 20000000"
        )
    code, report = run_cli(capsys, "gray-image", "--input", cyclic_f3(40), "--budget", str(156 ** 2 * 160 - 1))
    assert code == 2
    assert report["result"]["error"].startswith("Gray image needs k^2 * 4n = 156^2 * 160 = 3893760 steps")
    assert calls == []


def test_gray_image_makes_no_row_reduction(capsys, monkeypatch):
    """The image rows are independent by construction, so gray-image never
    calls rref."""
    def refuse(*args):
        raise AssertionError("rref called")

    monkeypatch.setattr("skewcodes.linalg.rref", refuse)
    code, report = run_cli(capsys, "gray-image", "--input", CODESPEC)
    assert code == 0
    assert report["result"]["dimension"] == 12


def dual_f25(n):
    """Four x + (1 + xi) generators over F25 with alpha = 1: each dims n - 1,
    so the orthogonality check makes 4 (n - 1) n products."""
    return json.dumps({**json.loads(CODESPEC), "n": n})


def test_dual_is_bounded_by_the_budget(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("skewcodes.codes.inner_product", lambda x, y: calls.append(x))
    start = time.perf_counter()
    code, report = run_cli(capsys, "dual", "--input", dual_f25(500), "--budget", "200000")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert report["status"] == "input_error"
    assert report["result"]["error"] == (
        "orthogonality check needs sum k_i * (n - k_i) * n = 998000 steps, over the budget of 200000"
    )
    assert calls == []


def test_dual_budget_is_exact(capsys):
    code, report = run_cli(capsys, "dual", "--input", CODESPEC, "--budget", "48")
    assert code == 0
    assert report["result"]["orthogonal"] is True
    code, report = run_cli(capsys, "dual", "--input", CODESPEC, "--budget", "47")
    assert code == 2
    assert report["result"]["error"] == (
        "orthogonality check needs sum k_i * (n - k_i) * n = 48 steps, over the budget of 47"
    )


def test_dual_takes_inner_products_over_the_base_field(capsys, monkeypatch):
    """Orthogonality is decided per CRT component: every inner product is of
    two F_q words, none of two R-words, one per component (the code's
    generator against the dual's one basis word)."""
    import skewcodes.codes

    seen = []
    inner = skewcodes.codes.inner_product

    def spy(x, y):
        seen.append({type(c) for c in x + y})
        return inner(x, y)

    monkeypatch.setattr("skewcodes.codes.inner_product", spy)
    code, report = run_cli(capsys, "dual", "--input", dual_f25(6))
    assert code == 0
    assert report["result"]["orthogonal"] is True
    assert len(seen) == 4 * 1
    assert all(types == {FieldElement} for types in seen)


def test_field_above_max_q_is_an_input_error(capsys):
    obj = {**SEARCH_F3, "field": {"p": 3, "m": 12, "modulus": [2] + [0] * 10 + [1, 1], "t": 1}}
    code, report = run_cli(capsys, "divisor-search", "--input", json.dumps(obj))
    assert code == 2
    assert report["result"]["error"] == "q = 3^12 exceeds MAX_Q = 177147"


def test_build_divisions_are_charged_before_they_run(capsys):
    """n = 200000 with four x - 1 generators over F9: build_code's four
    residue tables are charged 4 * 200000 * 2 entries and refused before
    the first is filled."""
    spec = json.dumps({
        "field": {"p": 3, "m": 2, "modulus": [1, 0, 1], "t": 1},
        "n": 200000,
        "alpha": {"a": 1},
        "gens": [{"ring": "fq", "coeffs": [2, 1]}] * 4,
    })
    start = time.perf_counter()
    code, report = run_cli(capsys, "build", "--input", spec, "--budget", "200000")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert report["status"] == "input_error"
    assert report["result"]["error"] == (
        "the code's residue tables need at most sum (n - deg g_i + 1)(deg g_i + 1)"
        " = 1600000 entries, over the budget of 200000"
    )


def test_build_charge_is_exact(capsys):
    """CODESPEC's four x + (1 + xi) generators at n = 4 cost 4 * 4 * 2 = 32:
    at 32 the code is built and the closure check is refused."""
    code, report = run_cli(capsys, "build", "--input", CODESPEC, "--budget", "32")
    assert code == 2
    assert report["result"]["error"].startswith("closure check needs")
    code, report = run_cli(capsys, "build", "--input", CODESPEC, "--budget", "31")
    assert code == 2
    assert report["result"]["error"] == (
        "the code's residue tables need at most sum (n - deg g_i + 1)(deg g_i + 1)"
        " = 32 entries, over the budget of 31"
    )


@pytest.mark.parametrize("coeffs, error", [([], "is not monic"), ([1] * 7, "exceeds length")])
def test_build_charge_takes_malformed_generators(capsys, coeffs, error):
    """A zero generator, or one of degree above n, is charged as if of degree
    0, or not at all, and then refused by build_code."""
    spec = json.loads(CODESPEC)
    spec["gens"] = [{"ring": "fq", "coeffs": coeffs}] + spec["gens"][1:]
    code, report = run_cli(capsys, "build", "--input", json.dumps(spec))
    assert code == 2
    assert error in report["result"]["error"]


def deep_f9(betas):
    """F9, n = 6, generators of degree 3 and 4 that right-divide x^6 - beta_i
    for beta_i in {1, -1}: a params request that sweeps past weight 2."""
    gens = {1: ([1, 1, 5, 1], [2, 1, 0, 2, 1]), -1: ([4, 1, 4, 1], [2, 4, 0, 4, 1])}
    return json.dumps({
        "field": {"p": 3, "m": 2, "modulus": [1, 0, 1], "t": 1},
        "n": 6,
        "alpha": {"crt": [b % 3 for b in betas]},
        "gens": [{"ring": "fq", "coeffs": gens[b][i % 2]} for i, b in enumerate(betas)],
    })


@pytest.mark.parametrize("betas", [(1, 1, 1, 1), (1, -1, -1, 1)])
def test_params_decides_each_closure_from_four_words(capsys, monkeypatch, betas):
    """tau is read from the code's remainders, with no membership test, and
    with every constant fixed by the twist the quasi-twist makes at most one
    membership test per component."""
    calls = []
    contains = SkewCode.contains
    monkeypatch.setattr(SkewCode, "contains", lambda self, word: calls.append(word) or contains(self, word))
    code, report = run_cli(capsys, "params", "--input", deep_f9(betas))
    assert code == 0
    assert report["result"]["closures"]["tau"] is True
    assert report["result"]["closures"]["quasi_twist"] == {"index": 2, "closed": True}
    assert report["result"]["distance"]["method"].startswith("sweep")
    assert len(calls) <= 4


# An F9 code of length 6 from the audit workload's deep params stratum
# (seed 7): weights 1-3 of its length-24 image fit the default budget, and
# level 4, C(24, 4) * 8^4 candidates, does not.
DEEP_OVER_BUDGET = json.dumps({
    "field": {"p": 3, "m": 2, "modulus": [1, 0, 1], "t": 1},
    "n": 6,
    "alpha": {"crt": [1, 1, 1, 1]},
    "gens": [
        {"ring": "fq", "coeffs": coeffs}
        for coeffs in ([3, 7, 8, 5, 1], [6, 5, 5, 7, 1], [3, 4, 8, 8, 1], [6, 8, 5, 4, 1])
    ],
})


def f3_11_code(other_gens):
    return json.dumps({
        "field": {"p": 3, "m": 11, "modulus": [2, 1, 2, 1, 1, 1, 2, 2, 2, 2, 0, 1], "t": 1},
        "n": 2,
        "alpha": {"crt": [155881, 1, 1, 1]},
        "gens": [{"coeffs": [138737, 1]}] + [{"coeffs": other_gens}] * 3,
    })


def test_params_over_f_3_11_holds_codes_past_int16(capsys):
    """Element codes of F_{3^11} reach 3^11 - 1 > 2^15. A weight-1 row needs
    no field table; a sweep that needs the q x q tables is refused."""
    code, report = run_cli(capsys, "params", "--input", f3_11_code([1]))
    assert code == 0
    assert report["result"]["gray_params"] == [8, 7, 1]
    assert report["result"]["distance"]["method"] == "sweep-certified"
    code, report = run_cli(capsys, "params", "--input", f3_11_code([2, 1]))
    assert code == 2
    assert report["result"]["error"].startswith("field tables need q^2")


def test_params_past_the_budget_keeps_the_whole_sweeps_report(capsys):
    """The report stays the whole sweep's: bounds (4, 5), the first lightest
    presented row as witness and the candidates of weights 1-3, though the
    sweep runs block by block."""
    code, report = run_cli(capsys, "params", "--input", DEEP_OVER_BUDGET)
    assert code == 0
    assert report["result"]["gray_params"] == [24, 8, None]
    assert report["result"]["distance"] == {
        "defined": True,
        "method": "sweep-budget-exhausted",
        "candidates_swept": 1054144,
        "bounds": [4, 5],
        "witness": [3, 7, 8, 5, 1] + [0] * 19,
    }


@pytest.mark.parametrize("spec", [deep_f9((1, 1, 1, 1)), deep_f9((1, -1, -1, 1)), DEEP_OVER_BUDGET])
def test_deep_params_reduce_and_sweep_no_row_longer_than_n(capsys, monkeypatch, spec):
    """min_distance row-reduces and sweeps the length-24 image block by
    block: none of its rrefs and none of its column tables sees a row longer
    than n = 6."""
    import skewcodes.distance

    widths, tables = [], []
    rref, column_table = skewcodes.distance.rref, skewcodes.distance._column_table
    monkeypatch.setattr(skewcodes.distance, "rref", lambda rows: widths.append(len(rows[0])) or rref(rows))
    monkeypatch.setattr(
        skewcodes.distance, "_column_table", lambda scaled: tables.append(len(scaled)) or column_table(scaled)
    )
    code, report = run_cli(capsys, "params", "--input", spec)
    assert code == 0
    assert report["result"]["distance"]["candidates_swept"] >= 17856  # weights 1 and 2 swept
    assert widths == [6, 6, 6, 6]
    assert tables and max(tables) == 6


def spy_divisions(monkeypatch):
    """The dividend of every right division."""
    import skewcodes.skewpoly

    dividends = []
    divmod_ = skewcodes.skewpoly._divmod
    monkeypatch.setattr(
        "skewcodes.skewpoly._divmod",
        lambda f, g: dividends.append(f) or divmod_(f, g),
    )
    return dividends


@pytest.mark.parametrize("betas", [(1, 1, 1, 1), (1, -1, -1, 1)])
def test_params_divides_no_modulus(capsys, monkeypatch, betas):
    """build_code and the closures read each remainder of x^n - beta_i off
    the code's residue rows: no modulus is divided."""
    spec = deep_f9(betas)
    _, n, alpha, _ = code_from_json(json.loads(spec))
    moduli = [ModulusSpec(n, beta).poly() for beta in alpha.crt()]
    dividends = spy_divisions(monkeypatch)
    code, report = run_cli(capsys, "params", "--input", spec)
    assert code == 0
    assert sum(f in moduli for f in dividends) == 0


def test_dual_divides_only_for_its_cofactors(capsys, monkeypatch):
    """A dual request makes four divisions, one per cofactor h_i of
    x^n - beta_i: building the code and its dual makes none."""
    import skewcodes.codes

    dividends = spy_divisions(monkeypatch)
    spans = []
    cofactors = skewcodes.codes.cofactors

    def spy(c):
        before = len(dividends)
        out = cofactors(c)
        spans.append((before, len(dividends)))
        return out

    monkeypatch.setattr(skewcodes.codes, "cofactors", spy)
    code, report = run_cli(capsys, "dual", "--input", CODESPEC)
    assert code == 0
    assert spans == [(0, 4)]
    assert len(dividends) == 4


def test_dual_of_length_1000_takes_four_products(capsys, monkeypatch):
    """Each component of the code has dimension 999 and the dual's has 1:
    one product per component, and no 999-word basis is built."""
    import skewcodes.codes

    products = []
    inner = skewcodes.codes.inner_product
    monkeypatch.setattr(
        "skewcodes.codes.inner_product", lambda x, y: products.append(x) or inner(x, y)
    )
    sizes = []
    basis = skewcodes.codes.generator_basis_words
    monkeypatch.setattr(
        "skewcodes.codes.generator_basis_words",
        lambda f, mod: sizes.append(mod.n - f.degree) or basis(f, mod),
    )
    code, report = run_cli(capsys, "dual", "--input", dual_f25(1000))
    assert code == 0
    assert report["result"]["orthogonal"] is True
    assert len(products) <= 4
    assert max(sizes) == 1
