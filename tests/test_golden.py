"""Byte-identity of CLI reports against recorded golden outputs.

Each file tests/golden/<name>.json holds the exact stdout of one request
below. A change to the program that alters any report fails here. To
re-record after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden.py --record

and review the diff of tests/golden/ like any other change.
"""

import json
import pathlib
import sys

import pytest
from reference import run_main


GOLDEN = pathlib.Path(__file__).parent / "golden"
PINNED = ["--budget", "20000000"]

F25 = {"p": 5, "m": 2, "modulus": [1, 1, 1], "t": 1}
F81T2 = {"p": 3, "m": 4, "modulus": [2, 0, 0, 1, 1], "t": 2}
F27 = {"p": 3, "m": 3, "modulus": [1, 2, 0, 1], "t": 1}
F9 = {"p": 3, "m": 2, "modulus": [1, 0, 1], "t": 1}
F3 = {"p": 3, "m": 1, "modulus": [0, 1], "t": 1}
F5 = {"p": 5, "m": 1, "modulus": [0, 1], "t": 1}
F125 = {"p": 5, "m": 3, "modulus": [3, 3, 0, 1], "t": 1}

CODE_F25 = {
    "field": F25,
    "n": 4,
    "alpha": {"crt": [1, 4, 1, 4]},
    "gens": [
        {"ring": "fq", "coeffs": [2, 10, 1]},
        {"ring": "fq", "coeffs": [7, 1]},
        {"ring": "fq", "coeffs": [6, 1]},
        {"ring": "fq", "coeffs": [13, 1]},
    ],
}
CODE_F81T2 = {
    "field": F81T2,
    "n": 4,
    "alpha": 1,
    "gens": [
        {"ring": "fq", "coeffs": [5, 1]},
        {"ring": "fq", "coeffs": [22, 1]},
        {"ring": "fq", "coeffs": [2, 0, 1]},
        {"ring": "fq", "coeffs": [1, 0, 1]},
    ],
}


def _with_input(command, obj):
    return [command, "--input", json.dumps(obj, sort_keys=True)]


CASES = {
    **{f"example{i}": ["example", str(i)] for i in (1, 2, 3, 4)},
    **{
        f"{command}_{name}": _with_input(command, code)
        for command in ("params", "dual", "gray-image")
        for name, code in (("f25", CODE_F25), ("f81t2", CODE_F81T2))
    },
    "divisor_search_f27": _with_input(
        "divisor-search", {"field": F27, "n": 6, "alpha": 1, "degree": 2}
    ),
    "divisor_search_f81t2": _with_input(
        "divisor-search", {"field": F81T2, "n": 3, "alpha": 5, "degree": 2}
    ),
    "divisor_search_f125": _with_input(
        "divisor-search", {"field": F125, "n": 5, "alpha": 7, "degree": 2}
    ),
    "divisor_search_f9_degree3": _with_input(
        "divisor-search", {"field": F9, "n": 6, "alpha": 2, "degree": 3}
    ),
    "divisor_search_r_f3": _with_input(
        "divisor-search", {"field": F3, "n": 4, "alpha": {"crt": [1, 1, 1, 1]}, "degree": 1}
    ),
    "divisor_search_r_f9": _with_input(
        "divisor-search", {"field": F9, "n": 3, "alpha": {"crt": [1, 2, 2, 1]}, "degree": 1}
    ),
    "divisor_search_r_f5": _with_input(
        "divisor-search", {"field": F5, "n": 2, "alpha": {"crt": [1, 4, 1, 4]}, "degree": 1}
    ),
    "idempotent_f9": _with_input(
        "idempotent", {"field": F9, "n": 5, "alpha": 1, "f": {"ring": "fq", "coeffs": [2, 1]}}
    ),
    "verify_gray_decomposition": [
        "verify", "gray-commutation", "decomposition", "--seed", "7", "--trials", "20",
    ],
    "verify_ret_dual_contract": ["verify", "ret1", "ret2", "dual-contract"],
    "build_f25": _with_input("build", CODE_F25),
    "idempotent_gens_f9": _with_input(
        "idempotent",
        {"field": F9, "n": 5, "alpha": 1, "gens": [{"ring": "fq", "coeffs": [2, 1]}] * 4},
    ),
    "params_f25_table": _with_input("params", CODE_F25) + ["--table"],
    "example4_table": ["example", "4", "--table"],
}


def run(argv):
    """(exit code, stdout) of one CLI request."""
    return run_main(argv + PINNED)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    code, stdout = run(CASES[name])
    assert code == 0
    assert stdout == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, stdout = run(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}: {stdout}")
        (GOLDEN / f"{name}.json").write_text(stdout, encoding="utf-8")
