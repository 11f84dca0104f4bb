"""Robustness fuzz of the six --input commands at --budget 200000.

Valid specs are mutated field by field (field.p/m/modulus/t, n, alpha, gens,
degree and f) with small, huge and ill-typed values. Every request must
exit 0, 1 or 2 with one JSON report on stdout, whose status matches the
exit code, and finish within a generous wall-time cap: the budget has to
refuse large work before it starts.
"""

import contextlib
import copy
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcodes.cli import main

BUDGET = 200_000
CAP_S = 10.0
STATUS = {0: "ok", 1: "verification_failed", 2: "input_error"}

F9 = {"p": 3, "m": 2, "modulus": [1, 0, 1], "t": 1}
F25 = {"p": 5, "m": 2, "modulus": [1, 1, 1], "t": 1}
F81T2 = {"p": 3, "m": 4, "modulus": [2, 0, 0, 1, 1], "t": 2}
CODE_F25 = {"field": F25, "n": 4, "alpha": {"a": 1}, "gens": [{"ring": "fq", "coeffs": [6, 1]}] * 4}
CODE_F9 = {
    "field": F9, "n": 6, "alpha": {"crt": [1, 2, 2, 1]},
    "gens": [{"ring": "fq", "coeffs": c} for c in ([1, 1, 5, 1], [2, 4, 0, 4, 1], [4, 1, 4, 1], [2, 1, 0, 2, 1])],
}
CODES = [CODE_F25, CODE_F9, {**CODE_F25, "field": F81T2, "gens": [{"ring": "fq", "coeffs": [2, 1]}] * 4}]
BASES = {
    "build": CODES,
    "params": CODES,
    "dual": CODES,
    "gray-image": CODES,
    "divisor-search": [
        {"field": F9, "n": 4, "alpha": 1, "degree": 2},
        {"field": F25, "n": 3, "alpha": {"crt": [1, 4, 4, 1]}, "degree": 1},
    ],
    "idempotent": [
        {"field": F9, "n": 5, "alpha": 1, "f": {"ring": "fq", "coeffs": [2, 1]}},
        {"field": F9, "n": 5, "alpha": 1, "gens": [{"ring": "fq", "coeffs": [2, 1]}] * 4},
    ],
}

HUGE = st.sampled_from([30, 49, 1001, 100_001, 10**9, 3**40])
JUNK = st.sampled_from([None, True, 1.5, "1", [], {}])
INTS = st.one_of(st.integers(-2, 12), HUGE, JUNK)
COEFFS = st.lists(st.integers(-1, 30), max_size=8)
POLY = st.one_of(
    st.fixed_dictionaries({"ring": st.sampled_from(["fq", "R", "x"]), "coeffs": COEFFS}),
    st.fixed_dictionaries({"ring": st.just("fq"), "coeffs": st.one_of(COEFFS.map(lambda c: c + [1]), JUNK)}),
    JUNK,
)
FIELD = {
    "p": st.one_of(st.sampled_from([2, 3, 4, 5, 7, 9, 11, 177147]), INTS),
    "m": st.one_of(st.integers(0, 12), JUNK),
    "modulus": st.one_of(st.lists(st.integers(-1, 12), max_size=13), JUNK),
    "t": st.one_of(st.integers(-1, 5), JUNK),
}
MUTATIONS = {
    "n": st.one_of(st.integers(-1, 12), HUGE, JUNK),
    "alpha": st.one_of(
        INTS,
        st.fixed_dictionaries({"crt": st.lists(st.integers(-1, 10), max_size=5)}),
        st.dictionaries(st.sampled_from("abcdu"), st.integers(-1, 30), max_size=4),
    ),
    "gens": st.one_of(st.lists(POLY, max_size=5), JUNK),
    "degree": st.one_of(st.integers(-1, 6), HUGE, JUNK),
    "f": POLY,
}
# The field, and each other key, is mutated with probability 1/3, so most
# requests get past the field and reach the command's own work.
MUTATE = st.integers(0, 2).map(lambda x: x == 0)


@st.composite
def requests(draw):
    command = draw(st.sampled_from(sorted(BASES)))
    spec = copy.deepcopy(draw(st.sampled_from(BASES[command])))
    if draw(MUTATE):
        for key in draw(st.sets(st.sampled_from(sorted(FIELD)), min_size=1)):
            spec["field"][key] = draw(FIELD[key])
    for key, values in MUTATIONS.items():
        if key in spec and draw(MUTATE):
            spec[key] = draw(values)
    return command, spec


def run(command, spec):
    """(exit code, stdout lines, seconds) of one CLI request."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main([command, "--input", json.dumps(spec), "--budget", str(BUDGET)])
    return code, out.getvalue().splitlines(), time.perf_counter() - start


@settings(max_examples=300, derandomize=True, deadline=None)
@given(requests())
def test_mutated_requests_exit_with_one_json_report(request):
    command, spec = request
    code, lines, seconds = run(command, spec)
    assert code in STATUS
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert (report["command"], report["status"]) == (command, STATUS[code])
    assert seconds < CAP_S


@pytest.mark.parametrize("n", [49, 1001, 100_001, 10**9])
@pytest.mark.parametrize("command", sorted(BASES))
def test_every_command_is_bounded_in_n(command, n):
    """Each base spec at a large length is answered or refused within the
    cap. The odd lengths are prime to 3, 5 and 7, so over F9 they meet the
    idempotent hypotheses gcd(n, k) = gcd(n, q) = 1."""
    for spec in BASES[command]:
        code, lines, seconds = run(command, {**spec, "n": n})
        assert code in STATUS
        assert len(lines) == 1
        assert seconds < CAP_S
