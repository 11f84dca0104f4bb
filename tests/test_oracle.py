"""`skewcodes divisor-search` against tests/oracle.py, which lists every monic
right divisor of x^n - alpha by trying each candidate with its own right
long division, built from the definitions of F_q, R and the skew product
with no skewcodes code. The CLI's divisors must be the oracle's, in the same
order.
"""

import ast
import json
from pathlib import Path

import oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import run_main

# (p, m, modulus ascending, t), as the CLI reads a field
FIELDS = {
    "F3": (3, 1, (0, 1), 1),
    "F9": (3, 2, (1, 0, 1), 1),
    "F27": (3, 3, (1, 2, 0, 1), 1),
    "F81t2": (3, 4, (2, 0, 0, 1, 1), 2),
}
# the highest degree searched over each field: at most 729 candidates, and
# 6561 over F81
FQ_DEGREES = {"F3": 6, "F9": 3, "F27": 2, "F81t2": 2}


def cli_divisors(name, n, alpha, degree):
    p, m, modulus, t = FIELDS[name]
    obj = {"field": {"p": p, "m": m, "modulus": list(modulus), "t": t}, "n": n, "alpha": alpha, "degree": degree}
    code, out = run_main(["divisor-search", "--input", json.dumps(obj)])
    result = json.loads(out)["result"]
    assert code == 0, result
    assert result["count"] == len(result["divisors"])
    return result["divisors"]


@st.composite
def fq_searches(draw):
    """(field name, n, alpha code, degree); alpha = 0 included."""
    name = draw(st.sampled_from(sorted(FIELDS)))
    q = oracle.field(*FIELDS[name]).q
    return name, draw(st.integers(1, 8)), draw(st.integers(0, q - 1)), draw(st.integers(0, FQ_DEGREES[name]))


@st.composite
def r_searches(draw, name, max_n, max_degree):
    """(n, alpha as (a, b, c, d) codes, degree) over R over the named field;
    zero and non-unit alpha included."""
    q = oracle.field(*FIELDS[name]).q
    alpha = draw(st.tuples(*[st.integers(0, q - 1)] * 4))
    return draw(st.integers(1, max_n)), alpha, draw(st.integers(0, max_degree))


def assert_search_over_r_is_the_oracle(name, search):
    n, alpha, degree = search
    ring = oracle.R(oracle.field(*FIELDS[name]))
    assert cli_divisors(name, n, dict(zip("abcd", alpha)), degree) == oracle.right_divisors(ring, n, alpha, degree)


@settings(max_examples=60, deadline=None)
@given(fq_searches())
@example(("F81t2", 4, 0, 2))  # x^4: the divisor x^2 alone
@example(("F9", 4, 1, 2))
def test_search_over_f_q_is_the_oracle(search):
    name, n, alpha, degree = search
    field = oracle.field(*FIELDS[name])
    assert cli_divisors(name, n, alpha, degree) == oracle.right_divisors(field, n, alpha, degree)


@settings(max_examples=20, deadline=None)
@given(r_searches("F3", 5, 2))
@example((4, (1, 0, 0, 0), 2))  # x^4 - 1: many divisors in every component
@example((3, (0, 1, 0, 0), 2))  # alpha = u, not a unit: CRT components (0, 1, 0, 1)
@example((2, (0, 0, 0, 0), 1))  # alpha = 0
def test_search_over_r_over_f3_is_the_oracle(search):
    assert_search_over_r_is_the_oracle("F3", search)


@settings(max_examples=12, deadline=None)
@given(r_searches("F9", 6, 1))
@example((4, (1, 0, 0, 0), 1))
@example((3, (0, 0, 0, 1), 1))  # alpha = uv: CRT components (0, 0, 0, 1)
def test_search_over_r_over_f9_is_the_oracle(search):
    assert_search_over_r_is_the_oracle("F9", search)


def test_the_oracle_imports_no_skewcodes_module():
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name.split(".")[0] == "skewcodes" for name in imported), imported
