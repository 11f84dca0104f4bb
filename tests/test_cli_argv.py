"""The command-line grammar of cli.parse_argv.

Every form of the grammar, every malformed command line (one input_error
JSON report, exit 2), a fuzz of main over drawn argv, and a differential
test against the retired argparse parser, kept here as the reference.
"""

import argparse
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import run_main

from skewcodes import __version__
from skewcodes.cli import COMMANDS, SUITES, USAGE, Args, parse_argv
from skewcodes.errors import ParseError

STATUS = {0: "ok", 1: "verification_failed", 2: "input_error"}


def reference_parser() -> argparse.ArgumentParser:
    """The argparse grammar the CLI had before parse_argv, without handlers."""
    parser = argparse.ArgumentParser(prog="skewcodes")
    parser.add_argument("--version", action="version", version=f"skewcodes {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--budget", type=int)
    common.add_argument("--trials", type=int, default=1000)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="table", action="store_false", default=False)
    fmt.add_argument("--table", dest="table", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("build", "params", "dual", "gray-image", "divisor-search", "idempotent"):
        sub.add_parser(name, parents=[common])
    sub.add_parser("verify", parents=[common]).add_argument("suites", nargs="*", default=[])
    sub.add_parser("example", parents=[common]).add_argument("number", type=int, choices=(1, 2, 3, 4))
    return parser


def parsed(argv) -> Args:
    args = Args()
    assert parse_argv(argv, args) is None  # a text only for --help and --version
    return args


# --- the grammar ---

def test_equals_values_and_options_after_operands():
    args = parsed(["verify", "ret1", "ret2", "--seed=5", "--budget", "9", "--trials=3", "--table"])
    assert args == Args(command="verify", seed=5, budget=9, trials=3, table=True, suites=("ret1", "ret2"))
    assert parsed(["example", "--seed", "4", "--json", "2"]) == Args(command="example", seed=4, number=2)
    assert parsed(["build", "--input=a=b"]).input == "a=b"  # the value is all after the first '='


def test_a_repeated_option_keeps_its_last_value():
    args = parsed(["build", "--seed", "1", "--input", "a", "--seed=2", "--input=b", "--table", "--table"])
    assert (args.seed, args.input, args.table) == (2, "b", True)


def test_integer_options_convert_as_int_does():
    # a negative budget reaches main's check; int() takes signs, spaces and '_'
    args = parsed(["verify", "--budget", "-1", "--seed", " +7 ", "--trials=1_000"])
    assert (args.budget, args.seed, args.trials) == (-1, 7, 1000)
    rc, out = run_main(["verify", "--budget", "-1"])
    assert (rc, json.loads(out)["result"]["error"]) == (2, "budget must be positive, got -1")


def test_both_placements_and_forms_give_the_same_report():
    _, spaced = run_main(["example", "--budget", "20000000", "--seed", "3", "2"])
    _, joined = run_main(["example", "2", "--seed=3", "--budget=20000000"])
    assert spaced == joined
    assert json.loads(spaced)["seed"] == 3


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["build", "--help"], ["verify", "ret1", "-h"]])
def test_help_prints_the_usage(argv):
    assert run_main(argv) == (0, USAGE + "\n")


@pytest.mark.parametrize("argv", [["--version"], ["example", "1", "--version"]])
def test_version(argv):
    assert run_main(argv) == (0, f"skewcodes {__version__}\n")


# --- malformed command lines ---

MALFORMED = [
    ([], None),  # missing command
    (["bogus"], None),  # unknown command
    (["--seed", "3", "verify"], None),  # an option before the command
    (["build", "--inp", "x"], "build"),  # abbreviation
    (["verify", "--bogus"], "verify"),  # unknown option
    (["verify", "-x"], "verify"),  # an operand, but not a suite (cmd_verify)
    (["verify", "--seed"], "verify"),  # missing value
    (["verify", "--seed", "x"], "verify"),  # non-integer value
    (["verify", "--budget=1.5"], "verify"),
    (["verify", "--trials="], "verify"),
    (["example", "1", "--json", "--table"], "example"),
    (["example", "1", "--table=1"], "example"),  # a flag with a value
    (["example"], "example"),  # wrong operand count
    (["example", "1", "2"], "example"),
    (["example", "7"], "example"),  # wrong operand value
    (["example", "x"], "example"),
    (["build", "extra"], "build"),  # a command that takes no operand
]


@pytest.mark.parametrize("argv, command", MALFORMED)
def test_malformed_argv_is_one_input_error_report(argv, command):
    rc, out = run_main(argv)
    report = json.loads(out)  # one JSON document, nothing else
    assert rc == 2
    assert (report["status"], report["command"]) == ("input_error", command)
    assert report["result"]["error"]


def test_an_input_error_report_holds_what_was_parsed():
    report = json.loads(run_main(["verify", "--seed", "5", "--budget=9", "--bogus"])[1])
    assert (report["seed"], report["budget"]) == (5, 9)
    report = json.loads(run_main(["verify", "--bogus", "--seed", "5"])[1])
    assert (report["seed"], report["budget"]) == (0, None)


def test_parse_errors_are_parse_errors():
    for argv, _ in MALFORMED:
        if argv[:2] != ["verify", "-x"]:  # the unknown suite is cmd_verify's to refuse
            with pytest.raises(ParseError):
                parsed(argv)


# --- fuzz: every drawn command line gives an exit code and one output ---

INTEGERS = st.integers(-3, 10**12).map(str)
JUNK = st.sampled_from(["", "x", "-", "--", "-5", "=", "--seed=", "ret9", "{", "{}", "0x10", "1.5", "٣"])
OPTION = st.one_of(
    st.sampled_from(["--input", "--seed", "--budget", "--trials", "--json", "--table", "--help", "--version"]),
    st.sampled_from(["--inp", "--se", "--bogus", "-h", "-x"]),
)
TOKEN = st.one_of(
    st.sampled_from(list(COMMANDS)),
    st.sampled_from(list(SUITES)),
    st.sampled_from(["1", "2", "3", "4", "0", "5"]),
    OPTION,
    st.tuples(OPTION, st.one_of(INTEGERS, JUNK)).map("=".join),
    INTEGERS,
    JUNK,
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.lists(TOKEN, max_size=6),
    st.tuples(st.sampled_from(list(COMMANDS)), st.lists(TOKEN, max_size=5)).map(lambda t: [t[0], *t[1]]),
))
def test_fuzz_argv_exits_with_one_output(argv):
    rc, out = run_main(argv)  # a SystemExit or traceback fails the test
    assert rc in STATUS
    if out in (USAGE + "\n", f"skewcodes {__version__}\n"):
        assert rc == 0
    elif out.startswith("{"):
        assert json.loads(out)["status"] == STATUS[rc]
    else:  # --table: one report, as aligned rows
        assert [line.split()[1] for line in out.splitlines() if line.startswith("status ")] == [STATUS[rc]]


# --- differential: the retired argparse grammar ---

INPUT = st.text(st.sampled_from('abc{}":,1 '), max_size=8).filter(lambda s: not s.startswith("-"))
VALUES = {
    "--input": INPUT,
    "--seed": st.integers(-5, 10**20).map(str),
    "--budget": st.integers(-5, 10**20).map(str),
    "--trials": st.integers(-5, 10**20).map(str),
}


@st.composite
def valid_argv(draw):
    command = draw(st.sampled_from(list(COMMANDS)))
    if command == "verify":
        operands = draw(st.lists(st.sampled_from([*SUITES, "ret9"]), max_size=3))
    elif command == "example":
        operands = [draw(st.sampled_from(["1", "2", "3", "4"]))]
    else:
        operands = []
    fmt = draw(st.sampled_from(["--json", "--table"]))
    options = []
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from([*VALUES, fmt]))
        if name == fmt:
            options.append([name])
        else:
            value = draw(VALUES[name])
            options.append([f"{name}={value}"] if draw(st.booleans()) else [name, value])
    cut = draw(st.integers(0, len(options)))
    before = [token for option in options[:cut] for token in option]
    after = [token for option in options[cut:] for token in option]
    return [command, *before, *operands, *after]


@settings(max_examples=300, deadline=None)
@given(valid_argv())
def test_parse_argv_agrees_with_the_retired_argparse_grammar(argv):
    ns = reference_parser().parse_args(argv)
    args = parsed(argv)
    assert (args.command, args.input, args.seed, args.budget, args.trials, args.table) == (
        ns.command, ns.input, ns.seed, ns.budget, ns.trials, ns.table,
    )
    assert list(args.suites) == getattr(ns, "suites", [])
    assert args.number == getattr(ns, "number", None)
