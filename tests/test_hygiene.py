"""Source hygiene of src/skewcodes, checked with the standard library's ast
(no linter is a dependency): no unused import, no unread parameter, no
function, method or class that nothing references, and no top-level
definition that the package neither runs nor exports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "skewcodes"
MODULES = sorted(SRC.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def listed_in_all(tree):
    """The strings listed in the module's __all__, if it has one."""
    return {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }


def names_read(tree):
    """Every name used anywhere in tree, and the strings listed in __all__."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | listed_in_all(tree)


def imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def suite_functions():
    """The cli.SUITES entries: the dispatch calls each with (seed, budget)."""
    for node in parse(SRC / "cli.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SUITES" for t in node.targets
        ):
            return {v.id for v in node.value.values}
    raise AssertionError("cli.SUITES not found")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_import(path):
    tree = parse(path)
    read = names_read(tree)
    unused = [name for name in imported_names(tree) if name not in read]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    tree = parse(path)
    exempt = suite_functions() if path.stem == "cli" else set()
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        if getattr(node, "name", None) in exempt:
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {
            n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}({p}) at line {node.lineno}" for p in params if p not in loaded]
    assert unread == []


def references(tree, skip=None):
    """Every name, attribute and dotted-string part used in tree, outside
    the subtree skip."""
    refs = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs |= set(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return refs


def test_every_definition_is_referenced():
    """No function, method or class in src/skewcodes is dead: each is used
    somewhere in src/, tests/ or perfbench/ (a test or a benchmark call
    counts)."""
    root = SRC.parent.parent
    files = [p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py")]
    refs = set().union(*(references(parse(p)) for p in files))
    dead = [
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in ast.walk(parse(path))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in refs
    ]
    assert dead == []


def test_every_top_level_definition_runs_or_is_exported():
    """src/ holds only what the package runs or exports: each module-level
    function and class is used in src/ outside its own body, or is in
    __all__. The tests' references live in tests/reference.py, which no
    module of the package imports."""
    trees = {path.stem: parse(path) for path in MODULES}
    exports = listed_in_all(trees["__init__"])
    unused = [
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in exports
        and not any(node.name in references(other, node) for other in trees.values())
    ]
    assert unused == []
    imports = [
        f"{stem}: {name}"
        for stem, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
        if {"reference", "tests"} & set(name.split("."))
    ]
    assert imports == []


# Where BudgetExceededError may be raised: the one budget gate, and the
# divisor search's refusal of a screen of more candidates per component
# than the budget, whose count is written as a power of q because it may be
# too long to print or to compute.
BUDGET_REFUSALS = {("errors", "charge"): 1, ("skewpoly", "right_divisor_search"): 1}


def test_budget_refusals_go_through_charge():
    raised = {}
    for path in MODULES:
        for func in ast.walk(parse(path)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                exc = node.exc if isinstance(node, ast.Raise) else None
                exc = exc.func if isinstance(exc, ast.Call) else exc
                if isinstance(exc, ast.Name) and exc.id == "BudgetExceededError":
                    key = (path.stem, func.name)
                    raised[key] = raised.get(key, 0) + 1
    assert raised == BUDGET_REFUSALS


# Divisions whose quotient is thrown away, and why each stays a division.
# A caller that needs only the remainder calls skewpoly.right_remainder.
DISCARDED_QUOTIENTS = {
    ("skewpoly", "reduce_mod"): (1, "search's traced right division, until the benchmark revision"),
}


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _functions(body, prefix=""):
    """(qualified name, node) of each function and method in body."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node


def _discarded_quotients(func):
    """The right_divmod(...)[1] expressions and bare _certify(...)
    statements in func."""
    return sum(
        1 for sub in ast.walk(func)
        if (isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Call)
            and _callee(sub.value) == "right_divmod"
            and isinstance(sub.slice, ast.Constant) and sub.slice.value == 1)
        or (isinstance(sub, ast.Expr) and isinstance(sub.value, ast.Call)
            and _callee(sub.value) == "_certify")
    )


def test_a_division_only_where_its_quotient_is_used():
    found = {
        (path.stem, name): count
        for path in MODULES
        for name, func in _functions(parse(path).body)
        if (count := _discarded_quotients(func))
    }
    assert found == {key: count for key, (count, _reason) in DISCARDED_QUOTIENTS.items()}


def test_span_and_module_span_are_test_references():
    """The package decides membership, closure and module equality from
    generators and remainders; only the tests row-reduce whole spans
    (tests/reference.py)."""
    found = {
        (path.stem, name)
        for path in MODULES
        for name, func in _functions(parse(path).body)
        for sub in ast.walk(func)
        if isinstance(sub, ast.Call) and _callee(sub) in ("Span", "ModuleSpan")
    }
    assert found == set()


def test_reduce_mod_is_called_only_by_the_idempotent_check():
    """Module words are the shift orbit of a remainder; the one reduction
    mod x^n - alpha left in src/ is e*e in idempotent_generator."""
    assert _callers("reduce_mod") == {("skewpoly", "idempotent_generator")}


def _callers(callee):
    """(module, qualified function) of each function in src/ that calls
    `callee`, by name or as an attribute."""
    return {
        (path.stem, name)
        for path in MODULES
        for name, func in _functions(parse(path).body)
        for sub in ast.walk(func)
        if isinstance(sub, ast.Call) and _callee(sub) == callee
    }


def test_r_words_are_joined_from_their_components_in_one_place():
    """ring4.join_word builds every R-word from its CRT component words;
    RingElement.from_crt is left for scalars given as ints or elements."""
    assert _callers("from_crt") == {("serial", "ring_from_json"), ("cli", "_suite_decomposition")}


def test_words_are_cut_into_blocks_in_one_place():
    """skewpoly._blocks cuts a word into a number of blocks;
    skewpoly.quasi_twist_shift checks a block size of its own."""
    raisers = {
        (path.stem, name)
        for path in MODULES
        for name, func in _functions(parse(path).body)
        for sub in ast.walk(func)
        if isinstance(sub, ast.Raise) and isinstance(sub.exc, ast.Call) and _callee(sub.exc) == "BadIndexError"
    }
    assert raisers == {("skewpoly", "_blocks"), ("skewpoly", "quasi_twist_shift")}


def test_every_word_shift_is_defined_in_skewpoly():
    """tau and its blockwise form omega are the skew shifts: sigma is tau
    with the constant 1 and pi_b is omega with b unit constants, so neither
    has a function of its own, nor has the sigma/pi_4 identity, which is
    tau_omega4(1). Every shift, and the one cut into blocks, is in skewpoly."""
    defined = {
        (path.stem, node.name)
        for path in MODULES
        for node in ast.walk(parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    shifts = {(module, name) for module, name in defined if name.endswith("_shift") or name == "_blocks"}
    assert shifts and {module for module, _ in shifts} == {"skewpoly"}
    gone = {"skew_cyclic_shift", "blockwise_cyclic_shift", "sigma_pi4"}
    assert {name for _, name in defined} & gone == set()


def test_one_division_and_one_commutative_product():
    """Right division is the one division: no function in src/ but
    SkewPoly._mul takes a `twisted` parameter. The commutative product
    c_mul serves only the idempotent's square and its e, and stays a
    function of its own because perfbench/tracer.py counts its calls as
    skewpoly.c_mul."""
    twisted = {
        (path.stem, name)
        for path in MODULES
        for name, func in _functions(parse(path).body)
        if "twisted" in {a.arg for a in func.args.args + func.args.kwonlyargs}
    }
    assert twisted == {("skewpoly", "SkewPoly._mul")}
    assert _callers("c_mul") == {("skewpoly", "idempotent_generator")}
