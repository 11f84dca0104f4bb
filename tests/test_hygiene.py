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
    """The right_divmod(...)[1] and _log_divmod(...)[1] expressions in func."""
    return sum(
        1 for sub in ast.walk(func)
        if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Call)
        and _callee(sub.value) in ("right_divmod", "_log_divmod")
        and isinstance(sub.slice, ast.Constant) and sub.slice.value == 1
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


def test_rank_is_taken_only_by_the_solve_the_generator_and_the_sweep():
    """No rank certifies a module: an idempotent is checked by two
    inclusions, and rref runs only inside linalg.nullspace, the one
    elimination of decomp.minimal_generator and each direct summand of the
    distance sweep."""
    assert _callers("rref") == {
        ("linalg", "nullspace"),
        ("decomp", "minimal_generator"),
        ("distance", "_Summand.__init__"),
    }


def test_distance_reads_its_rows_once_and_joins_keys_in_one_place():
    """distance holds a matrix in one form: its rows are read into
    logarithm lists once, so _reduce_by_summand is the one function that
    reads an entry's .code, and the enumeration places the summands' RREF
    rows in a logarithm array of its own. A summand's tag is an offset
    inside its key, so the one function that joins arrays is _row_keys,
    whose byte keys take one tag entry. words_to_array, _placed and
    _tagged are gone."""
    functions = list(_functions(parse(SRC / "distance.py").body))
    nodes = [(name, sub) for name, func in functions for sub in ast.walk(func)]
    readers = {name for name, sub in nodes if isinstance(sub, ast.Attribute) and sub.attr == "code"}
    joiners = {
        name for name, sub in nodes if isinstance(sub, ast.Call) and _callee(sub) in ("concatenate", "column_stack")
    }
    assert readers == {"_reduce_by_summand"}
    assert joiners == {"_row_keys"}
    assert {"words_to_array", "_placed", "_tagged"} & {name for name, _ in functions} == set()


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


def test_logarithms_are_reduced_and_twisted_only_in_gf():
    """gf's tables reduce every logarithm: wrap[l] folds a sum l of two
    logarithms to l mod (q - 1), or to log_zero when it stands for 0, and
    the negation is wrap[l + half]. So no src module writes the fold
    `total % order if total < zero else zero` or the negation
    `(l + half) % order if l != zero else zero`: the one conditional
    expression with a remainder in a branch is gf.FieldSpec.twist, which
    keeps log_zero as it is. theta^i on a logarithm multiplies it by
    p^(ti) mod (q - 1), which only gf reads (FieldSpec._frob_mult) or
    computes (a three-argument pow of an exponent in t). theta once is the
    spec's theta table, which only gf builds and only gf and ring4 (the
    frob(1) of FieldElement and RingElement) read: any other module twists
    through those."""
    nodes = [(path.stem, name, sub) for path in MODULES for name, func in _functions(parse(path).body) for sub in ast.walk(func)]
    folds = {
        (module, name)
        for module, name, sub in nodes
        if isinstance(sub, ast.IfExp)
        and any(isinstance(branch, ast.BinOp) and isinstance(branch.op, ast.Mod) for branch in (sub.body, sub.orelse))
    }
    assert folds == {("gf", "FieldSpec.twist")}
    readers = {module for module, _, sub in nodes if isinstance(sub, ast.Attribute) and sub.attr == "_frob_mult"}
    powers = {
        module
        for module, _, sub in nodes
        if isinstance(sub, ast.Call) and _callee(sub) == "pow" and len(sub.args) == 3
        and any(getattr(t, "id", getattr(t, "attr", None)) == "t" for t in ast.walk(sub.args[1]))
    }
    assert readers | powers == {"gf"}
    theta = [(module, sub.ctx.__class__) for module, _, sub in nodes if isinstance(sub, ast.Attribute) and sub.attr == "theta"]
    assert {module for module, ctx in theta if ctx is ast.Store} == {"gf"}
    assert {module for module, ctx in theta if ctx is ast.Load} == {"gf", "ring4"}


def _is_field(node):
    return (isinstance(node, ast.Attribute) and node.attr == "spec") or (
        isinstance(node, ast.Name) and node.id in ("spec", "field")
    )


def test_a_field_check_is_an_identity_test():
    """Fields are interned (FieldSpec returns the one object for its
    parameters), so a field check is `is`: no == or != in src takes an
    attribute .spec or a name spec or field as an operand, and FieldSpec
    defines neither __eq__ nor __hash__, so it compares and hashes by
    identity."""
    structural = [
        (path.stem, node.lineno)
        for path in MODULES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Compare)
        for op, left, right in zip(node.ops, [node.left, *node.comparators], node.comparators)
        if isinstance(op, (ast.Eq, ast.NotEq)) and (_is_field(left) or _is_field(right))
    ]
    assert structural == []
    (spec_class,) = [node for node in parse(SRC / "gf.py").body if isinstance(node, ast.ClassDef) and node.name == "FieldSpec"]
    defined = {node.name for node in spec_class.body if isinstance(node, ast.FunctionDef)} | {
        target.id for node in spec_class.body if isinstance(node, ast.Assign) for target in node.targets if isinstance(target, ast.Name)
    }
    assert not defined & {"__eq__", "__ne__", "__hash__"}


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
    SkewPoly._mul takes a `twisted` parameter, and the one loop that divides
    is _log_divmod, called by right_divmod and by the peel of
    DivisorSampler.random_right_divisor; the object division _divmod and _binomial_logs, x^n - beta's
    lists, are gone. The commutative product
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
    assert _callers("_log_divmod") == {("skewpoly", "right_divmod"), ("skewpoly", "DivisorSampler.random_right_divisor")}
    defined = {node.name for path in MODULES for node in ast.walk(parse(path)) if isinstance(node, ast.FunctionDef)}
    named = set().union(*(references(parse(path)) for path in MODULES))
    assert {"_divmod", "_binomial_logs"} & (defined | named) == set()


TRACER = SRC.parent.parent / "perfbench" / "tracer.py"


def traced_labels():
    """The `layer.Name[.attr]` labels that perfbench/tracer.py names: the
    calls, time and setup labels of METRICS, and PRIVATE_SPANS, OPTIONAL,
    RESULT_MEASURES, DIVISOR_SEARCHES and CANDIDATE_TEST."""
    values = {
        target.id: node.value
        for node in parse(TRACER).body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
    labels = set()
    for metric in values["METRICS"].elts:
        value = metric.elts[3]
        if isinstance(value, ast.Tuple) and ast.literal_eval(value.elts[0]) in ("calls", "time", "setup"):
            labels |= set(ast.literal_eval(value.elts[1]))
    for layer, names in ast.literal_eval(values["PRIVATE_SPANS"]).items():
        labels |= {f"{layer}.{name}" for name in names}
    labels |= ast.literal_eval(values["OPTIONAL"].args[0])
    labels |= {ast.literal_eval(key) for key in values["RESULT_MEASURES"].keys}
    labels |= set(ast.literal_eval(values["DIVISOR_SEARCHES"]))
    labels.add(ast.literal_eval(values["CANDIDATE_TEST"]))
    return labels


def test_every_name_the_traced_benchmark_names_resolves():
    """Each label resolves in the imported package, so deleting a function
    the traced benchmark wraps fails here and not only in its smoke run."""
    import importlib

    labels = traced_labels()
    assert {"distance.field_tables", "skewpoly.c_mul", "skewpoly.right_divmod"} <= labels
    unresolved = []
    for label in sorted(labels):
        layer, *path = label.split(".")
        obj = importlib.import_module(f"skewcodes.{layer}")
        for name in path:
            obj = getattr(obj, name, None)
        if not callable(obj):
            unresolved.append(label)
    assert unresolved == []
