"""`skewcodes divisor-search` against tests/oracle.py, which lists every monic
right divisor of x^n - alpha by trying each candidate with its own right
long division, built from the definitions of F_q, R and the skew product
with no skewcodes code. The CLI's divisors must be the oracle's, in the same
order.
"""

import ast
import functools
import itertools
import json
import math
from pathlib import Path

import oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import run_main

# (p, m, modulus ascending, t), as the CLI reads a field
FIELDS = {
    "F3": (3, 1, (0, 1), 1),
    "F5": (5, 1, (0, 1), 1),
    "F9": (3, 2, (1, 0, 1), 1),
    "F27": (3, 3, (1, 2, 0, 1), 1),
    "F81t2": (3, 4, (2, 0, 0, 1, 1), 2),
}
# the highest degree searched over each field: at most 729 candidates, and
# 6561 over F81
FQ_DEGREES = {"F3": 6, "F5": 4, "F9": 3, "F27": 2, "F81t2": 2}


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


def component_divisors(name, n, alpha, degree):
    """The monic right divisors of x^n - alpha over R of one degree, built
    from the oracle's divisors of each component x^n - beta_i over F_q:
    every g = e1 g1 + e2 g2 + e3 g3 + e4 g4, each checked by its right
    remainder over R, in the oracle's candidate order. It rests on g
    right-dividing x^n - alpha exactly when each g_i right-divides
    x^n - beta_i, and serves R searches with more candidates than the
    oracle tries."""
    ring = oracle.R(oracle.field(*FIELDS[name]))
    parts = [
        [g["coeffs"] for g in oracle.right_divisors(ring.field, n, beta, degree)]
        for beta in oracle.components(ring, alpha)
    ]
    f = [ring.neg(alpha)] + [ring.zero] * (n - 1) + [ring.one]
    out = []
    for gs in itertools.product(*parts):
        g = [oracle.from_components(ring, betas) for betas in zip(*gs)]
        assert all(r == ring.zero for r in oracle.right_remainder(ring, f, g))
        out.append(g)
    return [{"ring": "R", "coeffs": [ring.to_json(c) for c in g]} for g in sorted(out)]


@settings(max_examples=8, deadline=None)
@given(st.tuples(*[st.integers(0, 2)] * 4))
@example((1, 0, 0, 0))  # x^3 - 1
@example((0, 1, 0, 0))  # alpha = u: CRT components (0, 1, 0, 1)
def test_degree_n_minus_one_search_over_r_over_f3_is_the_oracle(alpha):
    """x^3 - alpha at degree 2, the cofactors of its linear left factors,
    against all 81^2 candidates."""
    assert_search_over_r_is_the_oracle("F3", (3, alpha, 2))


@settings(max_examples=12, deadline=None)
@given(st.integers(3, 5), st.tuples(*[st.integers(0, 4)] * 4))
@example(4, (1, 0, 0, 0))  # x^4 - 1: four divisors of degree 3 in every component
@example(3, (0, 0, 0, 1))  # alpha = uv: CRT components (0, 0, 0, 1)
def test_degree_n_minus_one_search_over_r_over_f5_is_the_oracle(n, alpha):
    """x^n - alpha at degree n - 1 over R over F5, whose 625^(n - 1)
    candidates are too many for the oracle to try, against its component
    divisors."""
    assert cli_divisors("F5", n, dict(zip("abcd", alpha)), n - 1) == component_divisors("F5", n, alpha, n - 1)


def test_the_oracle_imports_no_skewcodes_module():
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name.split(".")[0] == "skewcodes" for name in imported), imported


# --- params, gray-image and dual ---

# the longest code drawn over each field: every right divisor of x^n - beta
# is listed, at most 6561 candidates of the top degree
CODE_LENGTHS = {"F3": 5, "F9": 3, "F27": 2, "F81t2": 2}
# the most codewords listed for one drawn code
MAX_WORDS = 6561


@functools.lru_cache(maxsize=None)
def ring(name):
    return oracle.R(oracle.field(*FIELDS[name]))


@functools.lru_cache(maxsize=None)
def divisors(name, n, beta):
    """Every monic right divisor of x^n - beta over the named field, lowest
    degree first, as coefficient lists."""
    field = ring(name).field
    return [g["coeffs"] for d in range(n + 1) for g in oracle.right_divisors(field, n, beta, d)]


@st.composite
def codes(draw, lengths, max_words=None, units=False):
    """(field name, n, alpha as (a, b, c, d) codes, four component
    generators), each generator g_i a right divisor of x^n - beta_i drawn
    from the oracle's list, with at most max_words codewords. Unless units
    is set, zero components beta_i, so non-unit alpha, are drawn too."""
    name = draw(st.sampled_from(sorted(lengths)))
    q = ring(name).field.q
    n = draw(st.integers(1, lengths[name]))
    if units:
        alpha = oracle.from_components(ring(name), draw(st.tuples(*[st.integers(1, q - 1)] * 4)))
    else:
        alpha = draw(st.tuples(*[st.integers(0, q - 1)] * 4))
    words, gens = 1, []
    for beta in oracle.components(ring(name), alpha):
        fits = [g for g in divisors(name, n, beta) if max_words is None or words * q ** (n + 1 - len(g)) <= max_words]
        gens.append(draw(st.sampled_from(fits)))
        words *= q ** (n + 1 - len(gens[-1]))
    return name, n, alpha, gens


def cli_code(command, code):
    """(exit code, result) of a code command on (field name, n, alpha, gens)."""
    name, n, alpha, gens = code
    p, m, modulus, t = FIELDS[name]
    obj = {
        "field": {"p": p, "m": m, "modulus": list(modulus), "t": t},
        "n": n,
        "alpha": dict(zip("abcd", alpha)),
        "gens": [{"ring": "fq", "coeffs": g} for g in gens],
    }
    rc, out = run_main([command, "--input", json.dumps(obj)])
    return rc, json.loads(out)["result"]


# (field name, n, alpha, gens) examples. Over F9, x^2 - 1 has the right
# divisors x + c for c = 1, 2, z, 2z (codes 1, 2, 3, 6), and theta moves the
# last two, so it shows in their shifts. alpha = u has beta = (0, 1, 0, 1).
SKEW_F9 = ("F9", 2, (1, 0, 0, 0), [[2, 1], [3, 1], [6, 1], [1]])
NON_UNIT_F3 = ("F3", 3, (0, 1, 0, 0), [[0, 1], [2, 1], [1], [2, 0, 0, 1]])


def assert_params_is_the_oracle(code):
    name, n, alpha, gens = code
    r = ring(name)
    field = r.field
    words = oracle.code_words(r, n, alpha, gens)
    rank = len(oracle.rref(field, map(oracle.flat, words)))
    codewords = oracle.span(field, map(oracle.flat, words), 4 * n)
    index = math.gcd(n, oracle.theta_order(field))

    def closed(shift):
        return all(oracle.flat(shift(oracle.unflat(w))) in codewords for w in codewords)

    self_orthogonal = all(oracle.inner(r, w, c) == r.zero for w in words for c in words)
    rc, result = cli_code("params", code)
    assert rc == 0, result
    assert result["component_dims"] == oracle.component_dims(r, words)
    assert result["gray_params"] == [4 * n, rank, oracle.min_distance(r, codewords)]
    assert result["closures"]["tau"] == closed(lambda w: oracle.tau(r, w, alpha))
    quasi_twist = {"index": index, "closed": closed(lambda w: oracle.rho(r, w, alpha, index))}
    assert result["closures"]["quasi_twist"] == quasi_twist
    assert result["self_dual"] == (self_orthogonal and rank == oracle.dual_dimension(r, n, words))


@settings(max_examples=40, deadline=None)
@given(codes(CODE_LENGTHS, MAX_WORDS))
@example(SKEW_F9)
@example(NON_UNIT_F3)
def test_params_is_the_oracle(code):
    assert_params_is_the_oracle(code)


def assert_gray_image_is_the_oracle(code):
    name, n, alpha, gens = code
    r = ring(name)
    rows = [oracle.gray(r, w) for w in oracle.code_words(r, n, alpha, gens)]
    rc, result = cli_code("gray-image", code)
    assert rc == 0, result
    assert result["length"] == 4 * n
    assert result["dimension"] == len(result["rows"]) == len(oracle.rref(r.field, rows))
    assert oracle.rref(r.field, result["rows"]) == oracle.rref(r.field, rows)


@settings(max_examples=40, deadline=None)
@given(codes(CODE_LENGTHS))
@example(SKEW_F9)
@example(NON_UNIT_F3)
def test_gray_image_is_the_oracle(code):
    assert_gray_image_is_the_oracle(code)


def assert_dual_is_the_oracle(code):
    name, n, alpha, gens = code
    r = ring(name)
    rc, result = cli_code("dual", code)
    if r.zero[0] in oracle.components(r, alpha):
        assert rc == 2 and "not a unit" in result["error"], result
        return
    assert rc == 0, result
    dual_alpha = tuple(result["dual_alpha"][k] for k in "abcd")
    dual = oracle.code_words(r, n, dual_alpha, [g["coeffs"] for g in result["dual_gens"]])
    words = oracle.code_words(r, n, alpha, gens)
    if r.field.q ** (4 * n) <= oracle.MAX_CANDIDATES:
        assert oracle.span(r.field, map(oracle.flat, dual), 4 * n) == oracle.orthogonal_words(r, n, words)
    else:
        assert all(oracle.inner(r, d, c) == r.zero for d in dual for c in words)
        assert len(oracle.rref(r.field, map(oracle.flat, dual))) == oracle.dual_dimension(r, n, words)


@settings(max_examples=30, deadline=None)
@given(codes({"F3": 2, "F9": 1}, units=True))
@example(("F3", 2, (0, 0, 1, 0), [[0, 1], [1], [1], [1]]))  # alpha = v: not a unit
@example(("F9", 1, (3, 0, 0, 0), [[1], [1], [1], [1]]))  # alpha = z: theta moves it and k = 2 does not divide n
def test_dual_is_the_orthogonal_code_of_r_n(code):
    """The dual against every word of R^n orthogonal to the code."""
    assert_dual_is_the_oracle(code)


@settings(max_examples=30, deadline=None)
@given(codes(CODE_LENGTHS, units=True))
@example(SKEW_F9)
@example(NON_UNIT_F3)
def test_dual_has_the_orthogonal_dimension(code):
    """Past the sizes R^n can be listed at: the dual is orthogonal to the
    code and has the dimension of the solutions of <w, c> = 0."""
    assert_dual_is_the_oracle(code)


# --- idempotent ---

# the lengths n drawn over each field: gcd(n, k) = gcd(n, q) = 1, the
# hypotheses of idempotent; F_q[x]/(x^n - alpha) is semisimple for alpha != 0
IDEMPOTENT_LENGTHS = {"F3": (1, 2, 4, 5), "F9": (1, 5), "F27": (1, 2), "F81t2": (1,)}


@st.composite
def idempotent_codes(draw):
    """(field name, n, four nonzero constants beta_i, four generators g_i),
    each g_i a right divisor of x^n - beta_i from the oracle's list with at
    most MAX_WORDS codewords in <g_i>. theta fixes each beta_i: then a
    right divisor of x^n - beta_i is a commutative one too, and <g_i> an
    ideal of F_q[x]/(x^n - beta_i)."""
    name = draw(st.sampled_from(sorted(IDEMPOTENT_LENGTHS)))
    field = ring(name).field
    n = draw(st.sampled_from(IDEMPOTENT_LENGTHS[name]))
    fixed = st.sampled_from([b for b in range(1, field.q) if field.theta(b) == b])
    betas = draw(st.tuples(*[fixed] * 4))
    fits = [[g for g in divisors(name, n, b) if field.q ** (n + 1 - len(g)) <= MAX_WORDS] for b in betas]
    gens = [draw(st.sampled_from(f)) for f in fits]
    return name, n, betas, gens


def assert_idempotent_generator(field, n, alpha, f, e):
    """e, a coefficient list, is the idempotent generator of C = <f> in
    F_q[x; theta]/(x^n - alpha): a word of C with e * e = e, whose left
    multiples span C, and with e c = c for every c in C under the
    commutative product. The last condition alone pins e: two such e, e'
    of C give e = e' e = e e' = e'."""
    e = tuple(e) + (field.zero,) * (n - len(e))
    code = oracle.span(field, oracle.left_multiples(field, n, alpha, f, field.one), n)
    multiples = oracle.left_multiples(field, n, alpha, e, field.one)
    assert e in code
    assert oracle.left_multiples(field, n, alpha, oracle.skew_mul(field, e, e), field.one)[0] == e
    assert oracle.span(field, multiples, n) == code
    assert all(oracle.commutative_mul(field, n, alpha, e, c) == c for c in code)


def cli_idempotent(name, n, **obj):
    p, m, modulus, t = FIELDS[name]
    obj = {"field": {"p": p, "m": m, "modulus": list(modulus), "t": t}, "n": n, **obj}
    rc, out = run_main(["idempotent", "--input", json.dumps(obj)])
    result = json.loads(out)["result"]
    assert rc == 0, result
    return result


def assert_f_idempotent_is_the_oracle(name, n, beta, g):
    """The f form: the idempotent generator of <g> mod x^n - beta, returned
    as a coefficient list."""
    e = cli_idempotent(name, n, alpha=beta, f={"ring": "fq", "coeffs": g})["e"]["coeffs"]
    assert_idempotent_generator(ring(name).field, n, beta, g, e)
    return e


def assert_gens_idempotent_is_the_oracle(name, n, betas, gens):
    """The gens form: four component idempotents, joined by the CLI into
    one e over R; the component idempotents are returned."""
    r = ring(name)
    field = r.field
    result = cli_idempotent(name, n, alpha={"crt": list(betas)}, gens=[{"ring": "fq", "coeffs": g} for g in gens])
    es = [e["coeffs"] for e in result["component_idempotents"]]
    for beta, g, e in zip(betas, gens, es):
        assert_idempotent_generator(field, n, beta, g, e)
    joined = [oracle.components(r, tuple(c[k] for k in "abcd")) for c in result["e"]["coeffs"]]
    joined += [(field.zero,) * 4] * (n - len(joined))
    assert [tuple(e) + (field.zero,) * (n - len(e)) for e in es] == list(zip(*joined))
    return es


@settings(max_examples=25, deadline=None)
@given(idempotent_codes())
@example(("F9", 5, (1, 1, 2, 2), [[2, 1], [2, 1], [1, 1], [1, 1]]))  # the idempotent goldens
def test_idempotent_is_the_oracle(code):
    """Both input forms: a generator f with its constant, and four
    component generators, whose component idempotents the CLI joins into
    one e over R."""
    name, n, betas, gens = code
    e = assert_f_idempotent_is_the_oracle(name, n, betas[0], gens[0])
    assert assert_gens_idempotent_is_the_oracle(name, n, betas, gens)[0] == e


# --- the decomposition theorem ---

# the longest code drawn over each field for verify_decomposition_theorem
DECOMPOSITION_LENGTHS = {"F3": 3, "F9": 3}


@st.composite
def component_codes(draw):
    """(field name, n, alpha as (a, b, c, d) codes, four monic component
    generators): each g_i a right divisor of x^n - beta_i from the oracle's
    list, x^n - beta_i itself (a zero component), 1 (a full-space one) or
    any monic polynomial of degree at most n, rarely a divisor; zero
    constants beta_i included."""
    name = draw(st.sampled_from(sorted(DECOMPOSITION_LENGTHS)))
    field = ring(name).field
    n = draw(st.integers(1, DECOMPOSITION_LENGTHS[name]))
    alpha = draw(st.tuples(*[st.integers(0, field.q - 1)] * 4))
    gens = []
    for beta in oracle.components(ring(name), alpha):
        kind = draw(st.sampled_from(("divisor", "zero", "full", "any")))
        if kind == "divisor":
            gens.append(draw(st.sampled_from(divisors(name, n, beta))))
        elif kind == "zero":
            gens.append([field.neg(beta)] + [field.zero] * (n - 1) + [field.one])
        elif kind == "full":
            gens.append([field.one])
        else:
            low = draw(st.lists(st.integers(0, field.q - 1), max_size=n))
            gens.append(low + [field.one])
    return name, n, alpha, gens


def nominal_basis(r, n, gens):
    """The words e_i * (x^j * g_i), j < n - deg g_i, over R: the basis a
    code stored by its component generators spans, from the oracle's skew
    product (below degree n nothing is reduced)."""
    zero = r.field.zero
    words = []
    for e, g in zip(oracle.idempotents(r), gens):
        lifted = [r.mul(e, (c, zero, zero, zero)) for c in g]
        for j in range(n + 1 - len(g)):
            word = oracle.skew_mul(r, [r.zero] * j + [r.one], lifted)
            words.append(tuple(word) + (r.zero,) * (n - len(word)))
    return words


def package_code(name, n, alpha, gens):
    """The same code as a SkewCode, built directly, so that non-divisor
    generators are kept."""
    from skewcodes.codes import SkewCode
    from skewcodes.gf import make_field
    from skewcodes.ring4 import RingElement
    from skewcodes.skewpoly import SkewPoly

    p, m, modulus, t = FIELDS[name]
    spec = make_field(p, m, list(modulus), t)
    poly = lambda g: SkewPoly(spec, "fq", [spec.from_int(c) for c in g])
    return SkewCode(spec, n, RingElement(*map(spec.from_int, alpha)), tuple(map(poly, gens)))


@settings(max_examples=60, deadline=None)
@given(component_codes())
@example(("F9", 2, (1, 0, 0, 0), [[2, 1], [3, 1], [6, 1], [1]]))  # SKEW_F9: theta moves two roots
@example(("F3", 3, (1, 0, 0, 0), [[1, 0, 1], [2, 0, 0, 1], [1], [1, 1]]))  # a non-divisor, a zero and a full component
@example(("F9", 3, (0, 1, 0, 0), [[0, 0, 0, 1], [1], [2, 1], [0, 1]]))  # alpha = u: beta = (0, 1, 0, 1)
def test_the_decomposition_report_is_the_oracle(code):
    """verify_decomposition_theorem on a code stored by its component
    generators, against the oracle, which makes no CRT split: `closed` is
    whether tau_alpha maps the code, the F_q-span of its nominal basis over
    R, into itself, and `round_trip` whether every g_i right-divides
    x^n - beta_i. tau(lambda w + w') = theta(lambda) tau(w) + tau(w'), so
    the code is tau-closed exactly when the image of each basis word is in
    it. For divisor generators the basis spans the module <sum e_i g_i>
    (oracle.code_words), and the round trip's components are the oracle's
    e_i * C."""
    from skewcodes.decomp import components_from_words, verify_decomposition_theorem

    name, n, alpha, gens = code
    r = ring(name)
    field = r.field
    words = nominal_basis(r, n, gens)
    rank = len(oracle.rref(field, map(oracle.flat, words)))
    closed = all(
        len(oracle.rref(field, map(oracle.flat, words + [oracle.tau(r, w, alpha)]))) == rank for w in words
    )
    betas = oracle.components(r, alpha)
    divide = all(
        all(c == field.zero for c in oracle.right_remainder(field, [field.neg(b)] + [field.zero] * (n - 1) + [field.one], g))
        for b, g in zip(betas, gens)
    )
    ours = package_code(name, n, alpha, gens)
    report = verify_decomposition_theorem(ours)
    assert report.closed == closed
    assert report.equivalence_holds
    assert report.round_trip == divide
    if not divide:
        return
    assert closed
    module = oracle.rref(field, map(oracle.flat, oracle.code_words(r, n, alpha, gens)))
    assert oracle.rref(field, map(oracle.flat, words)) == module
    back = components_from_words(ours.basis_words(), n, ours.alpha)
    for i in range(4):
        component = [[oracle.components(r, x)[i] for x in w] for w in words]
        assert oracle.rref(field, [[c.code for c in w] for w in back.component_basis(i)]) == oracle.rref(field, component)
