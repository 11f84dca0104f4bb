"""Tests of the Gray-commutation proof: gray.check_commutation, which runs
the word maps of each pair once on one shared symbolic word and compares
the monomial terms of their outputs, against the reference that evaluates
them on every basis
word in one numpy pass (reference.basis_commutation) and against the loop
that draws and maps one random word per trial; of the premise that makes
agreement on the basis a proof, that the word maps are additive; and of
the contract that makes comparing terms one: a map that does anything
but frob, scale, crt, slice and concatenate its entries raises.

Fields include those of test_kernel.py, whose twists lie strictly between
the identity and the full Frobenius (1 < t < m).
"""

import gc
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import basis_commutation, random_ring_element, ring_elements
from test_kernel import FIELDS

from skewcodes import cli, gray
from skewcodes.errors import DEFAULT_BUDGET, MixedRingsError
from skewcodes.gf import make_field
from skewcodes.gray import check_commutation, commutes_for_all, gray_map, permuted_sigma4, tau_omega4
from skewcodes.ring4 import RingElement, idempotents, ring_one, split_word
from skewcodes.serial import ring_to_json
from skewcodes.skewpoly import blockwise_constacyclic_shift, quasi_twist_shift, skew_constacyclic_shift

CHECK_FIELDS = {
    "F9": (3, 2, [1, 0, 1], 1),
    "F25": (5, 2, [1, 1, 1], 1),
    "F27": (3, 3, [1, 2, 0, 1], 1),
    **FIELDS,
}


def loop_commutation(lhs, rhs, field, n, trials, seed=0):
    """(index, word) of the first of `trials` random words on which lhs and
    rhs differ, or None: one word drawn and mapped per trial."""
    rng = random.Random(seed)
    for index in range(trials):
        w = tuple(random_ring_element(field, rng) for _ in range(n))
        if lhs(w) != rhs(w):
            return index, w
    return None


def ring_constant(spec, codes):
    return RingElement.from_crt(spec, *(spec.from_int(c) for c in codes))


def basis_word(spec, n, i, c, j):
    """Basis word (i, c, j): CRT component c of entry i is xi^j (code p^j),
    every other component is 0."""
    crt = lambda e: [spec.p ** j if (e, k) == (i, c) else 0 for k in range(4)]
    return tuple(ring_constant(spec, crt(e)) for e in range(n))


def twist_of_component(spec, i):
    """A pair of word maps that differ exactly where CRT component i of w_0
    is not fixed by the twist: over F9, on 2 of every 3 random words."""
    e = idempotents(spec)[i]
    return (lambda w: (e * w[0],), lambda w: (e * w[0].frob(1),))


KINDS = ["sigma_pi4", "tau_omega4", "permuted_sigma4", "disagreeing", "component_twist"]


def identity_pair(spec, kind, crt_codes):
    alpha = ring_constant(spec, crt_codes)
    if kind == "sigma_pi4":
        return tau_omega4(ring_one(spec))
    if kind == "tau_omega4":
        return tau_omega4(alpha)
    if kind == "permuted_sigma4":
        return permuted_sigma4(spec)
    if kind == "disagreeing":
        return lambda w: skew_constacyclic_shift(w, spec.one), lambda w: skew_constacyclic_shift(w, alpha)
    return twist_of_component(spec, crt_codes[0] % 4)  # any component i


def holds(spec, kind, crt_codes):
    """Whether the pair of identity_pair agrees on all of R^n, n >= 1."""
    if kind in ("sigma_pi4", "tau_omega4"):
        return True
    if kind == "permuted_sigma4":
        return spec.k in (1, 3)  # theta^4 = theta
    if kind == "disagreeing":
        return crt_codes == [1, 1, 1, 1]
    return spec.k == 1


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(CHECK_FIELDS)),
    st.sampled_from(KINDS),
    st.integers(1, 8),
    st.integers(1, 60),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_batched_check_matches_the_loop(name, kind, n, trials, seed, data):
    """Whenever the loop finds a counterexample the proof returns one, every
    word it returns is a basis word on which the word maps differ, and its
    verdict is the exact one."""
    spec = make_field(*CHECK_FIELDS[name])
    # CRT components of alpha; a zero component makes it a non-unit
    crt_codes = data.draw(st.lists(st.integers(0, spec.q - 1), min_size=4, max_size=4))
    lhs, rhs = identity_pair(spec, kind, crt_codes)
    found = loop_commutation(lhs, rhs, spec, n, trials, seed)
    proved = check_commutation([(lhs, rhs)], spec, n)[0]
    if found is not None:
        assert proved is not None
    if proved is not None:
        assert lhs(proved) != rhs(proved)
        (code,) = [x.code for r in proved for x in r.crt() if x.code]
        assert code in [spec.p ** j for j in range(spec.m)]
    assert (proved is None) == holds(spec, kind, crt_codes)


def monomial_map(spec, sources, twists, crt_codes, before):
    """w -> (b_i * theta^e_i(w[s_i]))_i, or theta^e_i(b_i * w[s_i]) where
    before[i], with b_i the R constant whose CRT codes are crt_codes[i]:
    entries moved, twisted and scaled, zero components included."""
    consts = [ring_constant(spec, codes) for codes in crt_codes]
    outputs = list(zip(sources, twists, consts, before))  # a copy: the caller edits its lists
    return lambda w: tuple((b * w[s]).frob(e) if first else b * w[s].frob(e) for s, e, b, first in outputs)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(CHECK_FIELDS)), st.sampled_from(KINDS), st.integers(1, 8), st.data())
def test_terms_give_the_verdict_and_witness_of_the_basis_pass(name, kind, n, data):
    """The monomial terms and the numpy pass over all 4nm basis words give
    the same verdict and the same first differing basis word, on every
    identity_pair and on pairs of random monomial maps that agree on some
    outputs and not on others. Scaling before or after the twist gives the
    same map only for a constant the twist fixes."""
    spec = make_field(*CHECK_FIELDS[name])
    few = sorted({0, 1, 2, spec.p % spec.q})  # xi = code p, which the twist moves if k > 1
    codes = lambda: data.draw(st.lists(st.sampled_from(few), min_size=4, max_size=4))
    lhs, rhs = identity_pair(spec, kind, codes())
    assert check_commutation([(lhs, rhs)], spec, n)[0] == basis_commutation(lhs, rhs, spec, n)
    size = data.draw(st.integers(1, n))
    sources = data.draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
    twists = data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    consts = [codes() for _ in range(size)]
    before = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
    lhs = monomial_map(spec, sources, twists, consts, before)
    i = data.draw(st.integers(0, size - 1))  # rhs changes output i, or nothing
    change = data.draw(st.sampled_from(["none", "source", "twist", "const", "order"]))
    sources[i] = data.draw(st.integers(0, n - 1)) if change == "source" else sources[i]
    twists[i] += spec.k * data.draw(st.integers(0, 1)) + (change == "twist")
    consts[i] = codes() if change == "const" else consts[i]
    before[i] ^= change == "order"
    rhs = monomial_map(spec, sources, twists, consts, before)
    proved = check_commutation([(lhs, rhs)], spec, n)[0]
    assert proved == basis_commutation(lhs, rhs, spec, n)
    assert proved is None or lhs(proved) != rhs(proved)


def swapped_gray(w):
    """gray_map with blocks 2 and 3 swapped."""
    a, b, c, d = split_word(w)
    return a + c + b + d


def mutated_pairs(alpha):
    """tau_omega4(alpha) with one map broken: the Gray blocks 2 and 3
    swapped on the left, theta dropped from the block shifts on the right,
    and the wrapped entry twisted by theta^2 on the left."""
    lhs, rhs = tau_omega4(alpha)
    constants = alpha.crt()
    untwisted = lambda w, c: quasi_twist_shift(w, c, 1)
    blocks = lambda w: [w[b * (len(w) // 4):(b + 1) * (len(w) // 4)] for b in range(4)]
    twice = lambda w: (alpha * w[-1].frob(2),) + tuple(c.frob(1) for c in w[:-1])
    return [
        (lambda w: swapped_gray(skew_constacyclic_shift(w, alpha)), rhs),
        (lhs, lambda w: sum(map(untwisted, blocks(gray_map(w)), constants), ())),
        (lambda w: gray_map(twice(w)), lambda w: blockwise_constacyclic_shift(gray_map(w), constants)),
    ]


def scaling_pairs(alpha):
    """theta(alpha) * theta(x) = theta(alpha * x), which holds; alpha *
    theta(x) against theta(alpha * x), which holds only when the twist fixes
    alpha; and an F_q word scaled by the 1 of R, a word over R, against the
    word itself."""
    scaled_last = lambda w: ((alpha * w[-1]).frob(1),)
    one = ring_one(alpha.spec)
    return [
        (lambda w: (alpha.frob(1) * w[-1].frob(1),), scaled_last),
        (lambda w: (alpha * w[-1].frob(1),), scaled_last),
        (lambda w: tuple(one * c for c in gray_map(w)), gray_map),
    ]


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("name", sorted(CHECK_FIELDS))
def test_pairs_sharing_one_word_get_the_verdicts_they_get_alone(name, n):
    """A family of true identities and failing pairs, in random order, run
    on one shared word: entry i of the answer is the reference's answer for
    pair i alone, holding pairs after failing ones still get None, and
    every holding pair is proved from its terms, its maps run once each.
    The constants alpha have distinct CRT components, zero among them at
    times."""
    spec = make_field(*CHECK_FIELDS[name])
    rng = random.Random(f"{name}-{n}")
    pairs = [tau_omega4(ring_one(spec)), permuted_sigma4(spec)]
    for _ in range(3):
        codes = rng.sample(range(spec.q), 4)
        alpha = ring_constant(spec, codes)
        pairs += [tau_omega4(alpha), identity_pair(spec, "disagreeing", codes)]
        pairs += [identity_pair(spec, "component_twist", codes), *mutated_pairs(alpha), *scaling_pairs(alpha)]
    rng.shuffle(pairs)
    expected = [basis_commutation(lhs, rhs, spec, n) for lhs, rhs in pairs]
    assert None in expected and any(w is not None for w in expected)
    runs = [0] * len(pairs)
    counted = lambda i, f: lambda w: runs.__setitem__(i, runs[i] + 1) or f(w)
    assert check_commutation([(counted(i, l), counted(i, r)) for i, (l, r) in enumerate(pairs)], spec, n) == expected
    assert all(count == 2 for count, w in zip(runs, expected) if w is None)
    failing_first = sorted(range(len(pairs)), key=lambda i: expected[i] is None)
    assert check_commutation([pairs[i] for i in failing_first], spec, n) == [expected[i] for i in failing_first]


def test_no_symbolic_state_outlives_a_call(monkeypatch):
    """Two gray-commutation suites in a row build the same number of
    columns and give the same report: nothing of one call serves the next."""
    built = []
    init = gray._Column.__init__
    monkeypatch.setattr(gray._Column, "__init__", lambda self, *args: built.append(1) or init(self, *args))
    first = cli._suite_gray_commutation(0, DEFAULT_BUDGET)
    count = len(built)
    second = cli._suite_gray_commutation(0, DEFAULT_BUDGET)
    assert count > 0 and len(built) == 2 * count
    assert second == first and first["pass"]


@pytest.mark.parametrize("name", ["F9", "F27", "F81t2"])
def test_a_holding_identity_is_proved_from_its_terms_alone(name):
    """When the identity holds, lhs and rhs run once each, on the symbolic
    word, and never on a basis word: the terms are in normal form, with
    twists taken mod k, also for a non-unit alpha."""
    spec = make_field(*CHECK_FIELDS[name])
    pairs = [identity_pair(spec, kind, [1, 0, 2, 1]) for kind in ("sigma_pi4", "tau_omega4")]
    if spec.k in (1, 3):
        pairs.append(permuted_sigma4(spec))
    for lhs, rhs in pairs:
        runs = []
        counted = lambda f: lambda w: runs.append(w) or f(w)
        assert check_commutation([(counted(lhs), counted(rhs))], spec, 5)[0] is None
        assert len(runs) == 2


# --- one proof for every alpha: commutes_for_all on a symbolic constant ---

def seeded_alphas(spec, rng):
    """1, -1, 1 - 2uv, a unit the twist moves, and random constants, among
    them ones with zero CRT components (non-units) and 0."""
    alphas = [ring_one(spec), RingElement.from_ints(spec, -1), RingElement.from_ints(spec, 1, 0, 0, -2)]
    alphas += [unfixed_constant(spec), ring_constant(spec, [0, 0, 0, 0])]
    for _ in range(4):
        codes = [rng.choice([0, rng.randrange(spec.q)]) for _ in range(4)]
        alphas.append(RingElement.from_crt(spec, *map(spec.from_int, codes)))
    return alphas


def disagreeing_family(alpha):
    """sigma against tau_alpha: they agree only for alpha = 1."""
    one = alpha.spec.one
    return lambda w: skew_constacyclic_shift(w, one), lambda w: skew_constacyclic_shift(w, alpha)


# family name -> (alpha -> (lhs, rhs), whether lhs = rhs for every alpha given k)
FAMILIES = {
    "tau_omega4": (tau_omega4, lambda k: True),
    "swapped gray blocks": (lambda a: mutated_pairs(a)[0], lambda k: False),
    "untwisted block shifts": (lambda a: mutated_pairs(a)[1], lambda k: k == 1),
    "wrapped entry twisted twice": (lambda a: mutated_pairs(a)[2], lambda k: k == 1),
    "theta(alpha) theta(x), theta(alpha x)": (lambda a: scaling_pairs(a)[0], lambda k: True),
    "alpha theta(x), theta(alpha x)": (lambda a: scaling_pairs(a)[1], lambda k: k == 1),
    "F_q word scaled by the 1 of R": (lambda a: scaling_pairs(a)[2], lambda k: False),
    "sigma, tau_alpha": (disagreeing_family, lambda k: False),
    "alpha_0 x, alpha_1 x": (lambda a: (lambda w: (a.crt()[0] * w[0],), lambda w: (a.crt()[1] * w[0],)), lambda k: False),
    "alpha_0 alpha_2 x in either order": (
        lambda a: (lambda w: (a.crt()[0] * (a.crt()[2] * w[0]),), lambda w: (a.crt()[2] * (a.crt()[0] * w[0]),)),
        lambda k: True,
    ),
}


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("name", sorted(CHECK_FIELDS))
def test_tau_omega4_is_proved_for_every_alpha_at_once(name, n):
    """The symbolic proof of tau_omega4 holds, and so does the proof for
    each seeded concrete alpha, which is the numpy pass's verdict."""
    spec = make_field(*CHECK_FIELDS[name])
    assert commutes_for_all(tau_omega4, spec, (n,))[0]
    for alpha in seeded_alphas(spec, random.Random(f"{name}-{n}")):
        pair = tau_omega4(alpha)
        assert check_commutation([pair], spec, n) == [basis_commutation(*pair, spec, n)] == [None]


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("name", sorted(CHECK_FIELDS))
def test_a_family_that_fails_for_some_alpha_is_not_proved(name, n):
    """commutes_for_all is True exactly for the families that hold for
    every alpha, and never when the numpy pass finds a seeded alpha they
    fail for; the concrete proof then gives each alpha that pass's verdict,
    also when the pairs of all the alphas share one word."""
    spec = make_field(*CHECK_FIELDS[name])
    alphas = seeded_alphas(spec, random.Random(f"{name}-{n}"))
    for family, holds_for_all in FAMILIES.values():
        expected = [basis_commutation(*family(alpha), spec, n) for alpha in alphas]
        proved = commutes_for_all(family, spec, (n,))[0]
        assert proved == holds_for_all(spec.k) == all(w is None for w in expected)
        assert check_commutation([family(alpha) for alpha in alphas], spec, n) == expected


@pytest.mark.parametrize("family", sorted(name for name, (_, holds_for_all) in FAMILIES.items() if not holds_for_all(2)))
def test_the_suite_falls_back_to_a_proof_per_alpha(family, monkeypatch):
    """With tau_omega4 replaced by a family that fails for some alpha, every
    run of the gray-commutation suite reports the numpy pass's verdict for
    its own alpha, sigma/pi_4 that of alpha = 1."""
    make_pair = FAMILIES[family][0]
    monkeypatch.setattr(cli, "tau_omega4", make_pair)
    runs = iter(cli._suite_gray_commutation(0, DEFAULT_BUDGET)["runs"])
    verdicts = set()
    for field in (cli.field_f9(), cli.field_f25()):
        alphas = (ring_one(field), RingElement.from_ints(field, -1), RingElement.from_ints(field, 1, 0, 0, -2))
        for n in (3, 4, 6):
            passes = [basis_commutation(*make_pair(alpha), field, n) is None for alpha in alphas]
            assert next(runs)["pass"] == passes[0]
            for alpha, passed in zip(alphas, passes):
                run = next(runs)
                assert (run["alpha"], run["pass"]) == (ring_to_json(alpha), passed)
            verdicts.add(tuple(passes))
    assert next(runs)["identity"] == "permuted_sigma4"
    if family in ("sigma, tau_alpha", "alpha theta(x), theta(alpha x)"):
        assert verdicts & {(True, False, False), (True, True, True)}  # not every alpha fails


def test_the_suite_runs_each_map_once_per_cell(monkeypatch):
    """One symbolic proof per (field, n) cell: tau_omega4's lhs and rhs run
    once each in each of the 6 cells, where one proof per alpha ran them 18
    times each."""
    runs = {"lhs": 0, "rhs": 0}

    def counted(alpha):
        lhs, rhs = tau_omega4(alpha)
        count = lambda side, f: lambda w: runs.__setitem__(side, runs[side] + 1) or f(w)
        return count("lhs", lhs), count("rhs", rhs)

    monkeypatch.setattr(cli, "tau_omega4", counted)
    assert cli._suite_gray_commutation(0, DEFAULT_BUDGET)["pass"]
    assert runs == {"lhs": 6, "rhs": 6}


def test_the_suite_proves_each_field_in_one_call(monkeypatch):
    """One commutes_for_all call per field, for all three of its lengths."""
    calls = []
    proof = gray.commutes_for_all
    spy = lambda make_pair, field, lengths: calls.append((field, tuple(lengths))) or proof(make_pair, field, lengths)
    monkeypatch.setattr(cli, "commutes_for_all", spy)
    assert cli._suite_gray_commutation(0, DEFAULT_BUDGET)["pass"]
    assert calls == [(cli.field_f9(), (3, 4, 6)), (cli.field_f25(), (3, 4, 6))]


def test_no_symbolic_object_outlives_a_request(capsys):
    """Nothing of a request is cached for the next: after gc.collect(), as
    many symbolic columns and constants are alive after one verify
    gray-commutation request as before it."""
    def alive():
        gc.collect()
        return sum(isinstance(o, (gray._Column, gray._Constant)) for o in gc.get_objects())

    before = alive()
    assert cli.main(["verify", "gray-commutation"]) == 0
    assert alive() == before
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


def wrong_at_five(alpha):
    """tau_omega4(alpha) with the Gray blocks 2 and 3 swapped on the left,
    on words of length 5 only."""
    lhs, rhs = tau_omega4(alpha)
    swapped = mutated_pairs(alpha)[0][0]
    return (lambda w: (swapped if len(w) == 5 else lhs)(w)), rhs


@pytest.mark.parametrize("name", sorted(CHECK_FIELDS))
def test_a_proof_per_length_is_the_proof_of_a_call_per_length(name):
    """One call for the lengths 1..8, in either order, gives each length
    the verdict of a fresh call for it alone, which is the family's: a
    length that fails stays False among lengths that hold and share its
    columns."""
    spec = make_field(*CHECK_FIELDS[name])
    lengths = tuple(range(1, 9))
    families = {**FAMILIES, "gray blocks swapped at n = 5": (wrong_at_five, None)}
    for family, holds_for_all in families.values():
        alone = [commutes_for_all(family, spec, (n,))[0] for n in lengths]
        if holds_for_all is None:
            assert alone == [n != 5 for n in lengths]
        else:
            assert alone == [holds_for_all(spec.k)] * len(lengths)
        assert commutes_for_all(family, spec, lengths) == alone
        assert commutes_for_all(family, spec, lengths[::-1]) == alone[::-1]


def alpha_monomial_family(spec, sources, twists, consts, factors):
    """alpha -> (w -> output_i): output i is theta^e_i(b_i * w[s_i]) times
    its factors (j, r, before), each theta^r(alpha), or theta^r(alpha_j) for
    j in 0..3, applied in order before the twist if `before`, else after."""
    outputs = list(zip(sources, twists, [ring_constant(spec, c) for c in consts], factors))

    def output(w, alpha, s, e, b, scalings):
        y = b * w[s]
        const = lambda j, r: (alpha if j is None else alpha.crt()[j]).frob(r)
        for j, r, _ in filter(lambda f: f[2], scalings):
            y = const(j, r) * y
        y = y.frob(e)
        for j, r, _ in itertools.filterfalse(lambda f: f[2], scalings):
            y = const(j, r) * y
        return y

    return lambda alpha: lambda w: tuple(output(w, alpha, *out) for out in outputs)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CHECK_FIELDS)), st.integers(1, 6), st.data())
def test_a_symbolic_proof_holds_for_every_concrete_alpha(name, n, data):
    """Random monomial maps that scale by alpha, its CRT components, their
    twists and constants, in any order: when the symbolic forms agree, the
    numpy pass finds every drawn alpha, zero components included, agreeing.
    A pair of equal maps is proved, and so is one whose rhs scales in
    another order or moves a factor across the twist with its own twist
    adjusted; each other change of one factor is a change of the map."""
    spec = make_field(*CHECK_FIELDS[name])
    few = sorted({0, 1, 2, spec.p % spec.q})
    codes = lambda: data.draw(st.lists(st.sampled_from(few), min_size=4, max_size=4))
    size = data.draw(st.integers(1, n))
    draw_list = lambda strategy, lo=size, hi=size: data.draw(st.lists(strategy, min_size=lo, max_size=hi))
    factor = st.tuples(st.none() | st.integers(0, 3), st.integers(0, 3), st.booleans())
    sources, twists = draw_list(st.integers(0, n - 1)), draw_list(st.integers(0, 3))
    consts = [codes() for _ in range(size)]
    factors = [draw_list(factor, 0, 2) for _ in range(size)]
    lhs = alpha_monomial_family(spec, sources, twists, consts, factors)
    i = data.draw(st.integers(0, size - 1))  # rhs changes output i, or nothing
    changes = ["none", "order", "across", "component", "twist", "drop", "const"]
    change = data.draw(st.sampled_from(changes if factors[i] else ["none", "const"]))
    changed = list(factors[i])
    j, r, before = changed[-1] if changed else (None, 0, True)
    if change == "order":
        changed.reverse()
    elif change == "across":  # theta^e(theta^r(a) y) = theta^(r+e)(a) theta^e(y)
        changed[-1] = (j, r + twists[i], False) if before else (j, r - twists[i], True)
    elif change == "component":
        changed[-1] = (data.draw(st.sampled_from([c for c in (None, 0, 1, 2, 3) if c != j])), r, before)
    elif change == "twist":
        changed[-1] = (j, r + 1, before)
    elif change == "drop":
        changed.pop()
    factors[i] = changed
    consts[i] = codes() if change == "const" else consts[i]
    rhs = alpha_monomial_family(spec, sources, twists, consts, factors)
    family = lambda alpha: (lhs(alpha), rhs(alpha))
    proved = commutes_for_all(family, spec, (n,))[0]
    if change in ("none", "order", "across"):
        assert proved
    if proved:
        for _ in range(3):
            alpha = ring_constant(spec, codes())
            assert basis_commutation(*family(alpha), spec, n) is None


def test_a_unit_returns_the_column_only_with_as_many_places(f9):
    """1 * x is x itself when the constant has one place per place of x; the
    1 of R times an entry in F_q is an entry in R, with four places."""
    (entry,) = gray._symbolic_word(f9, 1)
    part = entry.crt()[2]
    assert ring_one(f9) * entry is entry and f9.one * entry is entry and f9.one * part is part
    scaled = ring_one(f9) * part
    assert scaled is not part and scaled.terms == part.terms * 4


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(CHECK_FIELDS)),
    st.sampled_from(["entry", "part", "scaled", "symbolic"]),
    st.integers(0, 3),
    st.integers(0, 3),
    st.data(),
)
def test_frob_walks_the_theta_orbit(name, kind, place, start, data):
    """For i from -2k to 3k, frob(i) is i successive frob(1) calls (i + 2k
    for i < 0) in terms and twist; frob(j k) is the column itself, however
    reached, from any column of the orbit; and the split of theta^i(x) is
    theta^i of x's split, so the split of theta^k(x) is x's."""
    spec = make_field(*CHECK_FIELDS[name])
    k = spec.k
    entry = gray._symbolic_word(spec, 2)[1]
    codes = data.draw(st.lists(st.integers(0, spec.q - 1), min_size=4, max_size=4))
    column = {
        "entry": lambda: entry,
        "part": lambda: entry.crt()[place],
        "scaled": lambda: ring_constant(spec, codes) * entry,
        "symbolic": lambda: gray._Constant(spec).frob(place) * entry,
    }[kind]()
    x = column.frob(start)
    for i in range(-2 * k, 3 * k + 1):
        y = x
        for _ in range(i if i >= 0 else i + 2 * k):
            y = y.frob(1)
        twisted = x.frob(i)
        assert (twisted.terms, twisted.e) == (y.terms, y.e) == (x.terms, (x.e + i) % k)
        if i % k == 0:
            assert twisted is x and y is x
        if len(x.terms) == 4:
            assert all(part is xpart.frob(i) for part, xpart in zip(twisted.crt(), x.crt()))


def test_both_sides_of_sigma4_over_f27_are_one_word(f27):
    """theta^4 = theta over F27 (k = 3), and theta^3 of a column is the
    column: the two sides of permuted_sigma4 give the same columns."""
    lhs, rhs = permuted_sigma4(f27)
    word = gray._symbolic_word(f27, 5)
    left, right = lhs(word), rhs(word)
    assert len(left) == len(right) == 20 and all(x is y for x, y in zip(left, right))


# --- the contract of the symbolic constant: maps may frob, split and scale by it ---

ALPHA_OUTSIDE_THE_CONTRACT = {
    "reads is_zero": lambda a: (lambda w: w[:1] if a.is_zero else w[1:2]),
    "reads a component's code": lambda a: (lambda w: w[:a.crt()[0].code % 1 + 1]),
    "compares alpha": lambda a: (lambda w: w[:1] if a == ring_one(a.spec) else w[1:2]),
    "compares with alpha": lambda a: (lambda w: w[:1] if ring_one(a.spec) == a else w[1:2]),
    "branches on alpha": lambda a: (lambda w: w[:1] if a else w[1:2]),
    "adds to alpha": lambda a: (lambda w: ((a + 1) * w[0],)),
    "multiplies alpha": lambda a: (lambda w: ((a * a) * w[0],)),
    "scales alpha": lambda a: (lambda w: ((ring_one(a.spec) * a) * w[0],)),
    "crt of a component": lambda a: (lambda w: (a.crt()[0].crt()[0] * w[0],)),
}


@pytest.mark.parametrize("name", sorted(ALPHA_OUTSIDE_THE_CONTRACT))
def test_maps_that_use_alpha_outside_the_contract_raise(name, f9):
    """A symbolic proof covers the maps that treat every alpha alike: one
    that reads, compares, adds, multiplies or branches on alpha raises, on
    either side."""
    word_map = ALPHA_OUTSIDE_THE_CONTRACT[name]
    for family in (lambda a: (word_map(a), lambda w: w[:1]), lambda a: (lambda w: w[:1], word_map(a))):
        with pytest.raises((TypeError, AttributeError)):
            commutes_for_all(family, f9, (2,))[0]


def test_symbolic_constants_from_another_field_are_refused(f9, f25):
    with pytest.raises(MixedRingsError):
        commutes_for_all(lambda a: tau_omega4(gray._Constant(f25)), f9, (3,))[0]
    with pytest.raises(MixedRingsError):
        commutes_for_all(lambda a: (lambda w: (gray._Constant(f25).crt()[1] * w[0],), lambda w: w[:1]), f9, (3,))[0]


@pytest.mark.parametrize("n, field", [(1, "F9"), (2, "F3")])
def test_verdict_is_that_of_exhaustive_search(n, field, f3, f9):
    """On every word of R^n, not only on a basis: the proof returns None
    exactly when lhs and rhs agree on all q^(4n) words."""
    spec = {"F3": f3, "F9": f9}[field]
    words = list(itertools.product(ring_elements(spec), repeat=n))
    for kind in KINDS:
        for crt_codes in ([1, 1, 1, 1], [1, 2, 0, 1], [2, 2, 2, 2]):
            lhs, rhs = identity_pair(spec, kind, crt_codes)
            agree = all(lhs(w) == rhs(w) for w in words)
            assert (check_commutation([(lhs, rhs)], spec, n)[0] is None) == agree


def test_the_first_differing_basis_word_is_returned(f9):
    """Basis words are ordered by entry, then CRT component, then j."""
    # only xi^1 in component 2 of entry 1 is moved by the twist there
    pair = (lambda w: (idempotents(f9)[2] * w[1],), lambda w: (idempotents(f9)[2] * w[1].frob(1),))
    assert check_commutation([pair], f9, 3)[0] == basis_word(f9, 3, 1, 2, 1)
    pair = (lambda w: (w[2],), lambda w: (f9.constant(2) * w[2],))
    assert check_commutation([pair], f9, 3)[0] == basis_word(f9, 3, 2, 0, 0)


def test_scaling_before_and_after_the_twist_differ_by_the_twist(f9):
    """b * theta(x) = theta(theta^-1(b) * x): the two orders agree only
    when the twist fixes b, here only in CRT component 0."""
    xi = f9.from_int(3)
    b = RingElement.from_crt(f9, 1, xi, xi, xi)
    c = RingElement.from_crt(f9, 1, *[xi.frob(-1)] * 3)
    twisted_first = lambda const: lambda w: (const * w[1].frob(1),)
    scaled_first = lambda w: ((b * w[1]).frob(1),)
    assert check_commutation([(twisted_first(c), scaled_first)], f9, 2)[0] is None
    assert check_commutation([(twisted_first(b), scaled_first)], f9, 2)[0] == basis_word(f9, 2, 1, 1, 0)


def test_constacyclic_shift_agrees_with_the_cyclic_one_only_for_one(f9):
    """sigma is tau with the unit of F_q, which scales an R-word as the unit
    of R does; a constant with a zero CRT component gives another shift."""
    sigma = lambda w: skew_constacyclic_shift(w, f9.one)
    one = ring_constant(f9, [1, 1, 1, 1])
    pair = (sigma, lambda w: skew_constacyclic_shift(w, one))
    assert check_commutation([pair], f9, 4)[0] is None
    half = ring_constant(f9, [1, 1, 1, 0])
    pair = (sigma, lambda w: skew_constacyclic_shift(w, half))
    assert loop_commutation(*pair, f9, 4, 200) is not None
    # the wrapped entry 3 is scaled by 0 in component 3 only
    assert check_commutation([pair], f9, 4)[0] == basis_word(f9, 4, 3, 3, 0)


def test_outputs_of_different_shapes_differ_on_the_first_trial(f9):
    """Outputs of different lengths or entry kinds differ on every basis
    word, so the first one is returned."""
    first = basis_word(f9, 3, 0, 0, 0)
    assert check_commutation([(lambda w: w, gray_map)], f9, 3)[0] == first
    assert check_commutation([(lambda w: w, lambda w: w[1:])], f9, 3)[0] == first


def test_constants_from_another_field_are_refused(f9, f25):
    alpha = ring_constant(f25, [1, 2, 3, 4])
    with pytest.raises(MixedRingsError):
        check_commutation([tau_omega4(alpha)], f9, 3)[0]


# --- the premise: every word map of an identity is additive ---

def unfixed_constant(spec):
    """A unit of R that the twist moves, unless the twist is the identity."""
    xi = spec.from_int(spec.p if spec.m > 1 else 2)
    alpha = RingElement.from_crt(spec, xi, 1, xi, xi * xi)
    assert spec.k == 1 or alpha.frob(1) != alpha
    return alpha


def add_words(x, y):
    return tuple(a + b for a, b in zip(x, y, strict=True))


@pytest.mark.parametrize("name", sorted(CHECK_FIELDS))
def test_identity_word_maps_are_additive(name):
    """lhs(x + y) = lhs(x) + lhs(y), and the same for rhs, on random words:
    the F_p-linearity under which agreement on a basis is agreement on R^n."""
    spec = make_field(*CHECK_FIELDS[name])
    rng = random.Random(name)
    identities = [tau_omega4(ring_one(spec)), tau_omega4(unfixed_constant(spec)), permuted_sigma4(spec)]
    for _ in range(20):
        n = rng.randint(1, 6)
        x, y = (tuple(random_ring_element(spec, rng) for _ in range(n)) for _ in range(2))
        for pair in identities:
            for f in pair:
                assert f(add_words(x, y)) == add_words(f(x), f(y))


# --- the contract: maps that read, add or compare entries raise ---

OUTSIDE_THE_CONTRACT = {
    "sum of entries": lambda w: (w[0] + w[1],),
    "product of entries": lambda w: (w[0] * w[1],),
    "reads is_zero": lambda w: (w[0],) if w[0].is_zero else (w[1],),
    "compares entries": lambda w: (w[0],) if w[0] == w[1] else (w[1],),
    "branches on an entry": lambda w: (w[0],) if w[0] else (w[1],),
    "crt of an F_q entry": lambda w: w[0].crt()[0].crt(),
}


@pytest.mark.parametrize("name", sorted(OUTSIDE_THE_CONTRACT))
def test_word_maps_outside_the_contract_raise(name, f9):
    """Comparing terms is a proof only for maps built from frob, constants,
    crt(), slicing and concatenation; any other map raises instead of
    getting a verdict, on either side."""
    word_map = OUTSIDE_THE_CONTRACT[name]
    for pair in ((word_map, lambda w: w[:1]), (lambda w: w[:1], word_map)):
        with pytest.raises((TypeError, AttributeError)):
            check_commutation([pair], f9, 2)[0]
