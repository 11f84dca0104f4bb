"""Tests of the Gray-commutation proof: gray.check_commutation, which runs
two word maps once on a symbolic word and compares the monomial terms of
their outputs, against the reference that evaluates them on every basis
word in one numpy pass (reference.basis_commutation) and against the loop
that draws and maps one random word per trial; of the premise that makes
agreement on the basis a proof, that the word maps are additive; and of
the contract that makes comparing terms one: a map that does anything
but frob, scale, crt, slice and concatenate its entries raises.

Fields include those of test_kernel.py, whose twists lie strictly between
the identity and the full Frobenius (1 < t < m).
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import basis_commutation, random_ring_element, ring_elements
from test_kernel import FIELDS

from skewcodes.errors import MixedRingsError
from skewcodes.gf import make_field
from skewcodes.gray import check_commutation, gray_map, permuted_sigma4, tau_omega4
from skewcodes.ring4 import RingElement, idempotents, ring_one
from skewcodes.skewpoly import skew_constacyclic_shift

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
    proved = check_commutation(lhs, rhs, spec, n)
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
    assert check_commutation(lhs, rhs, spec, n) == basis_commutation(lhs, rhs, spec, n)
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
    proved = check_commutation(lhs, rhs, spec, n)
    assert proved == basis_commutation(lhs, rhs, spec, n)
    assert proved is None or lhs(proved) != rhs(proved)


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
        assert check_commutation(counted(lhs), counted(rhs), spec, 5) is None
        assert len(runs) == 2


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
            assert (check_commutation(lhs, rhs, spec, n) is None) == agree


def test_the_first_differing_basis_word_is_returned(f9):
    """Basis words are ordered by entry, then CRT component, then j."""
    # only xi^1 in component 2 of entry 1 is moved by the twist there
    pair = (lambda w: (idempotents(f9)[2] * w[1],), lambda w: (idempotents(f9)[2] * w[1].frob(1),))
    assert check_commutation(*pair, f9, 3) == basis_word(f9, 3, 1, 2, 1)
    pair = (lambda w: (w[2],), lambda w: (f9.constant(2) * w[2],))
    assert check_commutation(*pair, f9, 3) == basis_word(f9, 3, 2, 0, 0)


def test_scaling_before_and_after_the_twist_differ_by_the_twist(f9):
    """b * theta(x) = theta(theta^-1(b) * x): the two orders agree only
    when the twist fixes b, here only in CRT component 0."""
    xi = f9.from_int(3)
    b = RingElement.from_crt(f9, 1, xi, xi, xi)
    c = RingElement.from_crt(f9, 1, *[xi.frob(-1)] * 3)
    twisted_first = lambda const: lambda w: (const * w[1].frob(1),)
    scaled_first = lambda w: ((b * w[1]).frob(1),)
    assert check_commutation(twisted_first(c), scaled_first, f9, 2) is None
    assert check_commutation(twisted_first(b), scaled_first, f9, 2) == basis_word(f9, 2, 1, 1, 0)


def test_constacyclic_shift_agrees_with_the_cyclic_one_only_for_one(f9):
    """sigma is tau with the unit of F_q, which scales an R-word as the unit
    of R does; a constant with a zero CRT component gives another shift."""
    sigma = lambda w: skew_constacyclic_shift(w, f9.one)
    one = ring_constant(f9, [1, 1, 1, 1])
    pair = (sigma, lambda w: skew_constacyclic_shift(w, one))
    assert check_commutation(*pair, f9, 4) is None
    half = ring_constant(f9, [1, 1, 1, 0])
    pair = (sigma, lambda w: skew_constacyclic_shift(w, half))
    assert loop_commutation(*pair, f9, 4, 200) is not None
    # the wrapped entry 3 is scaled by 0 in component 3 only
    assert check_commutation(*pair, f9, 4) == basis_word(f9, 4, 3, 3, 0)


def test_outputs_of_different_shapes_differ_on_the_first_trial(f9):
    """Outputs of different lengths or entry kinds differ on every basis
    word, so the first one is returned."""
    first = basis_word(f9, 3, 0, 0, 0)
    assert check_commutation(lambda w: w, gray_map, f9, 3) == first
    assert check_commutation(lambda w: w, lambda w: w[1:], f9, 3) == first


def test_constants_from_another_field_are_refused(f9, f25):
    alpha = ring_constant(f25, [1, 2, 3, 4])
    with pytest.raises(MixedRingsError):
        check_commutation(*tau_omega4(alpha), f9, 3)


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
            check_commutation(*pair, f9, 2)
