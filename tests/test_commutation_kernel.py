"""Tests of the Gray-commutation proof: gray.check_commutation, which
evaluates two word maps on an F_p-basis of R^n in one numpy pass, against
the loop that draws and maps one random word per trial, and of the premise
that makes agreement on the basis a proof: the word maps are additive.

Fields include those of test_kernel.py, whose twists lie strictly between
the identity and the full Frobenius (1 < t < m).
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import random_ring_element, ring_elements
from test_kernel import FIELDS

from skewcodes.codes import skew_constacyclic_shift, skew_cyclic_shift
from skewcodes.errors import MixedRingsError
from skewcodes.gf import make_field
from skewcodes.gray import check_commutation, gray_map, permuted_sigma4, sigma_pi4, tau_omega4
from skewcodes.ring4 import RingElement, idempotents

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


def identity_pair(spec, kind, crt_codes):
    alpha = ring_constant(spec, crt_codes)
    if kind == "sigma_pi4":
        return sigma_pi4()
    if kind == "tau_omega4":
        return tau_omega4(alpha)
    if kind == "permuted_sigma4":
        return permuted_sigma4()
    if kind == "disagreeing":
        return skew_cyclic_shift, lambda w: skew_constacyclic_shift(w, alpha)
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
    st.sampled_from(["sigma_pi4", "tau_omega4", "permuted_sigma4", "disagreeing", "component_twist"]),
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


@pytest.mark.parametrize("n, field", [(1, "F9"), (2, "F3")])
def test_verdict_is_that_of_exhaustive_search(n, field, f3, f9):
    """On every word of R^n, not only on a basis: the proof returns None
    exactly when lhs and rhs agree on all q^(4n) words."""
    spec = {"F3": f3, "F9": f9}[field]
    words = list(itertools.product(ring_elements(spec), repeat=n))
    for kind in ("sigma_pi4", "tau_omega4", "permuted_sigma4", "disagreeing", "component_twist"):
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


def test_constacyclic_shift_agrees_with_the_cyclic_one_only_for_one(f9):
    one = ring_constant(f9, [1, 1, 1, 1])
    pair = (skew_cyclic_shift, lambda w: skew_constacyclic_shift(w, one))
    assert check_commutation(*pair, f9, 4) is None
    half = ring_constant(f9, [1, 1, 1, 0])
    pair = (skew_cyclic_shift, lambda w: skew_constacyclic_shift(w, half))
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
    identities = [sigma_pi4(), tau_omega4(unfixed_constant(spec)), permuted_sigma4()]
    for _ in range(20):
        n = rng.randint(1, 6)
        x, y = (tuple(random_ring_element(spec, rng) for _ in range(n)) for _ in range(2))
        for pair in identities:
            for f in pair:
                assert f(add_words(x, y)) == add_words(f(x), f(y))
