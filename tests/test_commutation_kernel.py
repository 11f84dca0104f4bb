"""Tests of the batched Gray-commutation check: the bulk draw of element codes
(ring4._random_codes) against successive random_ring_element calls, and
gray.check_commutation against the loop it replaced, which draws and maps
one word per trial.

Fields include those of test_kernel.py, whose twists lie strictly between
the identity and the full Frobenius (1 < t < m).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel import FIELDS

from skewcodes.codes import skew_constacyclic_shift, skew_cyclic_shift
from skewcodes.errors import MixedRingsError
from skewcodes.gf import make_field
from skewcodes.gray import check_commutation, gray_map, permuted_sigma4, sigma_pi4, tau_omega4
from skewcodes.ring4 import RingElement, _random_codes, idempotents, random_ring_element

CHECK_FIELDS = {
    "F9": (3, 2, [1, 0, 1], 1),
    "F25": (5, 2, [1, 1, 1], 1),
    "F27": (3, 3, [1, 2, 0, 1], 1),
    **FIELDS,
}
DRAW_FIELDS = {
    "F3": (3, 1, [0, 1], 1),  # 1 of 4 outputs rejected
    "F49": (7, 2, [3, 6, 1], 1),
    "F3^11": (3, 11, [2, 1, 2, 1, 1, 1, 2, 2, 2, 2, 0, 1], 1),  # q = MAX_Q, 32% rejected
    **CHECK_FIELDS,
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


def standard_codes(r):
    return [x.code for x in (r.a, r.b, r.c, r.d)]


def ring_constant(spec, codes):
    return RingElement.from_crt(spec, *(spec.from_int(c) for c in codes))


def twist_of_component(spec, i):
    """A pair of word maps that differ exactly where CRT component i of w_0
    is not fixed by the twist: over F9, on 2 of every 3 trials."""
    e = idempotents(spec)[i]
    return (lambda w: (e * w[0],), lambda w: (e * w[0].frob(1),))


@pytest.mark.parametrize("name", sorted(DRAW_FIELDS))
def test_bulk_draw_is_the_per_call_stream(name):
    spec = make_field(*DRAW_FIELDS[name])
    sizes = random.Random(name)
    for seed in range(30):
        words = sizes.choice([1, 2, 7, 60, 600])
        ref = random.Random(seed)
        expected = [c for _ in range(words) for c in standard_codes(random_ring_element(spec, ref))]
        rng, spare, drawn = random.Random(seed), (), []
        while len(drawn) < len(expected):
            count = min(sizes.randint(1, 4 * words), len(expected) - len(drawn))
            codes, spare = _random_codes(spec.q, rng, count, spare)
            assert len(codes) == count
            drawn.extend(codes.tolist())
        assert drawn == expected


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
    spec = make_field(*CHECK_FIELDS[name])
    # CRT components of alpha; a zero component makes it a non-unit
    crt_codes = data.draw(st.lists(st.integers(0, spec.q - 1), min_size=4, max_size=4))
    lhs, rhs = identity_pair(spec, kind, crt_codes)
    found = loop_commutation(lhs, rhs, spec, n, trials, seed)
    assert check_commutation(lhs, rhs, spec, n, trials, seed) == (found and found[1])
    if kind in ("sigma_pi4", "tau_omega4") or (kind == "permuted_sigma4" and spec.k == 3):
        assert found is None


def test_constacyclic_shift_agrees_with_the_cyclic_one_only_for_one(f9):
    one = ring_constant(f9, [1, 1, 1, 1])
    pair = (skew_cyclic_shift, lambda w: skew_constacyclic_shift(w, one))
    assert check_commutation(*pair, f9, 4, 200) is None
    half = ring_constant(f9, [1, 1, 1, 0])
    pair = (skew_cyclic_shift, lambda w: skew_constacyclic_shift(w, half))
    assert check_commutation(*pair, f9, 4, 200) == loop_commutation(*pair, f9, 4, 200)[1]


@pytest.mark.parametrize("chunk", [1, 2, 4])
def test_draws_carry_over_between_chunks(chunk, monkeypatch):
    """Trials span several chunks: a counterexample in a later chunk is the
    loop's, and identities that hold still give None."""
    f9 = make_field(*CHECK_FIELDS["F9"])
    f27t1 = make_field(*CHECK_FIELDS["F27"])
    pair = twist_of_component(f9, 3)
    trials = 3 * chunk + 2
    expected = {}
    for seed in range(2000):
        found = loop_commutation(*pair, f9, 1, trials, seed)
        if found is not None and found[0] >= chunk:
            expected[seed] = found[1]
        if len(expected) == 4:
            break
    assert len(expected) == 4
    monkeypatch.setattr("skewcodes.gray._CHUNK", chunk)
    for seed, word in expected.items():
        assert check_commutation(*pair, f9, 1, trials, seed) == word
    assert check_commutation(*sigma_pi4(), f9, 3, trials, seed=1) is None
    assert check_commutation(*permuted_sigma4(), f27t1, 5, trials, seed=2) is None


def test_outputs_of_different_shapes_differ_on_the_first_trial(f9):
    rng = random.Random(8)
    first = tuple(random_ring_element(f9, rng) for _ in range(3))
    assert check_commutation(lambda w: w, gray_map, f9, 3, 5, seed=8) == first
    assert check_commutation(lambda w: w, lambda w: w[1:], f9, 3, 5, seed=8) == first


def test_constants_from_another_field_are_refused(f9, f25):
    alpha = ring_constant(f25, [1, 2, 3, 4])
    with pytest.raises(MixedRingsError):
        check_commutation(*tau_omega4(alpha), f9, 3, 5)
