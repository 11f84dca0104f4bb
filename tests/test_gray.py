import random

import pytest
from reference import Span, gray_inverse, hamming_weight, interleave_permutation, random_ring_element

from skewcodes.catalog import example_code
from skewcodes.codes import build_code
from skewcodes.errors import MixedRingsError
from skewcodes.gray import (
    check_commutation,
    gray_image_code,
    gray_map,
    gray_permuted,
    lee_weight,
    permuted_sigma4,
    tau_omega4,
)
from skewcodes.ring4 import RingElement, ring_one, ring_zero
from skewcodes.skewpoly import blockwise_constacyclic_shift, skew_constacyclic_shift


def test_gray_of_zero(f9):
    w = tuple(ring_zero(f9) for _ in range(3))
    assert all(c.is_zero for c in gray_map(w))


def test_gray_formula_single_coordinate(f3):
    r = RingElement.from_ints(f3, 1, 1, 0, 0)  # 1 + u
    assert [c.to_int() for c in gray_map((r,))] == [1, 2, 1, 2]


def test_gray_permuted_two_coordinates(f3):
    u = RingElement.from_ints(f3, 0, 1, 0, 0)
    v = RingElement.from_ints(f3, 0, 0, 1, 0)
    assert [c.to_int() for c in gray_permuted((u, v))] == [0, 1, 0, 1, 0, 0, 1, 1]


def test_gray_permuted_is_a_fixed_permutation_of_gray(f9):
    rng = random.Random(2)
    for n in (1, 2, 5):
        perm = interleave_permutation(n)
        for _ in range(20):
            w = tuple(random_ring_element(f9, rng) for _ in range(n))
            img = gray_map(w)
            assert gray_permuted(w) == tuple(img[p] for p in perm)


def test_gray_is_linear_and_bijective(f9, f25):
    rng = random.Random(12)
    for spec in (f9, f25):
        for _ in range(200):
            n = rng.randint(1, 6)
            x = tuple(random_ring_element(spec, rng) for _ in range(n))
            y = tuple(random_ring_element(spec, rng) for _ in range(n))
            lam = spec.random_element(rng)
            lifted = tuple(a + RingElement.from_field(lam) * b for a, b in zip(x, y))
            expected = tuple(a + lam * b for a, b in zip(gray_map(x), gray_map(y)))
            assert gray_map(lifted) == expected
            assert gray_inverse(gray_map(x), spec) == x


def test_lee_weight_examples(f9):
    assert lee_weight(ring_zero(f9)) == 0
    assert lee_weight(RingElement.from_ints(f9, 0, 1, 0, 0)) == 2
    assert lee_weight(ring_one(f9)) == 4


def test_gray_map_refuses_a_word_over_fq(f9):
    with pytest.raises(MixedRingsError):
        gray_map((f9.one, f9.from_int(3)))
    with pytest.raises(MixedRingsError):  # an entry in F_q among entries in R
        gray_map((ring_one(f9), f9.one))


def test_gray_permuted_refuses_a_word_over_fq(f9):
    with pytest.raises(MixedRingsError):
        gray_permuted((f9.one, f9.from_int(3)))


def test_lee_weight_refuses_elements_and_words_over_fq(f9):
    with pytest.raises(MixedRingsError):
        lee_weight(f9.one)
    with pytest.raises(MixedRingsError):
        lee_weight((ring_one(f9), f9.from_int(3)))


def test_gray_is_lee_to_hamming_isometry(f9, f25):
    rng = random.Random(13)
    for spec in (f9, f25):
        for _ in range(1000):
            n = rng.randint(1, 5)
            w = tuple(random_ring_element(spec, rng) for _ in range(n))
            assert hamming_weight(gray_map(w)) == lee_weight(w)


def test_gray_preserves_pairwise_distance(f9):
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(1, 5)
        x = tuple(random_ring_element(f9, rng) for _ in range(n))
        y = tuple(random_ring_element(f9, rng) for _ in range(n))
        lee_dist = lee_weight(tuple(a - b for a, b in zip(x, y)))
        ham_dist = sum(
            1 for a, b in zip(gray_map(x), gray_map(y)) if not (a - b).is_zero
        )
        assert lee_dist == ham_dist


def test_gray_image_parameters():
    img1 = gray_image_code(example_code(1))
    assert (img1.length, img1.dimension) == (16, 12)
    img2 = gray_image_code(example_code(2))
    assert (img2.length, img2.dimension) == (24, 9)


def test_gray_image_of_zero_code(f9):
    from skewcodes.skewpoly import ModulusSpec

    gens = [ModulusSpec(3, c).poly() for c in ring_one(f9).crt()]
    code = build_code(f9, 3, ring_one(f9), gens)
    img = gray_image_code(code)
    assert img.dimension == 0
    assert img.rows == ()


def test_commutation_sigma_pi4(f9):
    """sigma is tau_1 and pi_4 is omega_4 with unit constants."""
    assert check_commutation([tau_omega4(ring_one(f9))], f9, 3)[0] is None


def test_commutation_tau_omega4(f25, f9):
    assert check_commutation([tau_omega4(-ring_one(f25))], f25, 4)[0] is None
    mixed = RingElement.from_ints(f9, 1, 0, 0, -2)
    assert check_commutation([tau_omega4(mixed)], f9, 6)[0] is None


def test_commutation_permuted_sigma4(f27):
    assert check_commutation([permuted_sigma4(f27)], f27, 5)[0] is None


def test_permuted_identity_needs_order_three(f9, f25):
    """With a twist of order 2 the interleaved identity fails, and the
    returned word is a counterexample."""
    for field in (f9, f25):
        lhs, rhs = permuted_sigma4(field)
        w = check_commutation([(lhs, rhs)], field, 4)[0]
        assert w is not None and len(w) == 4
        assert lhs(w) != rhs(w)


def test_commutation_returns_the_first_counterexample(f9):
    """A pair of word maps that differ on the first basis word gives back
    basis word (0, 0, 0): CRT component 0 of entry 0 equal to 1."""
    first = (RingElement.from_crt(f9, 1, 0, 0, 0), ring_zero(f9), ring_zero(f9))
    sigma = lambda w: skew_constacyclic_shift(w, ring_one(f9))
    assert sigma(first) != first
    assert check_commutation([(lambda w: w, sigma)], f9, 3)[0] == first
    assert check_commutation([(lambda w: w, lambda w: w)], f9, 3)[0] is None


def test_image_closed_under_block_shift():
    """Skew closure of the code transfers to its Gray image."""
    code = example_code(1)
    img = gray_image_code(code)
    span = Span(img.rows)
    for row in img.rows:
        assert span.contains(blockwise_constacyclic_shift(row, (img.field.one,) * 4))
    code3 = example_code(3)
    img3 = gray_image_code(code3)
    span3 = Span(img3.rows)
    for row in img3.rows:
        assert span3.contains(blockwise_constacyclic_shift(row, code3.alpha.crt()))


def test_permuted_image_closed_under_fourfold_shift(f27):
    """Order-3 twist: the interleaved image of a skew cyclic code is closed
    under four applications of the skew cyclic shift."""
    from skewcodes.ring4 import ring_one
    from skewcodes.skewpoly import fq_poly

    code = build_code(f27, 5, ring_one(f27), [fq_poly(f27, [-1, 1])] * 4)
    rows = [gray_permuted(w) for w in code.basis_words()]
    span = Span(rows)
    for row in rows:
        image = row
        for _ in range(4):
            image = skew_constacyclic_shift(image, f27.one)
        assert span.contains(image)


def test_gray_intertwines_shifts_on_words(f9):
    rng = random.Random(23)
    alphas = (ring_one(f9), RingElement.from_ints(f9, 1, 0, 0, -2))
    for _ in range(100):
        w = tuple(random_ring_element(f9, rng) for _ in range(4))
        for alpha in alphas:
            assert gray_map(skew_constacyclic_shift(w, alpha)) == blockwise_constacyclic_shift(
                gray_map(w), alpha.crt()
            )
