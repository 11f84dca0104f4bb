import random

import pytest

from skewcodes.catalog import get_example
from skewcodes.codes import (
    blockwise_constacyclic_shift,
    blockwise_cyclic_shift,
    build_code,
    skew_constacyclic_shift,
    skew_cyclic_shift,
)
from skewcodes.errors import HypothesisViolatedError
from skewcodes.gray import (
    check_commutation,
    gray_image_code,
    gray_inverse,
    gray_map,
    gray_permuted,
    hamming_weight,
    interleave_permutation,
    lee_weight,
)
from skewcodes.linalg import Span
from skewcodes.ring4 import RingElement, random_ring_element, ring_one, ring_zero


def example_code(num):
    ex = get_example(num)
    return build_code(ex["field"], ex["n"], ex["alpha"], ex["gens"])


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
    report = check_commutation("sigma_pi4", f9, 3, 1000, seed=17)
    assert report.passed
    assert report.counterexample is None


def test_commutation_tau_omega4(f25, f9):
    rep = check_commutation("tau_omega4", f25, 4, 1000, seed=18, alpha=-ring_one(f25))
    assert rep.passed
    mixed = RingElement.from_ints(f9, 1, 0, 0, -2)
    rep = check_commutation("tau_omega4", f9, 6, 1000, seed=19, alpha=mixed)
    assert rep.passed


def test_commutation_permuted_sigma4(f27):
    rep = check_commutation("permuted_sigma4", f27, 5, 1000, seed=20)
    assert rep.passed


def test_permuted_identity_needs_order_three(f9):
    with pytest.raises(HypothesisViolatedError):
        check_commutation("permuted_sigma4", f9, 4, 10)


def test_image_closed_under_block_shift():
    """Skew closure of the code transfers to its Gray image."""
    code = example_code(1)
    img = gray_image_code(code)
    span = Span(img.rows, img.length, code.field)
    for row in img.rows:
        assert span.contains(blockwise_cyclic_shift(row, 4))
    code3 = example_code(3)
    img3 = gray_image_code(code3)
    span3 = Span(img3.rows, img3.length, code3.field)
    for row in img3.rows:
        assert span3.contains(blockwise_constacyclic_shift(row, 4, code3.alpha))


def test_permuted_image_closed_under_fourfold_shift(f27):
    """Order-3 twist: the interleaved image of a skew cyclic code is closed
    under four applications of the skew cyclic shift."""
    from skewcodes.ring4 import ring_one
    from skewcodes.skewpoly import fq_poly

    code = build_code(f27, 5, ring_one(f27), [fq_poly(f27, [-1, 1])] * 4)
    rows = [gray_permuted(w) for w in code.basis_words()]
    span = Span(rows, 20, f27)
    for row in rows:
        image = row
        for _ in range(4):
            image = skew_cyclic_shift(image)
        assert span.contains(image)


def test_gray_intertwines_shifts_on_words(f9):
    rng = random.Random(23)
    alpha = RingElement.from_ints(f9, 1, 0, 0, -2)
    for _ in range(100):
        w = tuple(random_ring_element(f9, rng) for _ in range(4))
        assert gray_map(skew_cyclic_shift(w)) == blockwise_cyclic_shift(gray_map(w), 4)
        assert gray_map(skew_constacyclic_shift(w, alpha)) == blockwise_constacyclic_shift(
            gray_map(w), 4, alpha
        )
