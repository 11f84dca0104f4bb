"""The Gray map from R^n to F_q^{4n}, its permuted variant, and Lee weight.

gray_map lays the four CRT component words out block by block:
    (a_1..a_n | (a+b)_1..n | (a+c)_1..n | (a+b+c+d)_1..n).
gray_permuted interleaves instead, emitting the 4-tuple of coordinate i at
positions 4i..4i+3. Both are F_q-linear bijections, and Hamming weight of
the image equals Lee weight of the preimage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .codes import (
    SkewCode,
    blockwise_constacyclic_shift,
    blockwise_cyclic_shift,
    skew_constacyclic_shift,
    skew_cyclic_shift,
)
from .errors import LengthMismatchError, VerificationError
from .gf import FieldSpec
from .linalg import Span
from .ring4 import RingElement, random_ring_element, split_word


def gray_map(word):
    """Concatenated CRT component blocks of an R-word."""
    return sum(split_word(word), ())


def gray_inverse(vec, spec: FieldSpec):
    vec = tuple(vec)
    if len(vec) % 4 != 0:
        raise LengthMismatchError("image length must be a multiple of 4")
    n = len(vec) // 4
    return tuple(
        RingElement.from_crt(spec, vec[i], vec[n + i], vec[2 * n + i], vec[3 * n + i])
        for i in range(n)
    )


def gray_permuted(word):
    """Interleaved variant: coordinate i occupies positions 4i..4i+3."""
    out = []
    for entry in word:
        out.extend(entry.crt())
    return tuple(out)


def interleave_permutation(n: int):
    """Positions p with gray_permuted(w)[i] = gray_map(w)[p[i]]."""
    return [(i % 4) * n + i // 4 for i in range(4 * n)]


def lee_weight(x) -> int:
    """Number of nonzero CRT components; extended additively to words."""
    if isinstance(x, RingElement):
        return sum(0 if c.is_zero else 1 for c in x.crt())
    return sum(lee_weight(entry) for entry in x)


def hamming_weight(word) -> int:
    return sum(0 if c.is_zero else 1 for c in word)


@dataclass(frozen=True)
class GrayImage:
    """F_q generator matrix of the Gray image of an R-code."""

    field: FieldSpec
    length: int
    rows: tuple

    @property
    def dimension(self) -> int:
        return len(self.rows)


def gray_image_code(code: SkewCode) -> GrayImage:
    rows = tuple(gray_map(w) for w in code.basis_words())
    image = GrayImage(code.field, 4 * code.n, rows)
    if rows and Span(rows).dim != len(rows):
        raise VerificationError("Gray images of the basis words are dependent")
    return image


def sigma_pi4():
    """gray(sigma(w)) = pi_4(gray(w)): the Gray image of a skew cyclic code
    is closed under the skew cyclic shift of each of its four blocks."""
    return (
        lambda w: gray_map(skew_cyclic_shift(w)),
        lambda w: blockwise_cyclic_shift(gray_map(w), 4),
    )


def tau_omega4(alpha: RingElement):
    """gray(tau_alpha(w)) = omega_4(gray(w)), where block i of omega_4 is the
    skew constacyclic shift by the i-th CRT component of alpha."""
    constants = alpha.crt()
    return (
        lambda w: gray_map(skew_constacyclic_shift(w, alpha)),
        lambda w: blockwise_constacyclic_shift(gray_map(w), constants),
    )


def permuted_sigma4():
    """gray_permuted(sigma(w)) = sigma^4(gray_permuted(w)), which holds when
    the twist has order 3."""

    def sigma4(v):
        for _ in range(4):
            v = skew_cyclic_shift(v)
        return v

    return (
        lambda w: gray_permuted(skew_cyclic_shift(w)),
        lambda w: sigma4(gray_permuted(w)),
    )


def check_commutation(lhs, rhs, field: FieldSpec, n: int, trials: int, seed: int = 0):
    """The first of `trials` random R-words w of length n with
    lhs(w) != rhs(w), or None when the two word maps agree on all of them."""
    rng = random.Random(seed)
    for _ in range(trials):
        w = tuple(random_ring_element(field, rng) for _ in range(n))
        if lhs(w) != rhs(w):
            return w
    return None
