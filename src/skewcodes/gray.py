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
from .errors import HypothesisViolatedError, LengthMismatchError, VerificationError
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
    if rows and Span(rows, 4 * code.n, code.field).dim != len(rows):
        raise VerificationError("Gray images of the basis words are dependent")
    return image


@dataclass(frozen=True)
class CommutationReport:
    identity: str
    trials: int
    passed: bool
    counterexample: tuple | None


def check_commutation(
    which: str,
    field: FieldSpec,
    n: int,
    trials: int,
    seed: int = 0,
    alpha: RingElement | None = None,
) -> CommutationReport:
    """Assert one of the Gray/shift operator identities on random words.

    which: 'sigma_pi4'       gray(sigma(w)) = pi_4(gray(w))
           'tau_omega4'      gray(tau_alpha(w)) = omega_4(gray(w))
           'permuted_sigma4' gray_permuted(sigma(w)) = sigma^4(gray_permuted(w)),
                             defined only when the twist has order 3
    """
    rng = random.Random(seed)
    if which == "permuted_sigma4" and field.k != 3:
        raise HypothesisViolatedError(f"identity needs automorphism order 3, field has {field.k}")
    if which == "tau_omega4" and alpha is None:
        raise HypothesisViolatedError("tau_omega4 requires a shift constant")
    for _ in range(trials):
        w = tuple(random_ring_element(field, rng) for _ in range(n))
        if which == "sigma_pi4":
            lhs = gray_map(skew_cyclic_shift(w))
            rhs = blockwise_cyclic_shift(gray_map(w), 4)
        elif which == "tau_omega4":
            lhs = gray_map(skew_constacyclic_shift(w, alpha))
            rhs = blockwise_constacyclic_shift(gray_map(w), 4, alpha)
        elif which == "permuted_sigma4":
            lhs = gray_permuted(skew_cyclic_shift(w))
            rhs = gray_permuted(w)
            for _ in range(4):
                rhs = skew_cyclic_shift(rhs)
        else:
            raise ValueError(f"unknown identity {which!r}")
        if lhs != rhs:
            return CommutationReport(which, trials, False, w)
    return CommutationReport(which, trials, True, None)
