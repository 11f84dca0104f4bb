"""The Gray map from R^n to F_q^{4n}, its permuted variant, and Lee weight.

gray_map lays the four CRT component words out block by block:
    (a_1..a_n | (a+b)_1..n | (a+c)_1..n | (a+b+c+d)_1..n).
gray_permuted interleaves instead, emitting the 4-tuple of coordinate i at
positions 4i..4i+3. Both are F_q-linear bijections, and Hamming weight of
the image equals Lee weight of the preimage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import (
    SkewCode,
    blockwise_constacyclic_shift,
    blockwise_cyclic_shift,
    skew_constacyclic_shift,
    skew_cyclic_shift,
)
from .errors import MixedRingsError
from .gf import FieldElement, FieldSpec
from .ring4 import RingElement, join_word, split_word


def gray_map(word):
    """Concatenated CRT component blocks of an R-word."""
    return sum(split_word(word), ())


def gray_permuted(word):
    """Interleaved variant: coordinate i occupies positions 4i..4i+3."""
    out = []
    for entry in word:
        out.extend(entry.crt())
    return tuple(out)


def lee_weight(x) -> int:
    """Number of nonzero CRT components; extended additively to words."""
    if isinstance(x, RingElement):
        return sum(0 if c.is_zero else 1 for c in x.crt())
    return sum(lee_weight(entry) for entry in x)


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
    """Gray images of code.basis_words(), independent by construction: the
    image of e_i * x^j * g_i lies in block i, and within a block the rows
    have distinct leading positions."""
    rows = tuple(gray_map(w) for w in code.basis_words())
    return GrayImage(code.field, 4 * code.n, rows)


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


class _Column:
    """Entry i of every basis word of a check, as logarithms on
    gf.FieldArrays: a (4, T) array of CRT components for an entry in R, a
    (T,) array for an entry in F_q.

    It has only what the word maps use: frob, left multiplication by a
    FieldElement or RingElement constant (whose __mul__ returns
    NotImplemented for a column) and crt.
    """

    __slots__ = ("spec", "logs")

    def __init__(self, spec: FieldSpec, logs):
        self.spec = spec
        self.logs = logs

    def frob(self, i: int = 1) -> "_Column":
        logs, frob = self.logs, self.spec.arrays().frob
        for _ in range(i % self.spec.k):
            logs = frob[logs]
        return _Column(self.spec, logs)

    def __rmul__(self, const):
        if not isinstance(const, (FieldElement, RingElement)):
            return NotImplemented
        if const.spec != self.spec:
            raise MixedRingsError("constant and word over different fields")
        arrays = self.spec.arrays()
        if isinstance(const, RingElement):
            logs = arrays.log[[c.code for c in const.crt()]][:, None]
        else:
            logs = arrays.log[const.code]
        return _Column(self.spec, arrays.wrap[self.logs + logs])

    def crt(self):
        return tuple(_Column(self.spec, logs) for logs in self.logs)


def _differing(left, right, count: int):
    """For each of `count` basis words, whether the word-map outputs left and
    right (tuples of _Columns) differ there. Outputs of different shapes
    differ on every basis word."""
    if len(left) != len(right) or any(x.logs.shape != y.logs.shape for x, y in zip(left, right)):
        return np.ones(count, dtype=bool)
    stacked = lambda out: np.concatenate([x.logs.reshape(-1, count) for x in out])
    return (stacked(left) != stacked(right)).any(axis=0)


def check_commutation(lhs, rhs, field: FieldSpec, n: int):
    """The first word w of an F_p-basis of R^n with lhs(w) != rhs(w), or
    None when lhs and rhs agree on all of R^n.

    lhs and rhs each run once, on a word of n _Columns that holds every
    basis word, so they must be built from frob, multiplication by a
    constant, crt() and tuple slicing or concatenation. Each of these is
    F_p-linear, so lhs - rhs vanishes on R^n iff it vanishes on the basis.
    The basis is the 4nm words with one nonzero CRT component, component c
    of entry i equal to xi^j (code p^j), ordered by (i, c, j).
    """
    count = 4 * n * field.m
    t = np.arange(count)
    codes = np.zeros((count, 4 * n), dtype=np.int64)
    codes[t, t // field.m] = field.p ** (t % field.m)
    word = tuple(_Column(field, logs) for logs in field.arrays().log[codes.T.reshape(n, 4, count)])
    differ = _differing(lhs(word), rhs(word), count)
    if not differ.any():
        return None
    witness = codes[differ.argmax()].reshape(n, 4).T
    return join_word([field.from_int(int(x)) for x in part] for part in witness)
