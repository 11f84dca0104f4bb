"""The Gray map from R^n to F_q^{4n}, its permuted variant, and Lee weight.

gray_map lays the four CRT component words out block by block:
    (a_1..a_n | (a+b)_1..n | (a+c)_1..n | (a+b+c+d)_1..n).
gray_permuted interleaves instead, emitting the 4-tuple of coordinate i at
positions 4i..4i+3. Both are F_q-linear bijections, and Hamming weight of
the image equals Lee weight of the preimage.

check_commutation proves an identity lhs = rhs of word maps on all of R^n
by running both once on a symbolic word and comparing monomial terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import SkewCode
from .errors import MixedRingsError
from .gf import FieldElement, FieldSpec
from .ring4 import RingElement, join_word, split_word
from .skewpoly import blockwise_constacyclic_shift, skew_constacyclic_shift


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


def tau_omega4(alpha: RingElement):
    """gray(tau_alpha(w)) = omega_4(gray(w)), where block i of omega_4 is the
    skew constacyclic shift by the i-th CRT component of alpha. With
    alpha = 1 it is gray(sigma(w)) = pi_4(gray(w)): the Gray image of a skew
    cyclic code is closed under the skew cyclic shift of each of its four
    blocks."""
    constants = alpha.crt()
    return (
        lambda w: gray_map(skew_constacyclic_shift(w, alpha)),
        lambda w: blockwise_constacyclic_shift(gray_map(w), constants),
    )


def permuted_sigma4(field: FieldSpec):
    """gray_permuted(sigma(w)) = sigma^4(gray_permuted(w)) over `field`,
    which holds when the twist has order 1 or 3 (theta^4 = theta). sigma is
    tau with the 1 of F_q, on words over R and over F_q alike."""
    sigma = lambda v: skew_constacyclic_shift(v, field.one)

    def sigma4(v):
        for _ in range(4):
            v = sigma(v)
        return v

    return (
        lambda w: gray_permuted(sigma(w)),
        lambda w: sigma4(gray_permuted(w)),
    )


class _Column:
    """Entry i of a symbolic word: each CRT place (four in R, one in F_q) is
    0 (None) or the map x -> theta^e(a * x_s) (term (s, a)) of an input word
    x, with x_s its CRT component s % 4 of entry s // 4; the places share e
    mod k. frob adds to e; a constant b on the left (whose __mul__ returns
    NotImplemented for a column) multiplies each a by theta^-e(b); crt
    splits. Reading, adding, comparing or branching on an entry raises.
    """

    __slots__ = ("spec", "terms", "e")
    __bool__ = __eq__ = None

    def __init__(self, spec: FieldSpec, terms, e: int = 0):
        self.spec = spec
        self.terms = terms
        self.e = e

    def frob(self, i: int = 1) -> "_Column":
        return _Column(self.spec, self.terms, (self.e + i) % self.spec.k)

    def __rmul__(self, const):
        if not isinstance(const, (FieldElement, RingElement)):
            return NotImplemented
        if const.spec != self.spec:
            raise MixedRingsError("constant and word over different fields")
        factors = const.crt() if isinstance(const, RingElement) else (const,) * len(self.terms)
        # an R constant times an entry in F_q is in R: its one place repeats
        terms = self.terms * (len(factors) // len(self.terms))
        scaled = tuple([
            None if t is None or b.is_zero else (t[0], b.frob(-self.e) * t[1])
            for t, b in zip(terms, factors)
        ])
        return _Column(self.spec, scaled, self.e)

    def crt(self):
        if len(self.terms) != 4:
            raise TypeError("an entry in F_q has no CRT components")
        return tuple([_Column(self.spec, (t,), self.e) for t in self.terms])


def check_commutation(lhs, rhs, field: FieldSpec, n: int):
    """The first word w of an F_p-basis of R^n with lhs(w) != rhs(w), or
    None when lhs and rhs agree on all of R^n.

    The basis is the 4nm words with one nonzero CRT component, component c
    of entry i equal to xi^j (code p^j), ordered by (i, c, j). lhs and rhs,
    built from frob, multiplication by a constant, crt() and tuple slicing
    or concatenation, run once on the word of n _Columns with place s
    x -> x_s, so each output place is 0 or theta^e(a * x_s). By Artin's
    lemma on the independence of the characters theta^e of F_q^*, two such
    monomials agree on all inputs iff their (s, a, e mod k) are equal. So
    equal terms prove lhs = rhs; on a mismatch lhs and rhs run on the basis
    words in order, and, being F_p-linear, agree on R^n if they agree there.
    Outputs of different lengths or entry kinds differ on every basis word.
    """
    word = tuple(_Column(field, tuple((s, field.one) for s in range(4 * i, 4 * i + 4))) for i in range(n))
    left, right = lhs(word), rhs(word)
    basis = (  # word (s, j): CRT component s % 4 of entry s // 4 is xi^j
        join_word([xi_j if 4 * i + c == s else field.zero for i in range(n)] for c in range(4))
        for s in range(4 * n)
        for xi_j in (field.from_int(field.p ** j) for j in range(field.m))
    )
    if [len(x.terms) for x in left] != [len(y.terms) for y in right]:
        return next(basis)
    if all(x.e == y.e and x.terms == y.terms for x, y in zip(left, right)):
        return None
    return next((w for w in basis if lhs(w) != rhs(w)), None)
