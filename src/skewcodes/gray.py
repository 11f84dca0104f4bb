"""The Gray map from R^n to F_q^{4n}, its permuted variant, and Lee weight.

gray_map lays the four CRT component words out block by block:
    (a_1..a_n | (a+b)_1..n | (a+c)_1..n | (a+b+c+d)_1..n).
gray_permuted interleaves instead, emitting the 4-tuple of coordinate i at
positions 4i..4i+3. Both are F_q-linear bijections, and Hamming weight of
the image equals Lee weight of the preimage.

check_commutation proves identities lhs = rhs of word maps on all of R^n
by running every map once on one shared symbolic word and comparing
monomial terms. commutes_for_all proves a family of identities, one per
shift constant alpha, for every alpha at once: it leaves alpha a symbol,
whose CRT places scale a term as sorted factors (place, twist), so one run
stands for the run with every concrete alpha substituted in. It proves
several lengths on the prefixes of one word, so the lengths share the
twists and splits of the columns they have in common. Nothing symbolic
outlives the call that built it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .codes import SkewCode
from .errors import MixedRingsError
from .gf import FieldElement, FieldSpec
from .ring4 import RingElement, join_word, split_word
from .skewpoly import blockwise_constacyclic_shift, skew_constacyclic_shift


def _components(word):
    """split_word(word); a word with an entry in F_q, which has no CRT
    components, is refused with MixedRingsError."""
    try:
        return split_word(word)
    except AttributeError:
        raise MixedRingsError("the Gray map takes a word over R, not over F_q") from None


def gray_map(word):
    """Concatenated CRT component blocks of an R-word."""
    return sum(_components(word), ())


def gray_permuted(word):
    """Interleaved variant: coordinate i occupies positions 4i..4i+3."""
    return tuple(itertools.chain.from_iterable(zip(*_components(word))))


def lee_weight(x) -> int:
    """Number of nonzero CRT components; extended additively to words."""
    if isinstance(x, RingElement):
        return sum(0 if c.is_zero else 1 for c in x.crt())
    if isinstance(x, FieldElement):
        raise MixedRingsError("Lee weight is defined on R, not on F_q")
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


class _Constant:
    """A shift constant alpha left as a symbol: CRT place j (places 0..3 of
    an R constant, or the one place j of crt()'s component j) stands for
    theta^r(alpha_j), alpha_j unknown. frob adds to r and crt splits; the
    only other use is scaling a _Column, which records the factor. Reading,
    adding, multiplying, comparing or branching on it raises, so a map that
    runs on it treats every alpha alike.
    """

    __slots__ = ("spec", "places", "r")
    __bool__ = __eq__ = None

    def __init__(self, spec: FieldSpec, places=(0, 1, 2, 3), r: int = 0):
        self.spec = spec
        self.places = places
        self.r = r

    def frob(self, i: int = 1) -> "_Constant":
        return _Constant(self.spec, self.places, (self.r + i) % self.spec.k)

    def crt(self):
        if len(self.places) != 4:
            raise TypeError("a constant in F_q has no CRT components")
        return tuple([_Constant(self.spec, (j,), self.r) for j in self.places])


class _Column:
    """Entry i of a symbolic word: each CRT place (four in R, one in F_q) is
    0 (None) or the map x -> theta^e(a * x_s) (term (s, log a), log on the
    field's logarithm list) of an input word x, with x_s its CRT component
    s % 4 of entry s // 4; the places share e mod k. frob adds to e; a
    constant b on the left (whose __mul__ returns NotImplemented for a
    column) adds log theta^-e(b) to each log a, and a b that is 1 in each
    of the column's places returns the column; crt splits. A symbolic
    _Constant in place j, theta^r(alpha_j), appends the factor (j, r - e mod
    k) to each nonzero term, the factors kept sorted: the term (s, log a,
    (j_1, r_1), ...) is x -> theta^e(theta^r_1(alpha_j_1) ... a * x_s). frob
    and crt are pure functions of the column's value, which never changes,
    so each column keeps their results: the theta-orbit of a column is
    built once, a cycle of k columns since theta^k = 1, and the split of
    theta^i(x) is theta^i of the split of x. Maps run on one word share
    every entry they leave untouched, whichever order they twist and split
    in, and k twists give back the column itself. A word and the columns
    it reaches live as long as the call that built it. Reading, adding,
    comparing or branching on an entry raises.
    """

    __slots__ = ("spec", "terms", "e", "_root", "_frob", "_crt")
    __bool__ = __eq__ = None

    def __init__(self, spec: FieldSpec, terms, e: int = 0, root=None):
        self.spec = spec
        self.terms = terms
        self.e = e
        self._root = root  # the first column of this theta-orbit, or None for that one
        self._frob = self._crt = None

    def frob(self, i: int = 1) -> "_Column":
        if i == 1 and self._frob is not None:
            return self._frob
        col = self
        for _ in range(i % self.spec.k):
            if col._frob is None:
                root = col if col._root is None else col._root
                e = (col.e + 1) % col.spec.k
                col._frob = root if e == root.e else _Column(col.spec, col.terms, e, root)  # theta^k = 1
            col = col._frob
        return col

    def __rmul__(self, const):
        if not isinstance(const, (RingElement, FieldElement, _Constant)):
            return NotImplemented
        spec = self.spec
        if const.spec is not spec:
            raise MixedRingsError("constant and word over different fields")
        if isinstance(const, _Constant):
            return self._times_symbol(const)
        factors = const.crt() if isinstance(const, RingElement) else (const,) * len(self.terms)
        if len(factors) == len(self.terms) and all(b.code == 1 for b in factors):  # 1 * x = x
            return self
        # an R constant times an entry in F_q is in R: its one place repeats
        terms = self.terms * (len(factors) // len(self.terms))
        wrap, zero = spec.wrap, spec.log_zero
        scaled = tuple([
            None if t is None or l == zero else (t[0], wrap[t[1] + l]) + t[2:]
            for t, l in zip(terms, spec.twist([spec.log[b.code] for b in factors], -self.e))  # theta^-e(b)
        ])
        return _Column(spec, scaled, self.e)

    def _times_symbol(self, const: _Constant) -> "_Column":
        """alpha_j * theta^e(y) = theta^e(theta^-e(alpha_j) * y) in each place j."""
        spec = self.spec
        size = max(len(const.places), len(self.terms))  # one place repeats over four
        terms = self.terms * (size // len(self.terms))
        places = const.places * (size // len(const.places))
        r = (const.r - self.e) % spec.k
        scaled = tuple([
            None if t is None
            else t + ((j, r),) if len(t) == 2  # a first factor needs no sort
            else t[:2] + tuple(sorted(t[2:] + ((j, r),)))
            for t, j in zip(terms, places)
        ])
        return _Column(spec, scaled, self.e)

    def crt(self):
        if self._crt is None:
            if len(self.terms) != 4:
                raise TypeError("an entry in F_q has no CRT components")
            root = self._root
            if root is None:
                self._crt = tuple([_Column(self.spec, (t,), self.e) for t in self.terms])
            else:  # the split of theta^i(x) is theta^i of the split of x
                i = self.e - root.e
                self._crt = tuple([part.frob(i) for part in root.crt()])
        return self._crt


def _symbolic_word(field: FieldSpec, n: int):
    """n columns, CRT place s of entry s // 4 the map x -> x_s."""
    return tuple(_Column(field, tuple((s, 0) for s in range(4 * i, 4 * i + 4))) for i in range(n))


def _same_forms(left, right) -> bool:
    """Whether two outputs of symbolic columns have one normal form."""
    # entries the two sides share are one object
    same = (x is y or x.e == y.e and x.terms == y.terms for x, y in zip(left, right))
    return len(left) == len(right) and all(same)


def _basis_words(field: FieldSpec, n: int):
    """The basis words (s, j), in order: CRT component s % 4 of entry s // 4
    is xi^j, every other component is 0."""
    for s in range(4 * n):
        for j in range(field.m):
            xi_j = field.from_int(field.p ** j)
            yield join_word([xi_j if 4 * i + c == s else field.zero for i in range(n)] for c in range(4))


def check_commutation(pairs, field: FieldSpec, n: int):
    """For each pair (lhs, rhs) of word maps, in order: the first word w of
    an F_p-basis of R^n with lhs(w) != rhs(w), or None when lhs and rhs
    agree on all of R^n.

    The basis is the 4nm words with one nonzero CRT component, component c
    of entry i equal to xi^j (code p^j), ordered by (i, c, j). Each lhs and
    rhs, built from frob, multiplication by a constant, crt() and tuple
    slicing or concatenation, runs once on one word of n _Columns, shared by
    all pairs, with place s x -> x_s, so each output place is 0 or
    theta^e(a * x_s). By Artin's lemma on the independence of the
    characters theta^e of F_q^*, two such monomials agree on all inputs iff
    their (s, a, e mod k) are equal. So equal terms prove lhs = rhs; on a
    mismatch that pair's lhs and rhs run on the basis words in order, and,
    being F_p-linear, agree on R^n if they agree there. Outputs of
    different lengths or entry kinds differ on every basis word. The word,
    and the frob and crt results its columns keep, live for this call only.
    """
    word = _symbolic_word(field, n)
    witnesses = []
    for lhs, rhs in pairs:
        left, right = lhs(word), rhs(word)
        if _same_forms(left, right):
            witnesses.append(None)
        elif [len(x.terms) for x in left] != [len(y.terms) for y in right]:
            witnesses.append(next(_basis_words(field, n)))
        else:
            witnesses.append(next((w for w in _basis_words(field, n) if lhs(w) != rhs(w)), None))
    return witnesses


def commutes_for_all(make_pair, field: FieldSpec, lengths):
    """For each n in lengths, in order, whether lhs = rhs on R^n for every
    constant alpha in R, where (lhs, rhs) = make_pair(alpha): make_pair runs
    once, on one symbolic alpha, and its lhs and rhs once each per n, on the
    first n columns of one symbolic word of max(lengths) columns; True when
    their outputs have equal normal forms. Those n columns are
    _symbolic_word(field, n), so each verdict is that of a call for n alone,
    and the lengths share the frob and crt results the columns keep. The
    word lives for this call only.

    A map within check_commutation's contract can only frob alpha, split it
    and scale columns by it, so running it on a concrete alpha is this run
    with each factor (j, r) of a term replaced by theta^r(alpha_j): a term
    with a factor alpha_j = 0 is 0 on both sides, and the others fold the
    factors into their a. Equal forms stay equal under every such
    substitution, so True is a proof for all alpha at once. False proves
    nothing about a particular alpha: check_commutation gives each its own
    verdict.
    """
    lhs, rhs = make_pair(_Constant(field))
    word = _symbolic_word(field, max(lengths))
    return [_same_forms(lhs(word[:n]), rhs(word[:n])) for n in lengths]
