"""Reference definitions the tests check the package against, and the
helpers that several test files share.

The package decides membership, closure and module equality from
generators and remainders; here whole spans are row-reduced instead
(Span, ModuleSpan), R is listed element by element, and the maps the
package has no use for (the untwisted shift, variable scaling, the inverse
Gray map) are written out, and the Gray-commutation proof evaluates the
word maps on every basis word in one numpy pass. Nothing in src/ imports
this module.
"""

from __future__ import annotations

import contextlib
import io
import random

import numpy as np

from skewcodes.cli import main
from skewcodes.decomp import extract_components
from skewcodes.errors import HypothesisViolatedError, LengthMismatchError, MixedRingsError, SkewcodesError
from skewcodes.gf import FieldElement, FieldSpec
from skewcodes.linalg import rref
from skewcodes.ring4 import RingElement, join_word, split_word
from skewcodes.serial import field_to_json, poly_to_json, ring_to_json
from skewcodes.skewpoly import SkewPoly


def run_main(argv):
    """(exit code, stdout) of one in-process CLI request."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    return rc, out.getvalue()


# --- words and shifts ---

def commutative_remainder(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """f mod g under the commutative product, x b = b x, by long division;
    g has a unit leading coefficient."""
    rem = list(f.coeffs)
    while len(rem) > g.degree:
        c = rem[-1] * g.lead.inverse()
        d = len(rem) - len(g.coeffs)
        for j, b in enumerate(g.coeffs):
            rem[d + j] = rem[d + j] - c * b
        rem.pop()
    return SkewPoly(f.spec, f.ring, rem)


def constacyclic_shift(word, alpha):
    """Untwisted constacyclic shift: no automorphism, alpha on the wrap."""
    word = tuple(word)
    return (alpha * word[-1],) + word[:-1]


def hamming_weight(word) -> int:
    return sum(0 if c.is_zero else 1 for c in word)


def gray_inverse(vec, spec: FieldSpec):
    vec = tuple(vec)
    if len(vec) % 4 != 0:
        raise LengthMismatchError("image length must be a multiple of 4")
    n = len(vec) // 4
    return tuple(
        RingElement.from_crt(spec, vec[i], vec[n + i], vec[2 * n + i], vec[3 * n + i])
        for i in range(n)
    )


def interleave_permutation(n: int):
    """Positions p with gray_permuted(w)[i] = gray_map(w)[p[i]]."""
    return [(i % 4) * n + i // 4 for i in range(4 * n)]


# --- the Gray-commutation proof on every basis word ---

class LogColumn:
    """Entry i of every basis word of a check, as logarithms on
    gf.FieldArrays: a (4, T) array of CRT components for an entry in R, a
    (T,) array for an entry in F_q. It has frob, left multiplication by a
    FieldElement or RingElement constant, and crt."""

    __slots__ = ("spec", "logs")

    def __init__(self, spec: FieldSpec, logs):
        self.spec = spec
        self.logs = logs

    def frob(self, i: int = 1) -> "LogColumn":
        logs, frob = self.logs, self.spec.arrays().frob
        for _ in range(i % self.spec.k):
            logs = frob[logs]
        return LogColumn(self.spec, logs)

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
        return LogColumn(self.spec, arrays.wrap[self.logs + logs])

    def crt(self):
        return tuple(LogColumn(self.spec, logs) for logs in self.logs)


def basis_commutation(lhs, rhs, field: FieldSpec, n: int):
    """gray.check_commutation's answer, from lhs and rhs run once on all 4nm
    basis words at once (ordered by entry i, CRT component c, then j for
    xi^j) and compared basis word by basis word."""
    count = 4 * n * field.m
    t = np.arange(count)
    codes = np.zeros((count, 4 * n), dtype=np.int64)
    codes[t, t // field.m] = field.p ** (t % field.m)
    word = tuple(LogColumn(field, logs) for logs in field.arrays().log[codes.T.reshape(n, 4, count)])
    left, right = lhs(word), rhs(word)
    if len(left) != len(right) or any(x.logs.shape != y.logs.shape for x, y in zip(left, right)):
        differ = np.ones(count, dtype=bool)  # outputs of different shapes differ everywhere
    else:
        stacked = lambda out: np.concatenate([x.logs.reshape(-1, count) for x in out])
        differ = (stacked(left) != stacked(right)).any(axis=0)
    if not differ.any():
        return None
    witness = codes[differ.argmax()].reshape(n, 4).T
    return join_word([field.from_int(int(x)) for x in part] for part in witness)


# --- elements of R ---

def random_ring_element(spec: FieldSpec, rng: random.Random) -> RingElement:
    return RingElement(
        spec.random_element(rng), spec.random_element(rng),
        spec.random_element(rng), spec.random_element(rng),
    )


def ring_elements(spec: FieldSpec):
    """All q^4 elements; intended for desk-scale exhaustive checks."""
    for a in spec.elements():
        for b in spec.elements():
            for c in spec.elements():
                for d in spec.elements():
                    yield RingElement(a, b, c, d)


# --- constacyclic equivalence maps ---

class EvenLengthError(SkewcodesError):
    """The variable-substitution map requires odd length."""


def power_scale_word(word, alpha):
    """Scale position i by alpha^i."""
    out = []
    acc = None
    for i, c in enumerate(word):
        if i == 0:
            out.append(c)
            acc = alpha
        else:
            out.append(acc * c)
            acc = acc * alpha
    return tuple(out)


def power_scale_poly(f: SkewPoly, alpha, n: int) -> SkewPoly:
    """Substitute (alpha x) for x: coefficient j picks up alpha theta(alpha)..theta^{j-1}(alpha).

    Defined for odd n and alpha with alpha^2 = 1, where it carries submodules
    of the cyclic quotient to submodules of the alpha-constacyclic quotient.
    """
    if n % 2 == 0:
        raise EvenLengthError("variable scaling requires odd length")
    one = f._one_coeff()
    if not (isinstance(alpha, type(one)) and alpha * alpha == one):
        raise HypothesisViolatedError("shift constant must square to 1")
    coeffs = []
    norm = one  # running product alpha * theta(alpha) * .. * theta^{j-1}(alpha)
    for j, c in enumerate(f.coeffs):
        coeffs.append(c * norm)
        norm = norm * alpha.frob(j)
    return SkewPoly(f.spec, f.ring, coeffs)


# --- spans by row reduction ---

class Span:
    """Row space of a set of vectors with membership queries."""

    def __init__(self, rows):
        self.rows, self.pivots = rref(rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vec) -> bool:
        """Whether vec reduces to zero against the RREF basis."""
        vec = list(vec)
        for row, col in zip(self.rows, self.pivots):
            if not vec[col].is_zero:
                factor = vec[col]
                vec = [x - factor * y for x, y in zip(vec, row)]
        return all(x.is_zero for x in vec)

    def contains_all(self, vecs) -> bool:
        return all(self.contains(v) for v in vecs)

    def __eq__(self, other):
        if not isinstance(other, Span):
            return NotImplemented
        return self.dim == other.dim and self.contains_all(other.rows)


class ModuleSpan:
    """R-span of a set of R-words, represented by its four component spans:
    the reference for components_from_words and shift_closures."""

    def __init__(self, words, spec: FieldSpec):
        self.spec = spec
        self.component_spans = tuple(Span(c) for c in extract_components(words))

    @property
    def dims(self):
        return tuple(s.dim for s in self.component_spans)

    @property
    def cardinality(self) -> int:
        return self.spec.q ** sum(self.dims)

    def contains(self, word) -> bool:
        return all(
            self.component_spans[i].contains(comp)
            for i, comp in enumerate(split_word(word))
        )

    def __eq__(self, other):
        if not isinstance(other, ModuleSpan):
            return NotImplemented
        return self.component_spans == other.component_spans


# --- serialisation ---

def code_to_json(code) -> dict:
    return {
        "field": field_to_json(code.field),
        "n": code.n,
        "alpha": ring_to_json(code.alpha),
        "gens": [poly_to_json(g) for g in code.gens],
    }
