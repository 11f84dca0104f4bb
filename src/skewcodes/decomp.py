"""The decomposition of codes over R into four component codes over F_q.

Component i of a linear code C over R is the set of i-th CRT components of
its codewords; C is recovered as e1*C1 + e2*C2 + e3*C3 + e4*C4, which is how
a SkewCode stores it. Spanning sets, not canonical generators, come out of
extraction; minimal_generator recovers the monic minimal-degree generator
when the span really is a single-generator constacyclic module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .codes import SkewCode, is_closed_under
from .errors import DEFAULT_BUDGET, LengthMismatchError, VerificationError
from .gf import FieldElement
from .linalg import element_logs, rref
from .ring4 import RingElement, split_word
from .skewpoly import ModulusSpec, SkewPoly, residues, skew_constacyclic_shift


def extract_components(words):
    """Four spanning sets: the i-th CRT components of the given R-words,
    the transpose of their split_words."""
    splits = [split_word(w) for w in words]
    return tuple(map(list, zip(*splits))) if splits else ([], [], [], [])


def minimal_generator(span_vectors, n: int, constant: FieldElement) -> SkewPoly:
    """Monic minimal-degree generator of a spanned component code.

    One elimination, with pivots at the high-degree end, gives the rank of
    the span, and its last echelon row is the minimal-degree element g of
    degree d, monic since its pivot is 1 (the empty span gives
    g = x^n - constant). When g right-divides x^n - constant, <g> is the set
    of words of degree < n that g right-divides, of dimension n - d. So the
    span is <g> exactly when its rank is n - d and g right-divides every
    echelon row. With rank n - d the pivots are the degrees d..n-1, so the
    row of degree D is x^D + low, deg low < d, and g right-divides it
    exactly when low = -(x^D mod g). Every check reads g's residues x^D mod
    g, D <= n, computed once: x^n - constant is right-divisible exactly when
    x^n mod g = constant. No division and no remainder sum is made.

    The elimination runs on logarithms (rref's logarithm form): the zero
    vectors, equal to the zero word, are dropped first, the others' codes
    are read once (linalg.element_logs), and the echelon rows are compared
    with g's residues read as logarithms. Raises LengthMismatchError for a
    vector whose length is not n, zero vectors included, and
    MixedRingsError for an entry of another field than constant's (fields
    are interned, so a field check is `is`), both before the elimination,
    and VerificationError when the span is no such module.
    """
    spec = constant.spec
    lengths = {len(v) for v in span_vectors} - {n}
    if lengths:
        raise LengthMismatchError(f"spanning vector length {min(lengths)} != code length {n}")
    # the other components' zero words span nothing
    zero_word = (spec.zero,) * n
    rows, _ = rref(element_logs([v[::-1] for v in span_vectors if v != zero_word], spec), spec)
    exp, log, wrap, half = spec.exp, spec.log, spec.wrap, (spec.q - 1) // 2
    gen = SkewPoly(spec, "fq", [exp[l] for l in reversed(rows[-1])]) if rows else ModulusSpec(n, constant).poly()
    d = gen.degree
    parity = list(itertools.islice(residues(gen), n + 1 - d))
    if parity[-1] != [constant, *[spec.zero] * d][:d]:
        raise VerificationError(
            f"minimal generator {gen!r} does not right-divide x^{n} - {constant!r}"
        )
    # the row of degree D is reversed: its entries n - d .. n - 1 are
    # low = -(x^D mod g), whose logarithms are those of x^D mod g plus half
    if len(rows) != n - d or any(
        row[:n - d - 1:-1] != tuple([wrap[log[c.code] + half] for c in parity[n - 1 - k - d]])
        for k, row in enumerate(rows)
    ):
        raise VerificationError(
            "spanning set is not the single-generator module of its minimal element"
        )
    return gen


def components_from_words(words, n: int, alpha: RingElement) -> SkewCode:
    """The code spanned by a set of R-words, with canonical generators.

    Each component generator comes from minimal_generator, which has checked
    that it regenerates its span and right-divides its modulus.
    """
    consts = alpha.crt()
    spans = extract_components(words)
    gens = tuple(minimal_generator(spans[i], n, consts[i]) for i in range(4))
    return SkewCode(alpha.spec, n, alpha, gens)


@dataclass(frozen=True)
class DecompositionReport:
    closed: bool
    components: tuple
    equivalence_holds: bool


def verify_decomposition_theorem(code: SkewCode, budget: int = DEFAULT_BUDGET) -> DecompositionReport:
    """Check that the code is closed under its defining shift exactly when
    each component is closed under its component shift.

    C_i, the span of x^j * g_i for j < k_i, is closed under the skew
    beta_i-constacyclic shift exactly when k_i = 0 (C_i = {0}) or g_i
    right-divides x^n - beta_i, that is r_i of code.remainders is zero: no
    division and no row reduction. This pinpoints a corrupted (non-divisor)
    component generator. `components` holds the four component verdicts,
    `closed` the whole-code verdict, checked independently by
    is_closed_under on the R-word image of every basis word, without
    reading code.remainders, and charged against the budget as it is (an
    upper bound), and `equivalence_holds` records that it agrees with their
    conjunction.
    """
    components = tuple(k == 0 or r.is_zero for k, r in zip(code.dims, code.remainders))
    overall = is_closed_under(code, lambda w: skew_constacyclic_shift(w, code.alpha), budget)
    return DecompositionReport(overall, components, overall == all(components))


def dual_hypothesis_note(code: SkewCode) -> str | None:
    """The inverse-constant claim for the dual needs k | n; note when unmet."""
    k = code.field.k
    if code.n % k != 0:
        return (
            f"automorphism order {k} does not divide length {code.n}:"
            " dual shift-constant claim skipped"
        )
    return None
