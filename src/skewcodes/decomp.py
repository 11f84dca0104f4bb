"""The decomposition of codes over R into four component codes over F_q.

Component i of a linear code C over R is the set of i-th CRT components of
its codewords; C is recovered as e1*C1 + e2*C2 + e3*C3 + e4*C4, which is how
a SkewCode stores it. Spanning sets, not canonical generators, come out of
extraction; minimal_generator recovers the monic minimal-degree generator
when the span really is a single-generator constacyclic module.

Below the public functions a word is its CRT logarithm lists (see gf):
minimal_generator and components_from_words are adapters over one list
body, _generator_of, and verify_decomposition_theorem closes a code's basis
lists and makes its round trip on them, with no R-word.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .codes import SkewCode, _closure
from .errors import DEFAULT_BUDGET, LengthMismatchError, VerificationError
from .gf import FieldElement
from .linalg import element_logs, rref
from .ring4 import RingElement, split_word
from .skewpoly import ModulusSpec, SkewPoly, _log_constacyclic_shift, _log_residues, _poly_of_logs


def extract_components(words):
    """Four spanning sets: the i-th CRT components of the given R-words,
    the transpose of their split_words."""
    splits = [split_word(w) for w in words]
    return tuple(map(list, zip(*splits))) if splits else ([], [], [], [])


def minimal_generator(span_vectors, n: int, constant: FieldElement) -> SkewPoly:
    """Monic minimal-degree generator of a spanned component code:
    _generator_of on the vectors' logarithms (linalg.element_logs). Raises
    LengthMismatchError for a vector whose length is not n, zero vectors
    included, and MixedRingsError for an entry of another field than
    constant's (fields are interned, so a field check is `is`), both before
    the elimination, and VerificationError when the span is no such module.
    """
    spec = constant.spec
    lengths = {len(v) for v in span_vectors} - {n}
    if lengths:
        raise LengthMismatchError(f"spanning vector length {min(lengths)} != code length {n}")
    return _poly_of_logs(spec, "fq", [_generator_of(element_logs(span_vectors, spec), n, constant)])


def _generator_of(span, n: int, constant: FieldElement, known=((), ())):
    """minimal_generator on logarithm lists: the logarithm list of the monic
    minimal-degree generator of the span of the length-n lists `span`.

    One elimination, with pivots at the high-degree end, gives the rank of
    the span, and its last echelon row is the minimal-degree element g of
    degree d, monic since its pivot is 1 (the empty span gives
    g = x^n - constant, from ModulusSpec.logs). When g right-divides
    x^n - constant, <g> is the set of words of degree < n that g
    right-divides, of dimension n - d. So the span is <g> exactly when its
    rank is n - d and g right-divides every echelon row. With rank n - d
    the pivots are the degrees d..n-1, so the row of degree D is
    x^D + low, deg low < d, and g right-divides it exactly when
    low = -(x^D mod g). Every check reads g's residues x^D mod g, D <= n,
    as lists: `known` = (a list, its rows) when g is that list, as a code
    has them for its generators, and otherwise from skewpoly._log_residues.
    x^n - constant is right-divisible exactly when x^n mod g = constant.
    No division and no remainder sum is made. All-zero lists (the other
    components' words) are dropped before the elimination (rref's
    logarithm form). Raises VerificationError when the span is no such
    module.
    """
    spec = constant.spec
    zero, wrap, half = spec.log_zero, spec.wrap, (spec.q - 1) // 2
    rows, pivots = rref([v[::-1] for v in span if v.count(zero) != n], spec)
    # the last row from its pivot on, reversed: g's list, ascending
    gen = list(rows[-1][pivots[-1]:][::-1]) if rows else ModulusSpec(n, constant).logs()[0]
    d = len(gen) - 1
    parity = known[1] if known[0] == gen else list(itertools.islice(_log_residues(spec, gen), n + 1 - d))
    if parity[-1] != [spec.log[constant.code], *[zero] * d][:d]:
        gen = _poly_of_logs(spec, "fq", [gen])
        raise VerificationError(f"minimal generator {gen!r} does not right-divide x^{n} - {constant!r}")
    # row k, of degree D = n - 1 - k, is reversed: its last d entries are
    # low = -(x^D mod g), whose logarithms are those of x^D mod g plus half
    if len(rows) != n - d or [row[:n - d - 1:-1] for row in rows] != [
        tuple([wrap[l + half] for l in row]) for row in parity[:n - d][::-1]
    ]:
        raise VerificationError("spanning set is not the single-generator module of its minimal element")
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
    round_trip: bool


def verify_decomposition_theorem(code: SkewCode, budget: int = DEFAULT_BUDGET) -> DecompositionReport:
    """Check that the code is closed under its defining shift exactly when
    each component is closed under its component shift, and that its
    components give it back.

    C_i, the span of x^j * g_i for j < k_i, is closed under the skew
    beta_i-constacyclic shift exactly when k_i = 0 (C_i = {0}) or g_i
    right-divides x^n - beta_i, that is r_i of code.remainders is zero: no
    division and no row reduction. This pinpoints a corrupted (non-divisor)
    component generator. `components` holds the four component verdicts.
    `closed`, the whole-code verdict, is checked independently of them by
    the closure loop (codes._closure) under tau_alpha on the basis words'
    CRT logarithm lists (skewpoly._log_constacyclic_shift), charged against
    the budget as is_closed_under is; `equivalence_holds` records that it
    agrees with their conjunction. `round_trip` records that
    components_from_words(code.basis_words(), n, alpha) would give back the
    code's generators (False where it refuses them): _generator_of on each
    component's basis lists, reading the code's rows for its generator.
    """
    components = tuple(k == 0 or r.is_zero for k, r in zip(code.dims, code.remainders))
    spec = code.field
    constants = [spec.log[beta.code] for beta in code.component_constants]
    overall = _closure(code, functools.partial(_log_constacyclic_shift, spec, constants=constants), budget)
    try:
        round_trip = all(
            _generator_of(code._basis_logs(i), code.n, beta, (g, rows)) == g
            for i, (beta, g, rows) in enumerate(zip(code.component_constants, code._gen_logs, code._row_logs))
        )
    except VerificationError:
        round_trip = False
    return DecompositionReport(overall, components, overall == all(components), round_trip)


def dual_hypothesis_note(code: SkewCode) -> str | None:
    """The inverse-constant claim for the dual needs k | n; note when unmet."""
    k = code.field.k
    if code.n % k != 0:
        return (
            f"automorphism order {k} does not divide length {code.n}:"
            " dual shift-constant claim skipped"
        )
    return None
