"""The decomposition of codes over R into four component codes over F_q.

Component i of a linear code C over R is the set of i-th CRT components of
its codewords; C is recovered as e1*C1 + e2*C2 + e3*C3 + e4*C4, which is how
a SkewCode stores it. Spanning sets, not canonical generators, come out of
extraction; minimal_generator recovers the monic minimal-degree generator
when the span really is a single-generator constacyclic module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import SkewCode, is_closed_under, skew_constacyclic_shift
from .errors import VerificationError
from .gf import FieldElement, FieldSpec
from .linalg import Span, rref
from .ring4 import RingElement, split_word
from .skewpoly import ModulusSpec, SkewPoly, right_divmod, span_words


def extract_components(words):
    """Four spanning sets: the i-th CRT components of the given R-words."""
    spans = ([], [], [], [])
    for w in words:
        for i, comp in enumerate(split_word(w)):
            spans[i].append(comp)
    return spans


class ModuleSpan:
    """R-span of a set of R-words, represented by its four component spans."""

    def __init__(self, words, n: int, spec: FieldSpec):
        comps = extract_components(words)
        self.n = n
        self.spec = spec
        self.component_spans = tuple(Span(c, n, spec) for c in comps)

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


def minimal_generator(span_vectors, n: int, constant: FieldElement) -> SkewPoly:
    """Monic minimal-degree generator of a spanned component code.

    Eliminates with pivots at the high-degree end; the last echelon row is
    the minimal-degree element. Verifies that it regenerates the span and
    right-divides x^n - constant; raises VerificationError otherwise.
    """
    spec = constant.spec
    mod = ModulusSpec(n, constant)
    target = Span(span_vectors, n, spec)
    if target.dim == 0:
        gen = mod.poly()
    else:
        reversed_rows, _ = rref([tuple(reversed(v)) for v in target.rows])
        least = reversed_rows[-1]
        gen = SkewPoly(spec, "fq", list(reversed(least))).monic()
    regenerated = Span(span_words(gen, mod), n, spec)
    if regenerated != target:
        raise VerificationError(
            "spanning set is not the single-generator module of its minimal element"
        )
    if not right_divmod(mod.poly(), gen)[1].is_zero:
        raise VerificationError(
            f"minimal generator {gen!r} does not right-divide x^{n} - {constant!r}"
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
class ComponentVerdict:
    constant: str
    degree: int
    divisor_ok: bool
    closed: bool


@dataclass(frozen=True)
class DecompositionReport:
    closed: bool
    components: tuple
    equivalence_holds: bool
    hypothesis_notes: tuple


def verify_decomposition_theorem(code: SkewCode) -> DecompositionReport:
    """Check, on basis words, that the code is closed under its defining shift
    exactly when each component is closed under its component shift.

    Component closure is judged on the nominal basis span, which pinpoints a
    corrupted (non-divisor) component generator. `closed` is the direct
    whole-code verdict; `equivalence_holds` records that it agrees with the
    conjunction of the component verdicts.
    """
    consts = code.component_constants
    verdicts = []
    for i in range(4):
        basis = code.component_basis(i)
        nominal = Span(basis, code.n, code.field)
        closed = all(nominal.contains(skew_constacyclic_shift(w, consts[i])) for w in basis)
        verdicts.append(
            ComponentVerdict(
                constant=repr(consts[i]),
                degree=code.gens[i].degree,
                divisor_ok=code.component_ok[i],
                closed=closed,
            )
        )
    overall = is_closed_under(code, lambda w: skew_constacyclic_shift(w, code.alpha))
    notes = []
    if not code.alpha.is_unit:
        notes.append("shift constant is not a unit; theorem hypotheses not met")
    return DecompositionReport(
        overall, tuple(verdicts), overall == all(v.closed for v in verdicts), tuple(notes)
    )


def dual_hypothesis_note(code: SkewCode) -> str | None:
    """The inverse-constant claim for the dual needs k | n; note when unmet."""
    k = code.field.k
    if code.n % k != 0:
        return (
            f"automorphism order {k} does not divide length {code.n}:"
            " dual shift-constant claim skipped"
        )
    return None
