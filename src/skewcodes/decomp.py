"""Assembling codes over R from four component codes over F_q and back.

Component i of a linear code C over R is the set of i-th CRT components of
its codewords; C is recovered as e1*C1 + e2*C2 + e3*C3 + e4*C4. Spanning
sets, not canonical generators, come out of extraction; minimal_generator
recovers the monic minimal-degree generator when the span really is a
single-generator constacyclic module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import (
    SkewCode,
    ShiftKind,
    apply_shift,
    build_code,
)
from .errors import InconsistentError, NotAUnitError, VerificationError
from .gf import FieldElement, FieldSpec
from .linalg import Span, rref
from .ring4 import RingElement, split_word
from .skewpoly import (
    ModulusSpec,
    SkewPoly,
    generator_basis_words,
    right_divmod,
    span_words,
)


@dataclass(frozen=True)
class ComponentCode:
    """A component code <gen> in F_q[x; theta]/(x^n - constant)."""

    gen: SkewPoly
    n: int
    constant: FieldElement

    @property
    def dim(self) -> int:
        return self.n - self.gen.degree

    def modulus(self) -> ModulusSpec:
        return ModulusSpec(self.n, self.constant)

    def basis_words(self):
        return generator_basis_words(self.gen, self.modulus())

    def span(self) -> Span:
        return Span(span_words(self.gen, self.modulus()), self.n, self.gen.spec)


@dataclass(frozen=True)
class ComponentQuadruple:
    components: tuple

    def __post_init__(self):
        comps = self.components
        if len(comps) != 4:
            raise InconsistentError("expected exactly four component codes")
        n = comps[0].n
        spec = comps[0].gen.spec
        if any(c.n != n or c.gen.spec != spec for c in comps):
            raise InconsistentError("component codes disagree on length or field")

    @property
    def n(self) -> int:
        return self.components[0].n

    @property
    def field(self) -> FieldSpec:
        return self.components[0].gen.spec

    def ring_constant(self) -> RingElement:
        return RingElement.from_crt(self.field, *(c.constant for c in self.components))

    @property
    def cardinality(self) -> int:
        return self.field.q ** sum(c.dim for c in self.components)


def assemble(quad: ComponentQuadruple, strict: bool = True) -> SkewCode:
    """SkewCode whose CRT components are the four given codes."""
    return build_code(
        quad.field,
        quad.n,
        quad.ring_constant(),
        tuple(c.gen for c in quad.components),
        strict=strict,
    )


def quadruple_of(code: SkewCode) -> ComponentQuadruple:
    consts = code.component_constants
    return ComponentQuadruple(
        tuple(ComponentCode(code.gens[i], code.n, consts[i]) for i in range(4))
    )


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
    target = Span(span_vectors, n, spec)
    if target.dim == 0:
        gen = ModulusSpec(n, constant).poly()
    else:
        reversed_rows, _ = rref([tuple(reversed(v)) for v in target.rows])
        least = reversed_rows[-1]
        gen = SkewPoly(spec, "fq", list(reversed(least))).monic()
    mod = ModulusSpec(n, constant)
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


def components_from_words(words, n: int, alpha: RingElement) -> ComponentQuadruple:
    """Canonical quadruple spanned by a set of R-words."""
    consts = alpha.crt()
    spans = extract_components(words)
    comps = tuple(
        ComponentCode(minimal_generator(spans[i], n, consts[i]), n, consts[i])
        for i in range(4)
    )
    return ComponentQuadruple(comps)


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

    def as_dict(self):
        return {
            "closed": self.closed,
            "components": [
                {
                    "constant": c.constant,
                    "degree": c.degree,
                    "divisor_ok": c.divisor_ok,
                    "closed": c.closed,
                }
                for c in self.components
            ],
            "equivalence_holds": self.equivalence_holds,
            "hypothesis_notes": list(self.hypothesis_notes),
        }


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
        nominal = Span(basis, code.n, code.field) if basis else Span([], code.n, code.field)
        closed = all(
            nominal.contains(apply_shift(ShiftKind.tau(consts[i]), w)) for w in basis
        )
        verdicts.append(
            ComponentVerdict(
                constant=repr(consts[i]),
                degree=code.gens[i].degree,
                divisor_ok=code.component_ok[i],
                closed=closed,
            )
        )
    overall = all(
        code.contains(apply_shift(ShiftKind.tau(code.alpha), w))
        for w in code.basis_words()
    )
    notes = []
    if not code.alpha.is_unit:
        notes.append("shift constant is not a unit; theorem hypotheses not met")
    return DecompositionReport(
        overall, tuple(verdicts), overall == all(v.closed for v in verdicts), tuple(notes)
    )


def dual_constant(alpha: RingElement) -> RingElement:
    """alpha^{-1}; its CRT components are the inverses of alpha's."""
    if not alpha.is_unit:
        raise NotAUnitError(f"{alpha!r} is not a unit")
    return alpha.inverse()


def dual_hypothesis_note(code: SkewCode) -> str | None:
    """The inverse-constant claim for the dual needs k | n; note when unmet."""
    k = code.field.k
    if code.n % k != 0:
        return (
            f"automorphism order {k} does not divide length {code.n}:"
            " dual shift-constant claim skipped"
        )
    return None
