"""The ring R = F_q + uF_q + vF_q + uvF_q with u^2 = u, v^2 = v, uv = vu.

R splits as F_q^4 through the orthogonal idempotents
    e1 = 1 - u - v + uv,  e2 = u - uv,  e3 = v - uv,  e4 = uv,
and every r = a + ub + vc + uvd satisfies
    r = e1*a + e2*(a+b) + e3*(a+c) + e4*(a+b+c+d).
The 4-tuple (a, a+b, a+c, a+b+c+d) is the CRT view used throughout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import MixedRingsError, NotAUnitError
from .gf import FieldElement, FieldSpec


class RingElement:
    """Element of R in the standard basis (a, b, c, d)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: FieldElement, b: FieldElement, c: FieldElement, d: FieldElement):
        self.a, self.b, self.c, self.d = a, b, c, d

    @property
    def spec(self) -> FieldSpec:
        return self.a.spec

    @classmethod
    def from_ints(cls, spec: FieldSpec, a=0, b=0, c=0, d=0) -> "RingElement":
        conv = lambda x: x if isinstance(x, FieldElement) else spec.constant(x)
        return cls(conv(a), conv(b), conv(c), conv(d))

    @classmethod
    def from_field(cls, x: FieldElement) -> "RingElement":
        z = x.spec.zero
        return cls(x, z, z, z)

    @classmethod
    def from_crt(cls, spec: FieldSpec, r1, r2, r3, r4) -> "RingElement":
        conv = lambda x: x if isinstance(x, FieldElement) else spec.constant(x)
        r1, r2, r3, r4 = conv(r1), conv(r2), conv(r3), conv(r4)
        a = r1
        b = r2 - r1
        c = r3 - r1
        d = r4 - r2 - r3 + r1
        return cls(a, b, c, d)

    def crt(self):
        """CRT view (a, a+b, a+c, a+b+c+d)."""
        return (self.a, self.a + self.b, self.a + self.c, self.a + self.b + self.c + self.d)

    # --- arithmetic ---

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.spec is not self.spec and other.spec != self.spec:
                raise MixedRingsError("ring elements over different fields")
            return other
        if isinstance(other, FieldElement):
            if other.spec is not self.spec and other.spec != self.spec:
                raise MixedRingsError("ring elements over different fields")
            return RingElement.from_field(other)
        if isinstance(other, int):
            return RingElement.from_ints(self.spec, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return RingElement(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        # componentwise in the CRT view; direct-expansion cross-check lives in tests
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        s, o = self.crt(), other.crt()
        return RingElement.from_crt(self.spec, s[0] * o[0], s[1] * o[1], s[2] * o[2], s[3] * o[3])

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return self.a.is_zero and self.b.is_zero and self.c.is_zero and self.d.is_zero

    @property
    def is_unit(self) -> bool:
        return all(not comp.is_zero for comp in self.crt())

    def inverse(self) -> "RingElement":
        comps = self.crt()
        if any(comp.is_zero for comp in comps):
            raise NotAUnitError(f"{self!r} is not a unit: CRT view {self.crt_ints()}")
        return RingElement.from_crt(self.spec, *(comp.inverse() for comp in comps))

    def frob(self, i: int = 1) -> "RingElement":
        return RingElement(self.a.frob(i), self.b.frob(i), self.c.frob(i), self.d.frob(i))

    def crt_ints(self):
        return tuple(comp.to_int() for comp in self.crt())

    # --- comparisons / display ---

    def __eq__(self, other):
        if isinstance(other, RingElement):
            return (
                self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d
            )
        if isinstance(other, (FieldElement, int)):
            other = self._coerce(other)
            return self == other
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        parts = []
        for coeff, sym in ((self.a, ""), (self.b, "u"), (self.c, "v"), (self.d, "uv")):
            if coeff.is_zero:
                continue
            s = repr(coeff)
            if sym:
                s = sym if s == "1" else (f"({s}){sym}" if "+" in s else f"{s}{sym}")
            parts.append(s)
        return " + ".join(parts) if parts else "0"


def ring_zero(spec: FieldSpec) -> RingElement:
    return RingElement.from_ints(spec)


def ring_one(spec: FieldSpec) -> RingElement:
    return RingElement.from_ints(spec, 1)


def idempotents(spec: FieldSpec):
    """(e1, e2, e3, e4): orthogonal, sum to 1, ei^2 = ei."""
    return (
        RingElement.from_ints(spec, 1, -1, -1, 1),
        RingElement.from_ints(spec, 0, 1, 0, -1),
        RingElement.from_ints(spec, 0, 0, 1, -1),
        RingElement.from_ints(spec, 0, 0, 0, 1),
    )


def split_word(word):
    """The four CRT component words of a word over R."""
    crts = [entry.crt() for entry in word]
    return tuple(zip(*crts)) if crts else ((), (), (), ())


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


@dataclass(frozen=True)
class UnitReport:
    is_unit: bool
    crt_components: tuple


def unit_check(r: RingElement) -> UnitReport:
    """Unit verdict together with the CRT components it was decided on."""
    return UnitReport(r.is_unit, r.crt_ints())
