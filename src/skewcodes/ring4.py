"""The ring R = F_q + uF_q + vF_q + uvF_q with u^2 = u, v^2 = v, uv = vu.

R splits as F_q^4 through the orthogonal idempotents
    e1 = 1 - u - v + uv,  e2 = u - uv,  e3 = v - uv,  e4 = uv,
and every r = a + ub + vc + uvd satisfies
    r = e1*a + e2*(a+b) + e3*(a+c) + e4*(a+b+c+d).
The 4-tuple (a, a+b, a+c, a+b+c+d) is the CRT view; RingElement stores it.
"""

from __future__ import annotations

from .errors import MixedRingsError, NotAUnitError
from .gf import FieldElement, FieldSpec


class RingElement:
    """Element of R, held as its CRT view (r1, r2, r3, r4) = (a, a+b, a+c, a+b+c+d).

    Arithmetic is componentwise on the view, four field operations each. The
    e_i have prime-field coefficients, so the twist fixes them and acts on
    each component separately. The constructor takes the standard-basis
    coordinates (a, b, c, d); the properties a, b, c, d compute them back.
    """

    __slots__ = ("_crt",)

    def __init__(self, a: FieldElement, b: FieldElement, c: FieldElement, d: FieldElement):
        ab = a + b
        self._crt = (a, ab, a + c, ab + c + d)

    @property
    def spec(self) -> FieldSpec:
        return self._crt[0].spec

    @property
    def a(self) -> FieldElement:
        return self._crt[0]

    @property
    def b(self) -> FieldElement:
        return self._crt[1] - self._crt[0]

    @property
    def c(self) -> FieldElement:
        return self._crt[2] - self._crt[0]

    @property
    def d(self) -> FieldElement:
        r1, r2, r3, r4 = self._crt
        return r4 - r2 - r3 + r1

    @classmethod
    def from_ints(cls, spec: FieldSpec, a=0, b=0, c=0, d=0) -> "RingElement":
        """a + ub + vc + uvd; an int coordinate is the constant c*1 mod p,
        never an element code."""
        conv = lambda x: x if isinstance(x, FieldElement) else spec.constant(x)
        return cls(conv(a), conv(b), conv(c), conv(d))

    @staticmethod
    def from_field(x: FieldElement) -> "RingElement":
        return _of((x, x, x, x))

    @staticmethod
    def from_crt(spec: FieldSpec, r1, r2, r3, r4) -> "RingElement":
        """The element with CRT view (r1, r2, r3, r4). An int component is
        the constant c*1 mod p, never an element code, so an int >= p, which
        reads as a code too, is refused: pass FieldSpec.from_int(code)."""

        def conv(x):
            if isinstance(x, FieldElement):
                return x
            if x >= spec.p:
                raise ValueError(
                    f"CRT component {x} >= p = {spec.p} is ambiguous:"
                    f" pass FieldSpec.from_int({x}) for the element with that code"
                )
            return spec.constant(x)

        return _of((conv(r1), conv(r2), conv(r3), conv(r4)))

    def crt(self):
        """CRT view (a, a+b, a+c, a+b+c+d)."""
        return self._crt

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
        if other.__class__ is not RingElement or other._crt[0].spec is not self._crt[0].spec:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        s1, s2, s3, s4 = self._crt
        o1, o2, o3, o4 = other._crt
        return _of((s1 + o1, s2 + o2, s3 + o3, s4 + o4))

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not RingElement or other._crt[0].spec is not self._crt[0].spec:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        s1, s2, s3, s4 = self._crt
        o1, o2, o3, o4 = other._crt
        return _of((s1 - o1, s2 - o2, s3 - o3, s4 - o4))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        s1, s2, s3, s4 = self._crt
        return _of((-s1, -s2, -s3, -s4))

    def __mul__(self, other):
        if other.__class__ is not RingElement or other._crt[0].spec is not self._crt[0].spec:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        s1, s2, s3, s4 = self._crt
        o1, o2, o3, o4 = other._crt
        return _of((s1 * o1, s2 * o2, s3 * o3, s4 * o4))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        r1, r2, r3, r4 = self._crt
        return r1.is_zero and r2.is_zero and r3.is_zero and r4.is_zero

    @property
    def is_unit(self) -> bool:
        return not any(comp.is_zero for comp in self._crt)

    def inverse(self) -> "RingElement":
        if not self.is_unit:
            raise NotAUnitError(f"{self!r} is not a unit: CRT view {self.crt_ints()}")
        return _of(tuple(comp.inverse() for comp in self._crt))

    def frob(self, i: int = 1) -> "RingElement":
        """theta^i componentwise; once reads the spec's theta table."""
        s1, s2, s3, s4 = self._crt
        if i == 1:
            theta = s1.spec.theta
            return _of((theta[s1.code], theta[s2.code], theta[s3.code], theta[s4.code]))
        return _of((s1.frob(i), s2.frob(i), s3.frob(i), s4.frob(i)))

    def crt_ints(self):
        return tuple(comp.to_int() for comp in self._crt)

    # --- comparisons / display ---

    def __eq__(self, other):
        if other.__class__ is RingElement or isinstance(other, RingElement):
            return self._crt == other._crt
        if isinstance(other, (FieldElement, int)):
            other = self._coerce(other)
            return self == other
        return NotImplemented

    def __hash__(self):
        return hash(self._crt)

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


def _of(view) -> RingElement:
    """The element whose CRT view is the 4-tuple `view`, stored as given."""
    r = object.__new__(RingElement)
    r._crt = view
    return r


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


def join_word(parts):
    """The word over R whose four CRT component words, of one length, are
    `parts`: the inverse of split_word."""
    return tuple(map(_of, zip(*parts, strict=True)))
