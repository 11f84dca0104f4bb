"""A definition-level oracle for `skewcodes divisor-search`: every monic
right divisor of x^n - alpha of one degree, found by trying each candidate
with a right long division written here from the definitions.

Nothing here imports skewcodes, so the oracle shares no table, shortcut or
code with the package:

- F_q = F_p[z]/(modulus). Each sum, negative, product and twist is computed
  once by sympy's galoistools on digit polynomials and kept in a table. An
  element is the integer code the CLI reads and prints: its coordinates on
  1, z, ..., z^(m-1) as base-p digits, the constant least significant.
- theta(a) = a^(p^t), the twist.
- R = F_q + uF_q + vF_q + uvF_q. An element (a, b, c, d) is
  a + bu + cv + duv, multiplied out in that basis with u^2 = u, v^2 = v and
  uv = vu. theta fixes u and v, so it acts on each coordinate. No CRT.
- A skew polynomial is its list of coefficients, lowest power first,
  multiplied by (a x^i)(b x^j) = a theta^i(b) x^(i+j), which is x b = theta(b) x.
"""

from __future__ import annotations

import functools
import itertools

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_mul, gf_neg, gf_pow_mod, gf_rem

# the most candidates right_divisors tries
MAX_CANDIDATES = 10 ** 5


def _poly(code: int, p: int):
    """The digit polynomial of an element code, highest degree first
    (galoistools order)."""
    digits = []
    while code:
        code, digit = divmod(code, p)
        digits.append(ZZ(digit))
    return digits[::-1]


def _code(poly, p: int) -> int:
    code = 0
    for digit in poly:
        code = code * p + int(digit)
    return code


class Fq:
    """F_q on element codes, with every table entry from galoistools."""

    tag = "fq"

    def __init__(self, p: int, m: int, modulus, t: int):
        self.q = q = p ** m
        mod = [ZZ(c) for c in reversed(modulus)]
        polys = [_poly(code, p) for code in range(q)]
        self._add = [[_code(gf_add(x, y, p, ZZ), p) for y in polys] for x in polys]
        self._mul = [[_code(gf_rem(gf_mul(x, y, p, ZZ), mod, p, ZZ), p) for y in polys] for x in polys]
        self._neg = [_code(gf_neg(x, p, ZZ), p) for x in polys]
        self._theta = [_code(gf_pow_mod(x, p ** t, mod, p, ZZ), p) for x in polys]
        self.zero, self.one = 0, 1

    def elements(self):
        return range(self.q)

    def add(self, x, y):
        return self._add[x][y]

    def neg(self, x):
        return self._neg[x]

    def mul(self, x, y):
        return self._mul[x][y]

    def theta(self, x):
        return self._theta[x]

    def to_json(self, x):
        return x


class R:
    """F_q + uF_q + vF_q + uvF_q on (a, b, c, d) tuples of F_q codes."""

    tag = "R"

    def __init__(self, field: Fq):
        self.field = field
        self.zero, self.one = (0, 0, 0, 0), (1, 0, 0, 0)
        # a search repeats the same few operations over and over
        for name in ("add", "neg", "mul", "theta"):
            setattr(self, name, functools.lru_cache(maxsize=1 << 16)(getattr(self, name)))

    def elements(self):
        return itertools.product(self.field.elements(), repeat=4)

    def add(self, x, y):
        add = self.field.add
        return tuple(add(s, t) for s, t in zip(x, y))

    def neg(self, x):
        return tuple(map(self.field.neg, x))

    def mul(self, x, y):
        """(a + bu + cv + duv)(e + fu + gv + huv): u * u = u, v * v = v and
        uv = vu put each product of basis elements on 1, u, v or uv."""
        add, mul = self.field.add, self.field.mul
        a, b, c, d = x
        e, f, g, h = y
        on_uv = [mul(a, h), mul(d, e), mul(b, g), mul(c, f), mul(b, h), mul(d, f), mul(c, h), mul(d, g), mul(d, h)]
        return (
            mul(a, e),
            add(add(mul(a, f), mul(b, e)), mul(b, f)),
            add(add(mul(a, g), mul(c, e)), mul(c, g)),
            functools.reduce(add, on_uv),
        )

    def theta(self, x):
        return tuple(map(self.field.theta, x))

    def to_json(self, x):
        return dict(zip("abcd", x))


@functools.lru_cache(maxsize=None)
def field(p: int, m: int, modulus: tuple, t: int) -> Fq:
    return Fq(p, m, modulus, t)


def skew_mul(ring, f, g):
    """The skew product f * g of coefficient lists."""
    out = [ring.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == ring.zero:
            continue
        for j, b in enumerate(g):
            for _ in range(i):
                b = ring.theta(b)
            out[i + j] = ring.add(out[i + j], ring.mul(a, b))
    return out


def right_remainder(ring, f, g):
    """r with f = h * g + r and deg r < deg g, for a monic g, by long
    division: the top term c x^k of what is left is cancelled by
    subtracting (c x^(k - deg g)) * g, whose top term is c x^k because
    theta(1) = 1."""
    dg = len(g) - 1
    rem = list(f)
    for k in range(len(rem) - 1, dg - 1, -1):
        c = rem[k]
        if c != ring.zero:
            term = skew_mul(ring, [ring.zero] * (k - dg) + [c], g)
            for j in range(k - dg, k + 1):
                rem[j] = ring.add(rem[j], ring.neg(term[j]))
    return rem[:dg]


def right_divisors(ring, n: int, alpha, degree: int):
    """Every monic g of the degree that right-divides x^n - alpha, as the
    CLI prints it ({"ring", "coeffs"}), in the order the candidates are
    tried: lexicographic on the coefficients from the lowest power up, each
    an element code or (a, b, c, d) codes."""
    elements = list(ring.elements())
    if len(elements) ** degree > MAX_CANDIDATES:
        raise ValueError(f"{len(elements)}^{degree} candidates are more than {MAX_CANDIDATES}")
    f = [ring.neg(alpha)] + [ring.zero] * (n - 1) + [ring.one]
    out = []
    for low in itertools.product(elements, repeat=degree):
        g = [*low, ring.one]
        if all(r == ring.zero for r in right_remainder(ring, f, g)):
            out.append({"ring": ring.tag, "coeffs": [ring.to_json(c) for c in g]})
    return out
