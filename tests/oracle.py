"""A definition-level oracle for `skewcodes divisor-search`, `params`,
`dual`, `gray-image` and `idempotent`, written here from the definitions:

- right_divisors: every monic right divisor of x^n - alpha of one degree,
  found by trying each candidate with a right long division;
- code_words: a code over R as the F_q-span of (r x^j) * g mod (x^n - alpha)
  for r in {1, u, v, uv} and j < n, where g = e1 g1 + e2 g2 + e3 g3 + e4 g4,
  and what the CLI reports of it: component dimensions from e_i * C, the
  Gray image by the blocks (a, a+b, a+c, a+b+c+d), the minimum distance and
  the shift closures by listing every codeword, and the dual by the
  Euclidean inner product;
- commutative_mul: the commutative product mod x^n - alpha, under which an
  idempotent generator of a code over F_q is the identity on the code.

Nothing here imports skewcodes, so the oracle shares no table, shortcut or
code with the package:

- F_q = F_p[z]/(modulus). Each sum, negative, product and twist is computed
  once by sympy's galoistools on digit polynomials and kept in a table. An
  element is the integer code the CLI reads and prints: its coordinates on
  1, z, ..., z^(m-1) as base-p digits, the constant least significant.
- theta(a) = a^(p^t), the twist.
- R = F_q + uF_q + vF_q + uvF_q. An element (a, b, c, d) is
  a + bu + cv + duv, multiplied out in that basis with u^2 = u, v^2 = v and
  uv = vu. theta fixes u and v, so it acts on each coordinate. No product
  goes through the CRT; the components (a, a+b, a+c, a+b+c+d) of x = sum
  e_i x_i are read only for the Gray blocks and for each x^n - beta_i
  whose divisors the tests draw.
- A skew polynomial is its list of coefficients, lowest power first,
  multiplied by (a x^i)(b x^j) = a theta^i(b) x^(i+j), which is x b = theta(b) x.
"""

from __future__ import annotations

import functools
import itertools

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_mul, gf_neg, gf_pow_mod, gf_rem

# the most candidates right_divisors tries, and the most words codewords
# and orthogonal_words list
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
        self._inv = {x: y for x in range(1, q) for y in range(1, q) if self._mul[x][y] == 1}
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

    def inv(self, x):
        return self._inv[x]

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


# --- codes over R ---

def basis(ring):
    """1, u, v, uv."""
    one, zero = ring.field.one, ring.field.zero
    return [tuple(one if i == j else zero for j in range(4)) for i in range(4)]


def idempotents(ring):
    """e1 = 1 - u - v + uv, e2 = u - uv, e3 = v - uv, e4 = uv."""
    one, minus = ring.field.one, ring.field.neg(ring.field.one)
    zero = ring.field.zero
    return [(one, minus, minus, one), (zero, one, zero, minus), (zero, zero, one, minus), (zero, zero, zero, one)]


def components(ring, x):
    """(a, a+b, a+c, a+b+c+d) of x = a + bu + cv + duv: x = sum e_i x_i."""
    add = ring.field.add
    a, b, c, d = x
    return a, add(a, b), add(a, c), add(add(add(a, b), c), d)


def from_components(ring, betas):
    """The x = a + bu + cv + duv with components(x) = betas."""
    add, neg = ring.field.add, ring.field.neg
    b1, b2, b3, b4 = betas
    return b1, add(b2, neg(b1)), add(b3, neg(b1)), add(add(b4, neg(b2)), add(neg(b3), b1))


def left_multiples(ring, n: int, alpha, g, r):
    """The words of (r x^j) * g mod (x^n - alpha), j < n."""
    f = [ring.neg(alpha)] + [ring.zero] * (n - 1) + [ring.one]
    words = []
    for j in range(n):
        rem = right_remainder(ring, skew_mul(ring, [ring.zero] * j + [r], g), f)
        words.append(tuple(rem) + (ring.zero,) * (n - len(rem)))
    return words


def code_words(ring, n: int, alpha, gens):
    """An F_q spanning set of the code over R with component generators
    gens (F_q coefficient lists): the words of (r x^j) * g mod (x^n - alpha),
    r in {1, u, v, uv}, j < n, for g = e1 g1 + e2 g2 + e3 g3 + e4 g4."""
    field = ring.field
    g = [ring.zero] * max(map(len, gens))
    for e, gi in zip(idempotents(ring), gens):
        for k, c in enumerate(gi):
            g[k] = ring.add(g[k], ring.mul(e, (c, field.zero, field.zero, field.zero)))
    return [w for r in basis(ring) for w in left_multiples(ring, n, alpha, g, r)]


def commutative_mul(ring, n: int, alpha, f, g):
    """The word of f g mod (x^n - alpha) under the commutative product,
    x b = b x, for coefficient lists f and g: x^(n + i) = alpha x^i."""
    out = [ring.zero] * n
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            c = ring.mul(a, b)
            for _ in range((i + j) // n):
                c = ring.mul(alpha, c)
            out[(i + j) % n] = ring.add(out[(i + j) % n], c)
    return tuple(out)


def flat(word):
    """A word over R as F_q coordinates: a, b, c, d of each entry in turn."""
    return tuple(c for entry in word for c in entry)


def unflat(vector):
    return tuple(tuple(vector[i:i + 4]) for i in range(0, len(vector), 4))


def rref(field, rows):
    """The nonzero rows of the reduced row echelon form of F_q vectors."""
    rows = [list(r) for r in rows]
    out = []
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows if r[col] != field.zero), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = field.inv(pivot[col])
        pivot = [field.mul(inv, x) for x in pivot]
        for r in rows + out:
            c = field.neg(r[col])
            r[:] = [field.add(x, field.mul(c, y)) for x, y in zip(r, pivot)]
        out.append(pivot)
    return [tuple(r) for r in out]


def span(field, rows, length: int):
    """Every F_q-linear combination of rows of the length, as a set."""
    rows = rref(field, rows)
    if field.q ** len(rows) > MAX_CANDIDATES:
        raise ValueError(f"{field.q}^{len(rows)} words are more than {MAX_CANDIDATES}")
    words = {(field.zero,) * length}
    for row in rows:
        words = {tuple(field.add(x, field.mul(c, y)) for x, y in zip(w, row)) for w in words for c in field.elements()}
    return words


def component_dims(ring, words):
    """The F_q dimensions of e_i * C."""
    return [len(rref(ring.field, [flat(ring.mul(e, x) for x in w) for w in words])) for e in idempotents(ring)]


def gray(ring, word):
    """(a | a+b | a+c | a+b+c+d), each block over the n entries."""
    return tuple(c for i in range(4) for c in (components(ring, x)[i] for x in word))


def min_distance(ring, codewords):
    """The least Hamming weight of the Gray image of a nonzero codeword
    (flat), or None for the zero code."""
    weights = [sum(c != ring.field.zero for c in gray(ring, unflat(w))) for w in codewords if any(w)]
    return min(weights, default=None)


def tau(ring, word, alpha):
    """(alpha theta(c_{n-1}), theta(c_0), .., theta(c_{n-2}))."""
    return (ring.mul(alpha, ring.theta(word[-1])),) + tuple(map(ring.theta, word[:-1]))


def rho(ring, word, alpha, index: int):
    """The last `index` entries, scaled by alpha, moved to the front."""
    n = len(word)
    return tuple(ring.mul(alpha, c) for c in word[n - index:]) + word[:n - index]


def theta_order(field) -> int:
    """The least k >= 1 with theta^k the identity."""
    k, images = 1, list(field.elements())
    while True:
        images = [field.theta(x) for x in images]
        if images == list(field.elements()):
            return k
        k += 1


def inner(ring, w, c):
    """sum w_i c_i, in R."""
    return functools.reduce(ring.add, (ring.mul(x, y) for x, y in zip(w, c)), ring.zero)


def dual_dimension(ring, n: int, words) -> int:
    """dim over F_q of {w in R^n : <w, c> = 0 for every c in words}: 4n less
    the rank of the F_q-linear conditions, one per (c, coordinate of <w, c>),
    on the coordinates of w."""
    units = basis(ring)
    rows = [[ring.mul(t, c[i])[r] for i in range(n) for t in units] for c in words for r in range(4)]
    return 4 * n - len(rref(ring.field, rows))


def orthogonal_words(ring, n: int, words):
    """{w in R^n : <w, c> = 0 for every c in words}, flat, by trying every w."""
    if ring.field.q ** (4 * n) > MAX_CANDIDATES:
        raise ValueError(f"{ring.field.q}^{4 * n} words are more than {MAX_CANDIDATES}")
    return {
        flat(w) for w in itertools.product(ring.elements(), repeat=n)
        if all(inner(ring, w, c) == ring.zero for c in words)
    }
