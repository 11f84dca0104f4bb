"""Reference definitions the tests check the package against, and the
helpers that several test files share.

The package decides membership, closure and module equality from
generators and remainders; here whole spans are row-reduced instead
(Span, ModuleSpan), R is listed element by element, and the maps the
package has no use for (the untwisted shift, variable scaling, the inverse
Gray map) are written out. The Gray-commutation proof evaluates the word
maps on every basis word in one numpy pass, the idempotent check is made
by a rank, the self-dual constants are listed one by one, and the minimum
distance sweep tries every support on q x q tables of element codes filled
element by element, or asks each direct summand in turn on a column table
of its own, with one or every coefficient vector of each prefix, and the
divisor screen tries all q^d candidates. Row reduction and the inner
product run on field elements, with their arithmetic, and the field's
numpy tables are written out from their definitions. Right division and
the random divisor's peel run on polynomial objects, closure tests every shifted
basis word, membership sums object remainders and a minimal generator sums
a remainder per echelon row, as the package did before it worked on
logarithm lists and on what it already knew; the residue rows x^D mod g
and their sums (residues, residue_sum) are on coefficient objects. Nothing
in src/ imports this module.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import io
import random
import sys
from itertools import combinations, islice
from math import comb

import numpy as np

from skewcodes import distance, skewpoly
from skewcodes.cli import main
from skewcodes.decomp import extract_components
from skewcodes.distance import DistanceResult
from skewcodes.errors import (
    HypothesisViolatedError,
    LengthMismatchError,
    MixedRingsError,
    SkewcodesError,
    VerificationError,
)
from skewcodes.gf import FieldElement, FieldSpec
from skewcodes.linalg import nullspace, rref
from skewcodes.ring4 import RingElement, join_word, split_word
from skewcodes.serial import field_to_json, poly_to_json, ring_to_json
from skewcodes.skewpoly import (
    DivisorSampler,
    ModulusSpec,
    SkewPoly,
    _check_divisor,
    _logs,
    _monic_logs,
    _poly_of_logs,
    reduce_mod,
    right_remainder,
    span_words,
)


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


# --- the minimum distance on q x q code tables ---

def words_to_array(words) -> np.ndarray:
    """The words as an array of element codes, as distance held a matrix
    before it read its rows into logarithms: int32, since a code of F_q
    reaches q - 1."""
    return np.array([[c.code for c in w] for w in words], dtype=np.int32)


LogSummand = collections.namedtuple("LogSummand", "lo hi basis")


def log_summands(parts, spec):
    """(lo, hi, basis) triples, bases of field elements, as the summands
    distance._enumerate_messages places: their bases as logarithm rows."""
    return [LogSummand(lo, hi, [tuple(spec.log[c.code] for c in row) for row in basis]) for lo, hi, basis in parts]


@functools.lru_cache(maxsize=None)
def code_tables(spec: FieldSpec):
    """(add, mul): the q x q tables of element codes, add[x, y] = x + y and
    mul[x, y] = x * y, filled element by element with the scalar operations."""
    elems = list(spec.elements())
    add = np.array([[(x + y).code for y in elems] for x in elems], dtype=np.int32)
    mul = np.array([[(x * y).code for y in elems] for x in elems], dtype=np.int32)
    return add, mul


def reference_sweep(rows, basis, spec, n, budget):
    """distance._bounded_weight_sweep as a per-support loop on code_tables:
    every support of each weight, and every nonzero coefficient vector on
    it, summed column by column; basis is the RREF of rows."""
    q = spec.q
    best_w, best_row = None, None
    for w in list(rows) + list(basis):
        wt = hamming_weight(w)
        if wt > 0 and (best_w is None or wt < best_w):
            best_w, best_row = wt, tuple(w)
    scaled_cols = None

    swept = 0
    for w in range(1, best_w):
        level = comb(n, w) * (q - 1) ** w
        if swept + level > budget:
            return DistanceResult(None, (w, best_w), best_row, swept, "sweep-budget-exhausted")
        if scaled_cols is None:
            add, mul = code_tables(spec)
            H = words_to_array(nullspace(basis, n, spec))
            nzcoef = np.arange(1, q)
            scaled_cols = [mul[nzcoef[:, None], H[:, j][None, :]] for j in range(n)]
        for support in combinations(range(n), w):
            T = scaled_cols[support[0]]
            for j in support[1:]:
                T = add[T[..., None, :], scaled_cols[j]]
            hits = ~np.any(T, axis=-1)
            if hits.any():
                coef = np.argwhere(hits)[0]
                word = [spec.zero] * n
                for pos, c in zip(support, coef):
                    word[pos] = spec.from_int(int(c) + 1)
                return DistanceResult(w, None, tuple(word), swept, "sweep-found-lighter")
        swept += level
    return DistanceResult(best_w, None, best_row, swept, "sweep-certified")


# --- the minimum distance over every coefficient vector, on field elements ---

def object_rref(rows):
    """linalg.rref with FieldElement arithmetic: reduced rows and pivot
    columns, zero rows dropped before the elimination."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return [], []
    zero = rows[0][0].spec.zero
    rows = [r for r in rows if r.count(zero) < len(r)]
    if not rows:
        return [], []
    pivots = []
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if not rows[i][col].is_zero), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and not rows[i][col].is_zero:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return [tuple(r) for r in rows[:rank]], pivots


def object_nullspace(rows, ncols: int, spec: FieldSpec, pivots=None):
    """linalg.nullspace on field elements: a basis of the classical dual,
    one vector per free column; given pivots, rows are already an RREF."""
    reduced, pivots = object_rref(rows) if pivots is None else (rows, pivots)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [spec.zero] * ncols
        vec[fc] = spec.one
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc]
        basis.append(tuple(vec))
    return basis


def object_inner_product(x, y):
    """linalg.inner_product with the words' own arithmetic, over F_q or R."""
    acc = x[0].spec.zero if isinstance(x[0], FieldElement) else RingElement.from_ints(x[0].spec)
    for a, b in zip(x, y):
        acc = acc + a * b
    return acc


def formula_field_arrays(spec: FieldSpec):
    """gf.FieldArrays' tables (log, exp, wrap, plus, frob) as the package
    built them with formulas of their own, before they were the spec's
    lists: exp inverts log, wrap reduces modulo q - 1 and frob multiplies
    by p^t modulo q - 1."""
    q = spec.q
    zero = spec.log_zero
    top = 2 * zero + 1
    log = np.array(spec.log, dtype=np.int32)
    exp = np.zeros(top, dtype=np.int32)
    exp[log[1:]] = np.arange(1, q)
    exp[q - 1:zero] = exp[:q - 1]
    wrap = np.arange(top, dtype=np.int32)
    wrap[:zero] %= q - 1
    wrap[zero:] = zero
    plus = np.array(spec.plus, dtype=np.int32)
    frob = np.full(zero + 1, zero, dtype=np.int32)
    frob[:q - 1] = np.arange(q - 1, dtype=np.int64) * pow(spec.p, spec.t, q - 1) % (q - 1)
    return log, exp, wrap, plus, frob


def full_prefix_sums(scaled, arrays, prefixes):
    """distance._prefix_sums over every coefficient vector: (P, (q-1)^(w-1),
    n-k) logarithms of the sums of each prefix's scaled columns, in product
    order."""
    wrap, plus, zero = arrays.wrap, arrays.plus, arrays.zero
    sums = scaled[prefixes[:, 0]]
    for i in range(1, prefixes.shape[1]):
        x = sums[:, :, None, :]
        sums = wrap[x + plus[(scaled[prefixes[:, i]][:, None] + zero) - x]]
        sums = sums.reshape(len(prefixes), -1, sums.shape[-1])
    return sums


def column_table(scaled):
    """(keys, last) of one summand's scaled columns c*h_j, given as the
    (width, q-1, n-k) array `scaled` of their logarithms: the distinct keys,
    sorted, and for each key the largest j that gives it."""
    keys = distance._row_keys(scaled, scaled.shape[1] + 1, 0, 1)  # column j's rows come j-th
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    run_end = np.append(keys[1:] != keys[:-1], True)
    return keys[run_end], order[run_end] // scaled.shape[1]


def first_completable_prefix(scaled, arrays, table, w, full=False):
    """The first (w-1)-position prefix P of one summand's columns, in
    combinations order, with a sum over P equal to some c*h_j with
    j > max(P), or None: the sums of each prefix with first coefficient 1
    (distance._prefix_sums), or with full all (q-1)^(w-1) of them
    (full_prefix_sums), in batches of distance._CHUNK sums, one
    searchsorted against the summand's own column table per batch."""
    keys, last = table
    q = scaled.shape[1] + 1
    count = (q - 1) ** (w - 1 if full else w - 2)
    prefix_sums = full_prefix_sums if full else distance._prefix_sums
    prefixes = combinations(range(len(scaled) - 1), w - 1)
    per_batch = max(1, distance._CHUNK // count)
    while True:
        batch = np.array(list(islice(prefixes, per_batch)), dtype=np.intp).reshape(-1, w - 1)
        if not batch.size:
            return None
        wanted = distance._row_keys(prefix_sums(scaled, arrays, batch), q, 0, 1)
        pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        hit = (keys[pos] == wanted) & (last[pos] > np.repeat(batch[:, -1], count))
        if hit.any():
            return tuple(int(j) for j in batch[hit.argmax() // count])


def summand_first_word(basis, pivots, width, spec, w, full=False):
    """The first word of weight w in (support, coefficient) order of one
    summand, given its RREF `basis` (field elements) and pivots, as
    (column, coefficient code) pairs, or None: the summand swept on its own
    H and its own column table, as distance swept each summand before it
    decided a level for all of them in one pass; with full over every
    coefficient vector of each prefix."""
    arrays = spec.arrays()
    H = words_to_array(object_nullspace(basis, width, spec, pivots))
    scaled = arrays.wrap[arrays.log[1:, None] + arrays.log[H.T][:, None, :]].astype(np.intp)
    q = spec.q
    prefix = first_completable_prefix(scaled, arrays, column_table(scaled), w, full)
    if prefix is None:
        return None
    lead, prefix_sums = ((), full_prefix_sums) if full else ((0,), distance._prefix_sums)  # (0,): c_1 is 1
    T = prefix_sums(scaled, arrays, np.array([prefix]))[0]
    wanted = distance._row_keys(arrays.wrap[T + arrays.half], q, 0, 1)
    for j in range(prefix[-1] + 1, width):
        column = distance._row_keys(scaled[j], q, 0, 1)
        hits = np.isin(wanted, column)
        if hits.any():
            i = int(hits.argmax())
            coefs = (*lead, *np.unravel_index(i, (q - 1,) * (w - 1 - len(lead))), np.flatnonzero(column == wanted[i])[0])
            return tuple(zip(prefix + (j,), (int(c) + 1 for c in coefs)))


def per_summand_min_distance(rows, spec, budget, full=False):
    """distance.min_distance with each summand row-reduced on field elements
    (object_rref) and each sweep level asking the summands in column order
    for a word (summand_first_word), each on its own column table; with
    full each level tries every coefficient vector of every prefix. The
    split, the enumeration and the budget gate are the package's."""
    rows = list(rows)
    words = words_to_array(rows)
    parts = [
        (lo, hi, *object_rref([rows[i][lo:hi] for i in members]))
        for (lo, hi), members in zip(*distance._summands(words != 0))
    ]
    k = sum(len(basis) for _, _, basis, _ in parts)
    if k == 0:
        return DistanceResult(None, None, None, 0, "zero-code", defined=False)
    n, q = len(rows[0]), spec.q
    if k == n:
        return DistanceResult(1, None, (spec.one,) + (spec.zero,) * (n - 1), 0, "full-space")
    placed = [(spec.zero,) * lo + row + (spec.zero,) * (n - hi) for lo, hi, basis, _ in parts for row in basis]
    if q ** k <= min(budget, distance.ENUM_CAP):
        return distance._enumerate_messages(log_summands([part[:3] for part in parts], spec), n, spec, budget)
    weights = np.count_nonzero(np.vstack((words, words_to_array(placed))), axis=1)
    best_w = int(weights[weights > 0].min())
    best_row = tuple((rows + placed)[int(np.argmax(weights == best_w))])
    swept = 0
    for w in range(1, best_w):
        level = comb(n, w) * (q - 1) ** w
        if swept + level > budget:
            return DistanceResult(None, (w, best_w), best_row, swept, "sweep-budget-exhausted")
        for lo, hi, basis, pivots in parts if w > 1 else ():
            found = summand_first_word(basis, pivots, hi - lo, spec, w, full)
            if found is not None:
                word = [spec.zero] * n
                for pos, c in found:
                    word[lo + pos] = spec.from_int(c)
                return DistanceResult(w, None, tuple(word), swept, "sweep-found-lighter")
        swept += level
    return DistanceResult(best_w, None, best_row, swept, "sweep-certified")


def full_coefficient_min_distance(rows, spec, budget):
    """per_summand_min_distance over every coefficient vector."""
    return per_summand_min_distance(rows, spec, budget, full=True)


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


# --- products ---

def object_product(f: SkewPoly, g: SkewPoly, twisted: bool) -> SkewPoly:
    """f * g by the definition (a x^i)(b x^j) = a theta^i(b) x^(i+j), or
    with twisted False the commutative product, on coefficient objects: the
    package's SkewPoly._mul before it ran on logarithm lists."""
    f._check_compatible(g)
    out = [f._zero_coeff()] * max(len(f.coeffs) + len(g.coeffs) - 1, 0)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * (b.frob(i) if twisted else b)
    return SkewPoly(f.spec, f.ring, out)


# --- right division ---

def residues(g: SkewPoly):
    """skewpoly._log_residues on coefficient objects: the rows x^D mod g on
    the right, D = deg g, deg g + 1, ..., each as deg g coefficients, of a
    g with a unit lead. x^(D+1) mod g is x * (x^D mod g): the row twisted
    by theta and shifted up one degree, its new x^d term c reduced to
    c * (x^d mod g) = -c * lead^-1 * g_low."""
    lead_inv = g.lead.inverse()
    top = [-(lead_inv * b) for b in g.coeffs[:-1]]  # x^d mod g
    row = top
    while True:
        yield row
        if top:
            c = row[-1].frob(1)
            row = [c * top[0]] + [r.frob(1) + c * t for r, t in zip(row, top[1:])]


def residue_sum(coeffs, g: SkewPoly, rows) -> SkewPoly:
    """skewpoly._log_residue_sum on coefficient objects: sum_D coeffs_D *
    (x^D mod g), the right remainder by g, given rows = residues(g) or at
    least its first len(coeffs) - deg g rows."""
    d = g.degree
    rem = list(coeffs[:d]) + [g._zero_coeff()] * (d - len(coeffs))
    for c, row in zip(coeffs[d:], rows):
        if not c.is_zero:
            rem = [r + c * s for r, s in zip(rem, row)]
    return SkewPoly(g.spec, g.ring, rem)


def object_divmod(f: SkewPoly, g: SkewPoly):
    """(quot, rem) with f = quot * g + rem and deg rem < deg g, on
    polynomial objects: the package's right division before it ran on
    logarithm lists."""
    _check_divisor(f, g)
    # In place: step d subtracts (c x^d) * g = x^d * (c * theta^d(g)) from
    # rem[d:], so it costs O(deg g) and not O(deg f). theta^d depends only on
    # d mod k, so each twisted divisor and its lead's inverse is built once.
    dg = g.degree
    rem = list(f.coeffs)
    quot = [f._zero_coeff()] * max(len(rem) - dg, 0)
    twists = {}
    while len(rem) > dg:
        d = len(rem) - 1 - dg
        r = d % g.spec.k
        if r not in twists:
            gd = SkewPoly(g.spec, g.ring, [b.frob(r) for b in g.coeffs]) if r else g
            twists[r] = gd, gd.lead.inverse()
        gd, lead_inv = twists[r]
        c = quot[d] = rem[-1] * lead_inv
        for j, s in enumerate((SkewPoly(f.spec, f.ring, [c]) * gd).coeffs, d):
            rem[j] = rem[j] - s
        while rem and rem[-1].is_zero:
            rem.pop()
    return SkewPoly(f.spec, f.ring, quot), SkewPoly(f.spec, f.ring, rem)


def spy_log_divisions(monkeypatch):
    """{name of the calling function: [(dividend, divisor), ...]}: the
    logarithm lists of every skewpoly._log_divmod call, in order. Its
    callers are right_divmod, which divides polynomials, and
    DivisorSampler.random_right_divisor, whose divisions peel its factors."""
    calls = collections.defaultdict(list)
    divide = skewpoly._log_divmod

    def spy(spec, f, g):
        calls[sys._getframe(1).f_code.co_name].append((f, g))
        return divide(spec, f, g)

    monkeypatch.setattr(skewpoly, "_log_divmod", spy)
    return calls


def orbit_basis_words(f: SkewPoly, mod: ModulusSpec):
    """skewpoly.generator_basis_words as the head of f's shift orbit: the
    words of x^j * f mod (x^n - alpha), j < n - deg f, each the skew
    constacyclic shift of the one before it, and [] for f = 0."""
    count = 0 if f.is_zero else max(mod.n - f.degree, 0)
    return list(islice(skewpoly._shift_orbit(f, mod), count))


# --- right divisors ---

def full_divisor_screen(f: SkewPoly, degree: int):
    """Codes (g_0, ..., g_{degree-1}) of the monic degree-`degree` right
    divisors of f over F_q, degree >= 1, from the remainder of every one of
    the q^degree candidates, in itertools.product order (g_0 most
    significant): the package's screen before it tried one candidate per
    orbit of the scalings x -> cx, on (candidates, degree) int32 blocks."""
    spec = f.spec
    q = spec.q
    arrays = spec.arrays()
    zero, wrap, plus, frob = arrays.zero, arrays.wrap, arrays.plus, arrays.frob
    terms = [(j, spec.log[c.code]) for j, c in enumerate(f.coeffs) if not c.is_zero]
    codes = np.arange(q ** degree)[:, None] // q ** np.arange(degree - 1, -1, -1) % q
    neg_g = wrap[arrays.log[codes] + arrays.half]
    # x^k mod g, stepped up from x^0 = 1: x r = shift(theta(r)) - theta(r_top) g_low
    power = np.full(codes.shape, zero, dtype=np.int32)
    power[:, 0] = 0
    rem = np.full(codes.shape, zero, dtype=np.int32)
    j = 0
    for k, log_fk in terms:
        for _ in range(k - j):
            twisted = frob[power]
            power = wrap[twisted[:, -1:] + neg_g]
            low = twisted[:, :-1]
            power[:, 1:] = wrap[low + plus[(power[:, 1:] + zero) - low]]
        j = k
        term = wrap[power + log_fk]
        rem = wrap[rem + plus[(term + zero) - rem]]
    return list(map(tuple, codes[(rem == zero).all(axis=1)].tolist()))


def component_polys(f: SkewPoly):
    """The four CRT component polynomials of an R-polynomial: the inverse
    of skewpoly.from_components."""
    if f.ring != "R":
        raise MixedRingsError("expected a polynomial over R")
    return tuple(SkewPoly(f.spec, "fq", comp) for comp in split_word(f.coeffs))


def monic_right_factors(f: SkewPoly, degree: int):
    """skewpoly._monic_right_factors of f, looked up at each call so that a
    spy on it sees these calls too, with its code tuples built into monic
    polynomials, in its order."""
    choices = skewpoly._monic_right_factors(f.spec, _logs(f), degree)
    return [_poly_of_logs(f.spec, f.ring, _monic_logs(f.spec, choice)) for choice in choices]


def random_right_divisor(mod: ModulusSpec, rng, degree: int) -> SkewPoly:
    """One draw of a new skewpoly.DivisorSampler: a random monic right
    divisor of x^n - alpha of degree at most `degree`, whose screens live
    for this call only."""
    return DivisorSampler().random_right_divisor(mod, rng, degree)


def object_random_right_divisor(mod: ModulusSpec, rng, degree: int) -> SkewPoly:
    """random_right_divisor on polynomial objects: the cofactor
    divided by each pick, and the pick multiplied onto the divisor, with
    the same candidate lists (monic_right_factors) and the same picks."""
    cofactor = mod.poly()
    divisor = SkewPoly(mod.spec, mod.ring, [cofactor._one_coeff()])
    while (divisor.degree or 0) < degree and cofactor.degree > 0:
        remaining = degree - divisor.degree
        candidates = []
        for d in (1, 2):
            if d > remaining or d > cofactor.degree:
                continue
            candidates = monic_right_factors(cofactor, d)
            if candidates:
                break
        if not candidates:
            break
        g = rng.choice(candidates)
        cofactor, rem = object_divmod(cofactor, g)
        if not rem.is_zero:
            raise VerificationError(f"candidate divisor {g!r} does not right-divide")
        divisor = g * divisor
    return divisor


# --- closure and minimal generators, remainder by remainder ---

def object_contains(code, word) -> bool:
    """codes.SkewCode.contains on coefficient objects: each CRT component
    of word all zero, or with a zero remainder by g_i summed off the code's
    object residue rows (residue_sum), as the package did before
    membership ran on logarithm lists."""
    zero = code.field.zero
    return all(
        comp.count(zero) == code.n or residue_sum(comp, g, residues(g)).is_zero
        for comp, g in zip(split_word(word), code.gens)
    )


def per_word_closure(code, shift) -> bool:
    """codes.is_closed_under testing every shifted basis word: each of its
    four CRT components by its right remainder by g_i."""
    return all(
        right_remainder(SkewPoly(code.field, "fq", comp), g).is_zero
        for w in code.basis_words()
        for comp, g in zip(split_word(shift(w)), code.gens)
    )


def per_row_minimal_generator(span_vectors, n: int, constant) -> SkewPoly:
    """decomp.minimal_generator summing the right remainder of x^n -
    constant and of every echelon row off the generator's residues."""
    spec = constant.spec
    mod = ModulusSpec(n, constant)
    rows, _ = rref([tuple(reversed(v)) for v in span_vectors])
    polys = [SkewPoly(spec, "fq", list(reversed(row))) for row in rows]
    gen = polys[-1] if polys else mod.poly()
    parity = list(islice(residues(gen), n + 1 - gen.degree))
    if not residue_sum(mod.poly().coeffs, gen, parity).is_zero:
        raise VerificationError(f"minimal generator {gen!r} does not right-divide x^{n} - {constant!r}")
    if len(polys) != n - gen.degree or any(not residue_sum(f.coeffs, gen, parity).is_zero for f in polys):
        raise VerificationError("spanning set is not the single-generator module of its minimal element")
    return gen


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


def rank_idempotent_check(e: SkewPoly, f: SkewPoly, mod: ModulusSpec) -> bool:
    """The idempotent check by a rank: e*e = e mod (x^n - alpha), f
    right-divides e, and the n span words of e have rank n - deg f, the
    dimension of <f>; skewpoly.idempotent_generator decides the same by two
    inclusions."""
    return (
        reduce_mod(e * e, mod) == e
        and right_remainder(e, f).is_zero
        and Span(span_words(e, mod)).dim == mod.n - f.degree
    )


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


# --- self-dual constants ---

def self_dual_constant_list(field: FieldSpec):
    """The sixteen constants whose codes can be self-dual (CRT view in
    {1,-1}^4), written out in the (a, b, c, d) coordinates of a + bu + cv + duv."""
    specs = [
        (1, 0, 0, 0), (-1, 0, 0, 0),
        (1, -2, 0, 0), (1, 0, -2, 0), (1, 0, 0, -2),
        (-1, 2, 0, 0), (-1, 0, 2, 0), (-1, 0, 0, 2),
        (1, -2, 0, 2), (1, 0, -2, 2), (-1, 2, 0, -2), (-1, 0, 2, -2),
        (1, -2, -2, 2), (-1, 2, 2, -2), (1, -2, -2, 4), (-1, 2, 2, -4),
    ]
    return [RingElement.from_ints(field, *s) for s in specs]


# --- serialisation ---

def code_to_json(code) -> dict:
    return {
        "field": field_to_json(code.field),
        "n": code.n,
        "alpha": ring_to_json(code.alpha),
        "gens": [poly_to_json(g) for g in code.gens],
    }
