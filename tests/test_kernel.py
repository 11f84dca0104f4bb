"""Differential and property tests of the integer-code field kernel.

Field arithmetic is checked against sympy's galoistools on the digit
polynomials, over fields that include a twist strictly between the identity
and the full Frobenius (1 < t < m).
"""

import copy
import itertools
import pickle
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_add,
    gf_gcdex,
    gf_irreducible_p,
    gf_mul,
    gf_pow_mod,
    gf_rem,
    gf_sub,
)

from reference import formula_field_arrays, object_inner_product, random_ring_element

from skewcodes.errors import (
    BadDegreeError,
    BadTwistError,
    DivisionByZeroError,
    FieldTooLargeError,
    MixedRingsError,
    NonPrimeError,
    ReducibleModulusError,
)
from skewcodes.gf import _FIELDS, MAX_Q, FieldSpec, _is_irreducible, make_field
from skewcodes.linalg import _log_inner_product
from skewcodes.ring4 import RingElement, join_word, split_word

# (p, m, modulus ascending, t)
FIELDS = {
    "F81t2": (3, 4, [2, 0, 0, 1, 1], 2),
    "F729t2": (3, 6, [1, 0, 0, 0, 1, 1, 1], 2),
    "F125": (5, 3, [3, 3, 0, 1], 1),
    "F7": (7, 1, [0, 1], 1),
    "F243": (3, 5, [1, 2, 0, 0, 0, 1], 1),
}
SETTINGS = settings(max_examples=60, deadline=None)


def field(name):
    return make_field(*FIELDS[name])


def poly(x):
    """Digit polynomial of x, highest degree first (galoistools order)."""
    digits = list(x.digits)
    while digits and digits[-1] == 0:
        digits.pop()
    return [ZZ(d) for d in reversed(digits)]


def modulus(spec):
    return [ZZ(c) for c in reversed(spec.modulus)]


def reduce(spec, f):
    return gf_rem(f, modulus(spec), spec.p, ZZ)


@st.composite
def elements(draw, count=2):
    spec = field(draw(st.sampled_from(sorted(FIELDS))))
    return (spec, *(spec.from_int(draw(st.integers(0, spec.q - 1))) for _ in range(count)))


@SETTINGS
@given(elements())
def test_ring_operations_match_galoistools(args):
    spec, x, y = args
    p = spec.p
    assert poly(x + y) == gf_add(poly(x), poly(y), p, ZZ)
    assert poly(x - y) == gf_sub(poly(x), poly(y), p, ZZ)
    assert poly(-x) == gf_sub([], poly(x), p, ZZ)
    assert poly(x * y) == reduce(spec, gf_mul(poly(x), poly(y), p, ZZ))


@SETTINGS
@given(elements(), st.integers(-50, 10 ** 6))
def test_inverse_division_and_powers_match_galoistools(args, e):
    spec, x, y = args
    p = spec.p
    if y.is_zero:
        with pytest.raises(DivisionByZeroError):
            y.inverse()
        with pytest.raises(DivisionByZeroError):
            x / y
    else:
        inv, _, gcd = gf_gcdex(poly(y), modulus(spec), p, ZZ)
        assert gcd == [ZZ(1)]
        assert poly(y.inverse()) == inv
        assert poly(x / y) == reduce(spec, gf_mul(poly(x), inv, p, ZZ))
    if x.is_zero and e < 0:
        with pytest.raises(DivisionByZeroError):
            x.pow_int(e)
        return
    base = x if e >= 0 else x.inverse()
    assert poly(x.pow_int(e)) == gf_pow_mod(poly(base), abs(e), modulus(spec), p, ZZ)


@SETTINGS
@given(elements(), st.integers(-20, 20))
def test_frobenius_is_a_power_and_a_field_automorphism(args, i):
    """frob(i) is x^(p^(ti)), i from -20 to 20 (beyond -2k and 3k on every
    field); frob(1) reads the spec's theta table, and RingElement.frob(1)
    is x^(p^t) place by place on its CRT view."""
    spec, x, y = args
    assert x.frob(i) == x.pow_int(spec.p ** (spec.t * (i % spec.k)))
    assert (x + y).frob(i) == x.frob(i) + y.frob(i)
    assert (x * y).frob(i) == x.frob(i) * y.frob(i)
    assert x.frob(spec.k) == x
    assert spec.theta[x.code] is x.frob(1) is x.pow_int(spec.p ** spec.t)
    view = (x, y, x + y, x * y)
    r = RingElement.from_crt(spec, *view)
    assert r.frob(1).crt() == tuple(c.pow_int(spec.p ** spec.t) for c in view)
    assert r.frob(1) == r.frob(1 + spec.k) == RingElement.from_crt(spec, *(c.frob(1) for c in view))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_frobenius_has_order_k(name):
    spec = field(name)
    g = spec.exp[1]  # the primitive element the tables are built on
    assert g.frob(spec.k) == g
    assert all(g.frob(j) != g for j in range(1, spec.k))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_tables_are_consistent(name):
    spec = field(name)
    q = spec.q
    zero = 2 * (q - 1)  # the logarithm of 0
    powers = spec.exp[: q - 1]
    assert sorted(x.code for x in powers) == list(range(1, q))
    assert spec.exp == powers + powers + [spec.zero] * (zero + 1)
    assert spec.log_zero == spec.log[0] == zero
    assert all(spec.exp[spec.log[c]].code == c for c in range(1, q))
    assert len(spec.log) == q and len(spec.plus) == 2 * zero + 1
    assert None not in spec.log + spec.plus + spec.neg
    arrays = spec.arrays()
    assert arrays.log.tolist() == spec.log and arrays.plus.tolist() == spec.plus
    assert arrays.exp.tolist() == [x.code for x in spec.exp]
    assert [x.code for x in spec.elements()] == list(range(q))
    assert all(spec.from_int(c).code == c for c in range(q))
    assert [x.is_unit for x in spec.elements()] == [False] + [True] * (q - 1)


# (p, m, modulus ascending, t): every pair of elements is checked
SMALL_FIELDS = {
    "F3": (3, 1, [0, 1], 1),
    "F9": (3, 2, [1, 0, 1], 1),
    "F25": (5, 2, [1, 1, 1], 1),
    "F27": (3, 3, [1, 2, 0, 1], 1),
    "F81t2": FIELDS["F81t2"],
}


@pytest.mark.parametrize("name", sorted(SMALL_FIELDS))
def test_every_pair_matches_galoistools(name):
    """+, -, * and unary - on every pair (x, y), zeros and y = -x included,
    against the digit polynomials: an oracle that reads no table of gf."""
    spec = make_field(*SMALL_FIELDS[name])
    p, mod = spec.p, modulus(spec)
    elems = list(spec.elements())
    polys = [poly(x) for x in elems]
    for x, fx in zip(elems, polys):
        assert poly(-x) == gf_sub([], fx, p, ZZ)
        for y, fy in zip(elems, polys):
            assert poly(x + y) == gf_add(fx, fy, p, ZZ)
            assert poly(x - y) == gf_sub(fx, fy, p, ZZ)
            assert poly(x * y) == gf_rem(gf_mul(fx, fy, p, ZZ), mod, p, ZZ)


def test_field_arrays_are_built_on_first_use():
    # F13 on the modulus x + 2: a field no other test builds
    spec = FieldSpec(13, 1, [2, 1], 1)
    assert spec._arrays is None
    assert spec.arrays() is spec.arrays()


# the fields of the logarithm-table properties: every pair is checked
TABLE_FIELDS = {**FIELDS, **SMALL_FIELDS, "F49": (7, 2, [3, 6, 1], 1)}


@pytest.mark.parametrize("name", sorted(TABLE_FIELDS))
def test_wrap_reduces_every_index(name):
    """wrap[k], 0 <= k <= 4(q-1), is the one logarithm of g^k (log 0 = Z
    from Z up), and reducing it again changes nothing."""
    spec = make_field(*TABLE_FIELDS[name])
    order, zero = spec.q - 1, spec.log_zero
    assert len(spec.wrap) == 4 * order + 1 == 2 * zero + 1
    for k, l in enumerate(spec.wrap):
        assert l == (k % order if k < zero else zero)
        assert spec.exp[l] is spec.exp[k] and spec.wrap[l] == l


def test_log_and_plus_hold_the_ints_of_wrap():
    """log, and the Zech entries of plus, hold wrap's int objects rather
    than equal copies, so each logarithm is kept once: on F_(3^7), whose
    logarithms above 256 are not the interpreter's cached small ints."""
    spec = make_field(3, 7, [1, 0, 2, 0, 0, 0, 0, 1])
    wrap, zero, order = spec.wrap, spec.log_zero, spec.q - 1
    assert all(l is wrap[l] for l in spec.log)
    assert all(l is wrap[l] for l in spec.plus[zero - order + 1:zero + order])


@pytest.mark.parametrize("name", sorted(TABLE_FIELDS))
def test_logarithm_sums_products_and_negations_are_the_field_operations(name):
    """On every pair (x, y), zeros included: wrap[x + plus[y - x + Z]] is
    log(x + y) and wrap[x + y] is log(x * y) on logarithms x, y, and
    wrap[x + half] is log(-x)."""
    spec = make_field(*TABLE_FIELDS[name])
    log, plus, wrap, zero = spec.log, spec.plus, spec.wrap, spec.log_zero
    half = (spec.q - 1) // 2
    elems = list(spec.elements())
    for x in elems:
        lx = log[x.code]
        assert wrap[lx + half] == log[(-x).code]
        assert [wrap[lx + plus[log[y.code] - lx + zero]] for y in elems] == [log[(x + y).code] for y in elems]
        assert [wrap[lx + log[y.code]] for y in elems] == [log[(x * y).code] for y in elems]


@pytest.mark.parametrize("name", sorted(TABLE_FIELDS))
def test_twist_is_the_frobenius_power_on_logarithms(name):
    """FieldSpec.twist(logs, i) is theta^i on every element, zero included,
    for i from -k to 2k."""
    spec = make_field(*TABLE_FIELDS[name])
    elems = list(spec.elements())
    for i in range(-spec.k, 2 * spec.k + 1):
        assert spec.twist(spec.log, i) == [spec.log[x.frob(i).code] for x in elems]


@pytest.mark.parametrize("name", sorted(TABLE_FIELDS))
def test_field_arrays_are_the_spec_lists_and_the_table_formulas(name):
    """FieldArrays holds the spec's lists as intp arrays, entry by entry
    equal to the tables written out from their definitions."""
    spec = make_field(*TABLE_FIELDS[name])
    arrays = spec.arrays()
    built = (arrays.log, arrays.exp, arrays.wrap, arrays.plus, arrays.frob)
    for table, formula in zip(built, formula_field_arrays(spec)):
        assert table.dtype == np.intp
        assert table.tolist() == formula.tolist()
    assert arrays.wrap.tolist() == spec.wrap and arrays.exp.tolist() == [x.code for x in spec.exp]
    assert (arrays.zero, arrays.half) == (spec.log_zero, (spec.q - 1) // 2)


@pytest.mark.parametrize("name", sorted(TABLE_FIELDS))
def test_inner_product_is_the_sum_of_products(name):
    """linalg._log_inner_product on logarithm lists against the sum with the
    words' own arithmetic, over F_q and over R, one CRT component at a
    time, on random words, sparse words and zero words."""
    spec = make_field(*TABLE_FIELDS[name])
    exp = spec.exp

    def inner_product(x, y):
        if x[0].__class__ is RingElement:
            return join_word([inner_product(a, b)] for a, b in zip(split_word(x), split_word(y)))[0]
        return exp[_log_inner_product(spec, [spec.log[a.code] for a in x], [spec.log[b.code] for b in y])]

    rng = random.Random(42)
    for n in (1, 2, 6, 13):
        sparse = [spec.zero if rng.random() < 0.5 else spec.random_element(rng) for _ in range(n)]
        words = [
            [spec.random_element(rng) for _ in range(n)],
            [spec.random_element(rng) for _ in range(n)],
            sparse,
            [spec.zero] * n,
        ]
        for x in words:
            for y in words:
                assert inner_product(x, y) == object_inner_product(x, y)
        x, y = ([random_ring_element(spec, rng) for _ in range(n)] for _ in range(2))
        for word in (y, join_word([[spec.zero] * n] * 4)):
            product = inner_product(x, word)
            assert product.__class__ is RingElement and product == object_inner_product(x, word)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.lists(st.integers(0, 6), min_size=1, max_size=7))
def test_irreducibility_matches_galoistools(p, low):
    mod = [c % p for c in low] + [1]
    assert _is_irreducible(mod, p) == gf_irreducible_p([ZZ(c) for c in reversed(mod)], p, ZZ)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_irreducibility_matches_galoistools_on_every_low_degree(p):
    """Every monic polynomial of degree 2 and 3 over F_p."""
    for m in (2, 3):
        for low in itertools.product(range(p), repeat=m):
            mod = list(low) + [1]
            assert _is_irreducible(mod, p) == gf_irreducible_p(
                [ZZ(c) for c in reversed(mod)], p, ZZ
            ), mod


def test_make_field_interns_equal_specs():
    p, m, mod, t = FIELDS["F81t2"]
    spec = make_field(p, m, mod, t)
    assert make_field(p, m, tuple(mod), t) is spec
    assert make_field(p, m, [c - p for c in mod], t) is spec  # same residues mod p
    other_twist = make_field(p, m, mod, 1)
    assert other_twist is not spec
    assert other_twist != spec


def test_a_field_is_one_object_however_it_is_built():
    """FieldSpec itself interns, on the modulus read mod p, and copies and
    unpickled specs, elements and ring elements hold the one field."""
    f9 = make_field(3, 2, [1, 0, 1])
    assert FieldSpec(3, 2, [4, 3, 1], 1) is f9
    assert FieldSpec(3, 2, (1, 0, 1), 2) is make_field(3, 2, [1, 0, 1], 2) is not f9
    x = f9.root() + 1
    r = RingElement.from_crt(f9, f9.root(), 0, 1, x)
    for copy_of in (copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))):
        assert copy_of(f9) is f9
        y, s = copy_of(x), copy_of(r)
        assert y.spec is f9 and y == x and y * x == x * x
        assert all(c.spec is f9 for c in s.crt()) and s == r and s * r == r * r
        assert copy_of([f9, x])[0] is f9


def test_no_field_built_directly_leaves_make_field_an_invalid_one():
    """FieldSpec refuses a reducible modulus and a twist t not dividing m
    before it builds, so the cache that make_field reads holds no such
    field: make_field refuses them after a direct attempt as before it."""
    for args, error in (((3, 2, [0, 0, 1], 1), ReducibleModulusError), ((3, 2, [1, 0, 1], 3), BadTwistError)):
        for build in (FieldSpec, make_field, FieldSpec, make_field):
            with pytest.raises(error):
                build(*args)


DIRECT_REFUSALS = {
    "Z/9": ((9, 1, [0, 1], 1), NonPrimeError, "p = 9 is not an odd prime"),
    "non-monic F9": ((3, 2, [2, 0, 2], 1), ReducibleModulusError, "modulus must be monic of degree 2, got [2, 0, 2]"),
    "degree 3 for m = 2": ((3, 2, [1, 2, 0, 1], 1), ReducibleModulusError, "modulus must be monic of degree 2, got [1, 2, 0, 1]"),
    "p = 1": ((1, 1, [0, 1], 1), NonPrimeError, "p = 1 is not an odd prime"),
    "m = 0": ((3, 0, [1], 1), BadDegreeError, "extension degree m must be positive"),
}


@pytest.mark.parametrize("name", sorted(DIRECT_REFUSALS))
def test_a_field_built_directly_is_checked_as_make_field_checks(name):
    """FieldSpec runs make_field's cheap checks, with its classes and
    messages: it used to intern Z/9 as a field and a second F9 under a
    non-monic key, and to raise a bare ValueError or an AssertionError.
    Nothing enters the cache."""
    args, error, message = DIRECT_REFUSALS[name]
    before = dict(_FIELDS)
    for build in (FieldSpec, make_field, FieldSpec):
        with pytest.raises(error) as raised:
            build(*args)
        assert str(raised.value) == message
    assert _FIELDS == before


def test_mixed_fields_rejected_across_twists_and_sizes(f9, f25):
    p, m, mod, _ = FIELDS["F81t2"]
    t1, t2 = make_field(p, m, mod, 1), make_field(p, m, mod, 2)
    with pytest.raises(MixedRingsError):
        t1.root() + t2.root()
    with pytest.raises(MixedRingsError):
        t1.root() * t2.root()
    with pytest.raises(MixedRingsError):
        f9.one - f25.one
    assert t1.root() != t2.root()


def test_structurally_equal_spec_is_accepted():
    """FieldSpec built directly returns the field make_field interned."""
    p, m, mod, t = FIELDS["F125"]
    interned = make_field(p, m, mod, t)
    separate = FieldSpec(p, m, mod, t)
    assert separate is interned
    x, y = interned.from_int(17), separate.from_int(99)
    assert (x * y).code == (y * x).code
    assert (x + y).code == (separate.from_int(17) + y).code
    assert x == separate.from_int(17)


ABOVE_MAX_Q = [
    (3, 12, [1] + [0] * 11 + [1]),
    (3, 10 ** 9, [1]),
    (10 ** 18 + 9, 1, [0, 1]),
    (MAX_Q + 2, 1, [0, 1]),
]


@pytest.mark.parametrize("p, m, mod", ABOVE_MAX_Q)
def test_fields_above_max_q_are_refused_quickly_without_allocating(p, m, mod):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(FieldTooLargeError):
            make_field(p, m, mod)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 64 * 1024


@pytest.mark.parametrize("p, m, mod", ABOVE_MAX_Q)
def test_a_field_above_max_q_built_directly_is_refused_before_any_table(p, m, mod, monkeypatch):
    """FieldSpec refuses q above MAX_Q before it builds a table; it used to
    build them with no bound."""
    def build(spec):
        raise AssertionError("tables built")

    monkeypatch.setattr(FieldSpec, "_build_tables", build)
    with pytest.raises(FieldTooLargeError, match=r"^q = \d+\^\d+ exceeds MAX_Q = 177147$"):
        FieldSpec(p, m, mod, 1)


def test_a_field_of_size_max_q_is_built():
    spec = make_field(3, 11, [2, 1, 2, 1, 1, 1, 2, 2, 2, 2, 0, 1])
    assert spec.q == MAX_Q
    g = spec.exp[1]
    assert g.pow_int(MAX_Q - 1) == spec.one
    assert g * g.inverse() == spec.one
