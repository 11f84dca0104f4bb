import random

import pytest

from skewcodes.errors import (
    BadTwistError,
    DivisionByZeroError,
    MixedRingsError,
    NonPrimeError,
    ReducibleModulusError,
)
from skewcodes.gf import make_field


def test_make_field_accepts_the_worked_fields(f25, f9, f49):
    assert (f25.q, f25.k) == (25, 2)
    assert (f9.q, f9.k) == (9, 2)
    assert (f49.q, f49.k) == (49, 2)


def test_make_field_rejects_reducible_modulus():
    # x^2 + x + 1 = (x + 2)^2 over F_3
    with pytest.raises(ReducibleModulusError):
        make_field(3, 2, [1, 1, 1])


def test_make_field_rejects_non_odd_prime():
    with pytest.raises(NonPrimeError):
        make_field(9, 2, [1, 1, 1])
    with pytest.raises(NonPrimeError):
        make_field(2, 2, [1, 1, 1])


def test_make_field_rejects_bad_twist():
    with pytest.raises(BadTwistError):
        make_field(5, 2, [1, 1, 1], t=3)


def test_make_field_rejects_non_monic():
    with pytest.raises(ReducibleModulusError):
        make_field(5, 2, [1, 1, 2])


def test_quintic_irreducibility_path():
    # Rabin's gcd step for the prime r = 5 | m: x^5 + x + 1 has the factor x + 2
    # over F_3, x^5 - x + 1 has no factor of degree <= 2
    with pytest.raises(ReducibleModulusError):
        make_field(3, 5, [1, 1, 0, 0, 0, 1])
    spec = make_field(3, 5, [1, 2, 0, 0, 0, 1])
    assert spec.q == 243


def test_modulus_relations(f9, f25, f49):
    a9, a25, a49 = f9.root(), f25.root(), f49.root()
    assert a9 * a9 == f9.constant(2)
    assert a25 * a25 == 4 * a25 + 4
    assert a49 * a49 == a49 + 4


def test_division_by_zero(f9):
    with pytest.raises(DivisionByZeroError):
        f9.zero.inverse()


def test_mixed_fields_rejected(f9, f25):
    with pytest.raises(MixedRingsError):
        f9.one + f25.one


def test_int_code_round_trip(f9, f25):
    for spec in (f9, f25):
        for code in range(spec.q):
            assert spec.from_int(code).to_int() == code


def test_prime_field_m1(f3):
    assert f3.q == 3
    assert f3.constant(2) + f3.constant(2) == f3.constant(1)
    assert f3.root() == f3.zero  # root of the modulus x


def test_field_axioms_on_random_pairs(f9, f25, f49):
    rng = random.Random(20240917)
    for spec in (f9, f25, f49):
        for _ in range(1000):
            x, y, z = (spec.random_element(rng) for _ in range(3))
            assert x + y == y + x
            assert x * y == y * x
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
        for _ in range(200):
            x = spec.random_element(rng)
            if not x.is_zero:
                assert x * x.inverse() == spec.one


def test_frobenius_on_f9(f9):
    a = f9.root()
    # alpha^3 computed by repeated multiplication
    assert a * a * a == 2 * a
    assert a.frob() == 2 * a
    assert a.frob().frob() == a  # k = 2 gives an involution


def test_frobenius_fixes_prime_subfield(f9, f25, f49, f27):
    for spec in (f9, f25, f49, f27):
        for c in range(spec.p):
            assert spec.constant(c).frob() == spec.constant(c)


def test_frobenius_is_ring_hom(f9, f25, f27):
    rng = random.Random(11)
    for spec in (f9, f25, f27):
        for _ in range(300):
            x, y = spec.random_element(rng), spec.random_element(rng)
            assert (x + y).frob() == x.frob() + y.frob()
            assert (x * y).frob() == x.frob() * y.frob()


def test_frobenius_order_exhaustive(f9, f25, f49):
    """theta^k = id on all of the field, exhaustively for q <= 49."""
    for spec in (f9, f25, f49):
        for x in spec.elements():
            assert x.frob(spec.k) == x


def test_fixed_subfield_is_exactly_prime_subfield(f9, f25, f49, f27):
    for spec in (f9, f25, f49, f27):
        fixed = [x for x in spec.elements() if x.frob() == x]
        assert len(fixed) == spec.p ** spec.t


def test_frobenius_powers_reduce_mod_order(f27):
    rng = random.Random(3)
    for _ in range(50):
        x = f27.random_element(rng)
        assert x.frob(3) == x
        assert x.frob(4) == x.frob(1)


def test_pow_negative_exponent(f25):
    a = f25.root()
    assert a ** (-1) == a.inverse()
    assert a ** 0 == f25.one
