"""Finite field construction and arithmetic."""

import random
from itertools import product

import numpy as np
import pytest

from c4book import field_new, gf
from c4book.errors import (
    CapExceeded,
    DivisionByZero,
    DomainError,
    NonPrimeCharacteristic,
    NotPrimePower,
)

from oracles import (
    coeffs_of,
    index_of,
    naive_field_add,
    naive_field_mul,
    poly_mod,
    prime_power_decompose_reference,
)

PRIME_POWERS_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
                   37, 41, 43, 47, 49, 53, 59, 61, 64]
PRIME_POWERS_512 = PRIME_POWERS_64 + [81, 121, 125, 128, 169, 243, 256, 289, 343,
                                      361, 512]


def field_for(q):
    return field_new(*gf.prime_power_decompose(q))


# -- modulus selection --


def test_modulus_prime_field_is_x():
    assert field_new(2, 1).modulus == (0, 1)
    assert field_new(13, 1).modulus == (0, 1)


def test_modulus_gf4():
    # unique monic irreducible quadratic over GF(2)
    assert field_new(2, 2).modulus == (1, 1, 1)


def test_modulus_gf9_matches_enumeration_oracle():
    # oracle: first monic quadratic over Z_3 without a root, constant term first
    expected = None
    for c0, c1 in product(range(3), repeat=2):
        if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
            expected = (c0, c1, 1)
            break
    assert expected == (1, 0, 1)
    assert field_new(3, 2).modulus == expected


def test_modulus_is_irreducible_by_trial_division():
    for q in (8, 16, 27, 81, 64):
        field = field_for(q)
        p, e = field.p, field.e
        for d in range(1, e // 2 + 1):
            for low in product(range(p), repeat=d):
                divisor = low + (1,)
                assert poly_mod(field.modulus, divisor, p), (q, divisor)


# -- arithmetic examples --


def test_gf2_add():
    t = field_new(2, 1).tables
    assert t.add(1, 1) == 0


def test_gf4_x_squared():
    t = field_new(2, 2).tables
    x = index_of((0, 1), 2)
    assert coeffs_of(t.mul(x, x), 2, 2) == (1, 1)  # x^2 = x + 1


def test_gf9_x_squared():
    t = field_new(3, 2).tables
    x = index_of((0, 1), 3)
    assert coeffs_of(t.mul(x, x), 3, 2) == (2, 0)  # x^2 = -1 = 2


def test_elements_order_and_closure():
    # index i has the base-p digits of i as coefficients, constant term first
    assert [coeffs_of(i, 2, 1) for i in range(2)] == [(0,), (1,)]
    assert [coeffs_of(i, 3, 1) for i in range(3)] == [(0,), (1,), (2,)]
    field = field_new(2, 2)
    t = field.tables
    assert field.q == 4
    for a in range(4):
        assert t.add(0, a) == a and t.mul(1, a) == a  # index 0 is zero, 1 is one
        for b in range(4):
            assert 0 <= t.add(a, b) < 4
            assert 0 <= t.mul(a, b) < 4


# -- errors --


def test_order_cap_checked_before_primality_and_power(monkeypatch):
    # 2^(10^8) has 30 million digits: the cap must refuse it without the
    # power, and a huge p without a primality test
    monkeypatch.setattr(gf, "is_prime", lambda p: pytest.fail(f"is_prime({p}) ran before the cap"))
    for p, e in [(2, 10**8), (2, 21), (1031, 2), (1048583, 1), (10**40, 1)]:
        with pytest.raises(CapExceeded) as info:
            field_new(p, e)
        assert len(str(info.value)) < 100
    monkeypatch.undo()
    assert field_new(1021, 2).q == 1021**2  # at most the cap: built


def test_error_cases():
    with pytest.raises(NonPrimeCharacteristic):
        field_new(6, 1)
    with pytest.raises(CapExceeded):
        field_new(2, 30)
    with pytest.raises(DomainError):
        field_new(2, 0)
    t = field_new(5, 1).tables
    with pytest.raises(DivisionByZero):
        t.inv(0)
    with pytest.raises(DivisionByZero):
        t.pow(0, -1)


# -- table arithmetic against naive polynomial arithmetic --


@pytest.mark.parametrize("q", PRIME_POWERS_64 + [81, 125, 128, 243, 256, 512])
def test_table_arithmetic_matches_polynomial_oracle(q):
    """Every a against every b for q <= 64; against a seeded sample above."""
    field = field_for(q)
    p, e, t = field.p, field.e, field.tables
    if q <= 64:
        sample = range(q)
    else:
        sample = sorted({0, 1, p, q - 1} | set(random.Random(q).sample(range(q), 24)))
    for a in range(q):
        for b in sample:
            assert t.add(a, b) == naive_field_add(a, b, p, e), (q, a, b)
            assert t.mul(a, b) == naive_field_mul(a, b, p, e, field.modulus), (q, a, b)
        assert naive_field_add(a, t.neg(a), p, e) == 0
        if a:
            assert naive_field_mul(a, t.inv(a), p, e, field.modulus) == 1
    a, power = q - 1, 1
    for k in range(6):
        assert t.pow(a, k) == power
        power = naive_field_mul(power, a, p, e, field.modulus)
    assert t.pow(a, q - 1) == 1 and t.pow(a, -1) == t.inv(a)


# -- field axioms, exhaustively --


def _tables(q):
    field = field_for(q)
    t, els = field.tables, range(q)
    add = np.array([[t.add(a, b) for b in els] for a in els], dtype=np.int32)
    mul = np.array([[t.mul(a, b) for b in els] for a in els], dtype=np.int32)
    return field, add, mul


@pytest.mark.parametrize("q", PRIME_POWERS_512)
def test_field_axioms_exhaustive(q):
    """Direct enumeration that (elements, add, mul) is a field.

    Associativity and distributivity run over all q^3 triples, vectorized
    per left operand to keep q = 512 tractable.
    """
    field, add, mul = _tables(q)
    # commutativity
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    # identities
    assert np.array_equal(add[0], np.arange(q))
    assert np.array_equal(mul[1], np.arange(q))
    assert np.all(mul[0] == 0)
    # unique inverses
    assert np.all((add == 0).sum(axis=1) == 1)
    assert np.all((mul[1:] == 1).sum(axis=1) == 1)
    # associativity and distributivity, chunked over the first operand
    idx = np.arange(q)
    for a in range(q):
        # (a+b)+c == a+(b+c) for all b, c
        assert np.array_equal(add[add[a][:, None], idx[None, :]], add[a][add])
        # (a*b)*c == a*(b*c)
        assert np.array_equal(mul[mul[a][:, None], idx[None, :]], mul[a][mul])
        # a*(b+c) == a*b + a*c
        assert np.array_equal(mul[a][add], add[mul[a][:, None], mul[a][None, :]])


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_inverse_product_rule(q):
    t = field_for(q).tables
    for a in range(1, q):
        for b in range(1, q):
            assert t.inv(t.mul(a, b)) == t.mul(t.inv(a), t.inv(b))


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_frobenius(q):
    field = field_for(q)
    p, t = field.p, field.tables
    for a in range(q):
        for b in range(q):
            assert t.pow(t.add(a, b), p) == t.add(t.pow(a, p), t.pow(b, p))


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_inverse_definition(q):
    t = field_for(q).tables
    for a in range(1, q):
        assert t.mul(a, t.inv(a)) == 1


def test_prime_power_decompose():
    assert [q for q in range(2, 65) if gf.is_prime_power(q)] == PRIME_POWERS_64
    assert not gf.is_prime_power(0) and not gf.is_prime_power(1)
    assert gf.prime_power_decompose(8) == (2, 3)
    assert gf.prime_power_decompose(121) == (11, 2)
    assert gf.prime_power_decompose(13) == (13, 1)
    for bad in (1, 6, 12, 100):
        with pytest.raises(NotPrimePower):
            gf.prime_power_decompose(bad)


def _decompose_or_none(q):
    try:
        return gf.prime_power_decompose(q)
    except NotPrimePower:
        return None


def test_prime_power_decompose_matches_trial_division():
    # trial division below 2^16 decides every q < 2^32 alone; from 2^32 on,
    # a q with no factor below 2^16 goes through integer roots and Miller-Rabin
    qs = [*range(-2, 30000), *range(2**32 - 300, 2**32 + 300)]
    p, r = 65537, 65539  # the two least primes above 2^16
    qs += [p**e for e in range(1, 6)] + [p * r, p**2 * r, (p * r) ** 2, p**3 * 2]
    for q in qs:
        assert _decompose_or_none(q) == prime_power_decompose_reference(q), q


def test_prime_power_decompose_past_trial_division():
    q = 10**20 + 39  # prime
    assert gf.prime_power_decompose(q) == (q, 1)
    assert gf.prime_power_decompose(q**3) == (q, 3)
    assert gf.prime_power_decompose(2**61 - 1) == (2**61 - 1, 1)
    assert gf.is_prime(q) and not gf.is_prime(q**2)
    # strong pseudoprimes to the first 5, 9 and 12 prime bases
    for n in (2152302898747, 3825123056546413051, 318665857834031151167461):
        assert _decompose_or_none(n) is None, n
    # above the exact range a base that fails still proves a composite
    assert _decompose_or_none(2199023255579 * (10**25 + 13)) is None


def test_prime_power_undecided_above_the_miller_rabin_bound():
    for q in (10**25 + 13, (10**25 + 13) ** 2):  # 10^25 + 13 is prime
        with pytest.raises(CapExceeded, match="cannot decide"):
            gf.prime_power_decompose(q)
    assert gf.prime_power_decompose(2**100) == (2, 100)  # a small factor decides
