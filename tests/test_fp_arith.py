"""Field arithmetic, digitwise binomials, and the alternating sum identity."""

from math import comb

import pytest

from modinv.fp_arith import (
    binomial_sum_check,
    check_prime,
    divisors,
    lucas_binom,
    primitive_root,
)

from oracles import element_order

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_field_axioms_exhaustive(p):
    for a in range(1, p):
        b = pow(a, -1, p)
        assert 0 <= b < p
        assert a * b % p == 1


def test_composite_modulus_rejected():
    for bad in [1, 4, 9, 15]:
        with pytest.raises(ValueError):
            check_prime(bad)


@pytest.mark.parametrize("bad", [3.0, 7.0, [3], "3", None])
def test_check_prime_rejects_non_integers_after_the_prime_was_cached(bad):
    check_prime(3)
    check_prime(7)
    with pytest.raises(ValueError):
        check_prime(bad)


def test_lucas_examples():
    assert comb(4, 2) % 3 == 0
    assert lucas_binom(4, 2, 3) == 0
    for p in SMALL_PRIMES:
        for k in range(1, p):
            assert lucas_binom(p, k, p) == 0
    assert lucas_binom(7, 7, 7) == 1
    assert type(lucas_binom(7, 7, 7)) is int
    assert lucas_binom(3, 5, 7) == 0


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_lucas_against_bigint_factorials(p):
    for a in range(201):
        for b in range(201):
            assert lucas_binom(a, b, p) == comb(a, b) % p


def test_binomial_sum_examples():
    # sum_{t<3} C(12, 2+4t) = 66 + 924 + 66 = 1056 = 1 mod 5
    assert sum(comb(12, 2 + 4 * t) for t in range(3)) == 1056
    assert binomial_sum_check(5, 2, 3) == 1
    assert type(binomial_sum_check(5, 2, 3)) is int
    # single-term cases
    assert comb(2, 1) == 2
    assert binomial_sum_check(3, 1, 1) == 2
    assert comb(1, 0) == 1
    assert binomial_sum_check(2, 0, 1) == 1


def test_binomial_sum_domain_errors():
    with pytest.raises(ValueError):
        binomial_sum_check(5, 5, 1)
    with pytest.raises(ValueError):
        binomial_sum_check(5, 0, 0)
    with pytest.raises(ValueError):
        binomial_sum_check(5, 0, 5)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_binomial_sum_identity_exhaustive(p):
    for i in range(p):
        for k in range(1, p):
            assert binomial_sum_check(p, i, k) == pow(-1, i, p)


def test_primitive_roots_are_least_generators():
    for p in SMALL_PRIMES:
        z = primitive_root(p)
        if p == 2:
            assert z == 1
            continue
        assert element_order(z, p) == p - 1
        for smaller in range(2, z):
            assert element_order(smaller, p) != p - 1


def test_divisors():
    assert divisors(6) == [1, 2, 3, 6]
    assert divisors(1) == [1]
