"""Exact arithmetic in the prime field F_p.

Prime checks, binomial coefficients via base-p digit products,
and the alternating binomial sum identity used by the coinvariant
computations. Also home of the primitive root search that fixes the
generator of F_p* used by the group catalog.
"""

from __future__ import annotations

_PRIMES_SEEN: set[int] = set()


def check_prime(p: int) -> int:
    """Validate that p is prime (trial division, cached) and return it."""
    # the type test comes before the cache: 3.0 would hit a cached 3, and [3] is unhashable
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"modulus must be a prime >= 2, got {p!r}")
    if p in _PRIMES_SEEN:
        return p
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"modulus must be prime, got {p} = {d} * {p // d}")
        d += 1
    _PRIMES_SEEN.add(p)
    return p


def _small_binom(a: int, b: int, p: int) -> int:
    # a, b < p; plain Pascal product, all intermediates < p**2
    if b < 0 or b > a:
        return 0
    b = min(b, a - b)
    num = den = 1
    for i in range(b):
        num = num * ((a - i) % p) % p
        den = den * (i + 1) % p
    return num * pow(den, -1, p) % p


def lucas_binom(a: int, b: int, p: int) -> int:
    """C(a, b) mod p as the product of base-p digit binomials.

    Zero when b > a; never overflows beyond p**2.
    """
    check_prime(p)
    if a < 0 or b < 0:
        raise ValueError("binomial arguments must be nonnegative")
    out = 1
    while a or b:
        out = out * _small_binom(a % p, b % p, p) % p
        if out == 0:
            return 0
        a //= p
        b //= p
    return out


def binomial_sum_check(p: int, i: int, k: int) -> int:
    """sum_{t=0}^{k-1} C(k(p-1), i + t(p-1)) mod p.

    Defined for 0 <= i < p and 1 <= k < p; the identity asserts the value
    is (-1)^i mod p, which the verification targets check exhaustively.
    """
    check_prime(p)
    if not (0 <= i < p):
        raise ValueError(f"need 0 <= i < p, got i={i}, p={p}")
    if not (1 <= k < p):
        raise ValueError(f"need 1 <= k < p, got k={k}, p={p}")
    total = 0
    n = k * (p - 1)
    for t in range(k):
        total += lucas_binom(n, i + t * (p - 1), p)
    return total % p


def primitive_root(p: int) -> int:
    """Least generator of F_p*. Returns 1 for p = 2."""
    check_prime(p)
    if p == 2:
        return 1
    order = p - 1
    prime_factors = []
    n, d = order, 2
    while d * d <= n:
        if n % d == 0:
            prime_factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        prime_factors.append(n)
    for g in range(2, p):
        if all(pow(g, order // q, p) != 1 for q in prime_factors):
            return g
    raise AssertionError(f"no primitive root found mod {p}")


def divisors(n: int) -> list[int]:
    """Positive divisors of n in increasing order."""
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out
