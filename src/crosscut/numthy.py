"""Elementary number-theoretic primitives: sieve, divisor counts, totients, squarefreeness."""

from __future__ import annotations

import math


class PrimeSieve:
    """Immutable primality table for 0..limit."""

    __slots__ = ("limit", "is_prime")

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("sieve limit must be a positive integer")
        table = bytearray([1]) * (limit + 1)
        table[0] = 0
        table[1] = 0
        for p in range(2, math.isqrt(limit) + 1):
            if table[p]:
                table[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
        self.limit = limit
        self.is_prime: tuple[bool, ...] = tuple(bool(b) for b in table)

    def primes(self) -> list[int]:
        """All primes <= limit, ascending."""
        return [i for i in range(2, self.limit + 1) if self.is_prime[i]]


def sieve(limit: int) -> PrimeSieve:
    """Primality table up to limit by the sieve of Eratosthenes."""
    return PrimeSieve(limit)


def divisor_count(i: int) -> int:
    """d(i): number of divisors of i."""
    if i < 1:
        raise ValueError("divisor_count needs a positive integer")
    count = 0
    d = 1
    while d * d <= i:
        if i % d == 0:
            count += 1 if d * d == i else 2
        d += 1
    return count


def totient(i: int) -> int:
    """phi(i): count of 1 <= j <= i with gcd(i,j) = 1."""
    if i < 1:
        raise ValueError("totient needs a positive integer")
    result = i
    m = i
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def is_squarefree(i: int) -> bool:
    """True iff no prime square divides i."""
    if i < 1:
        raise ValueError("is_squarefree needs a positive integer")
    m = i
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return False
        p += 1
    return True


def chebyshev_primes(n: int) -> list[int]:
    """The primes p with n/2 < p <= n, ascending; each divides no other element of [n]."""
    table = PrimeSieve(n).is_prime
    # strict bound n/2 < p done in integers as p >= n // 2 + 1
    return [p for p in range(n // 2 + 1, n + 1) if table[p]]


def chebyshev_count(n: int) -> int:
    """C(n): number of primes p with n/2 < p <= n; >= 1 for n >= 2."""
    if n < 2:
        raise ValueError("chebyshev_count needs n >= 2")
    return len(chebyshev_primes(n))
