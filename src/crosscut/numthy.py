"""Elementary number-theoretic primitives: sieve, factorization, and the divisor
counts, totients and squarefreeness read off it."""

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


def factorize(i: int) -> dict[int, int]:
    """{p: e} with i = prod p**e over the primes p dividing i, by trial division."""
    if i < 1:
        raise ValueError(f"factorize needs a positive integer, got {i}")
    factors: dict[int, int] = {}
    p = 2
    while p * p <= i:
        while i % p == 0:
            factors[p] = factors.get(p, 0) + 1
            i //= p
        p += 1
    if i > 1:
        factors[i] = 1
    return factors


def divisor_count(i: int) -> int:
    """d(i): number of divisors of i."""
    return math.prod(e + 1 for e in factorize(i).values())


def totient(i: int) -> int:
    """phi(i): count of 1 <= j <= i with gcd(i,j) = 1."""
    return math.prod((p - 1) * p ** (e - 1) for p, e in factorize(i).items())


def is_squarefree(i: int) -> bool:
    """True iff no prime square divides i."""
    return all(e == 1 for e in factorize(i).values())


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
