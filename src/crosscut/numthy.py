"""Elementary number-theoretic primitives: factorization, squarefreeness and the
primes in (n/2, n]."""

from __future__ import annotations


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


def is_squarefree(i: int) -> bool:
    """True iff no prime square divides i."""
    return all(e == 1 for e in factorize(i).values())


def chebyshev_primes(n: int) -> list[int]:
    """The primes p with n/2 < p <= n, ascending; each divides no other element of
    [n]."""
    if n < 1:
        raise ValueError(f"chebyshev_primes needs a positive integer, got {n}")
    # strict bound n/2 < p done in integers as p >= n // 2 + 1
    return [p for p in range(n // 2 + 1, n + 1) if factorize(p) == {p: 1}]
