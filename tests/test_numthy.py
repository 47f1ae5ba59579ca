import math
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosscut import numthy

import oracles


def test_sieve_matches_trial_division():
    assert numthy.sieve(200).primes() == oracles.primes_upto(200)
    assert numthy.sieve(2).primes() == [2]
    assert numthy.sieve(1).primes() == []
    assert sum(numthy.sieve(143).is_prime) == 34
    # a square limit is its own last sieving bound
    for p in (2, 3, 5, 7, 11, 13):
        table = numthy.sieve(p * p).is_prime
        assert table[p] and not table[p * p]


def test_prime_sieve_table():
    ps = numthy.PrimeSieve(50)
    marks = [i for i in range(51) if ps.is_prime[i]]
    assert marks == oracles.primes_upto(50)
    assert ps.primes() == oracles.primes_upto(50)


def test_factorize_exhaustive():
    for i in range(1, 2001):
        factors = numthy.factorize(i)
        assert math.prod(p**e for p, e in factors.items()) == i
        assert set(factors) <= set(oracles.primes_upto(i)), i
        assert all(e >= 1 for e in factors.values())


def test_divisor_count_exhaustive():
    for i in range(1, 2001):
        want = sum(1 for d in range(1, i + 1) if i % d == 0)
        assert numthy.divisor_count(i) == want


def test_totient_exhaustive():
    for i in range(1, 2001):
        want = sum(1 for d in range(1, i + 1) if gcd(d, i) == 1)
        assert numthy.totient(i) == want


def test_is_squarefree_exhaustive():
    for i in range(1, 2001):
        want = all(i % (d * d) for d in range(2, int(i**0.5) + 1))
        assert numthy.is_squarefree(i) == want


def test_chebyshev_count_examples():
    # primes p <= n with 2p > n
    assert numthy.chebyshev_count(4) == 1
    assert numthy.chebyshev_count(10) == 1
    assert numthy.chebyshev_count(20) == 4
    assert numthy.chebyshev_count(143) == 14
    assert numthy.chebyshev_count(2) == 1


def test_chebyshev_count_brute():
    for n in range(2, 300):
        want = [p for p in oracles.primes_upto(n) if 2 * p > n]
        assert numthy.chebyshev_primes(n) == want
        assert numthy.chebyshev_count(n) == len(want)
    assert numthy.chebyshev_primes(1) == []


def test_domain_errors():
    for fn in (numthy.factorize, numthy.divisor_count, numthy.totient, numthy.is_squarefree):
        with pytest.raises(ValueError):
            fn(0)
    with pytest.raises(ValueError):
        numthy.chebyshev_count(1)


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=1, max_value=10_000))
def test_totient_multiplicative_sample(i):
    # sum of phi(d) over divisors d of i equals i
    divisors = [d for d in range(1, i + 1) if i % d == 0]
    assert sum(numthy.totient(d) for d in divisors) == i
