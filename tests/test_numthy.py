import math

import pytest

from crosscut import numthy

import oracles


def test_factorize_exhaustive():
    for i in range(1, 2001):
        factors = numthy.factorize(i)
        assert math.prod(p**e for p, e in factors.items()) == i
        assert set(factors) <= set(oracles.primes_upto(i)), i
        assert all(e >= 1 for e in factors.values())


def test_is_squarefree_exhaustive():
    for i in range(1, 2001):
        want = all(i % (d * d) for d in range(2, int(i**0.5) + 1))
        assert numthy.is_squarefree(i) == want


def test_sieve_matches_trial_division():
    # chebyshev_primes reads factorize on (n/2, n]; the bound's ends are checked
    # at every n, odd and even
    primes = oracles.primes_upto(2000)
    for n in range(1, 2001):
        assert numthy.chebyshev_primes(n) == [p for p in primes if p <= n < 2 * p], n


def test_chebyshev_count_examples():
    # C(n), the number of primes p <= n with 2p > n
    for n, count in ((2, 1), (4, 1), (10, 1), (20, 4), (143, 14)):
        assert len(numthy.chebyshev_primes(n)) == count, n


def test_chebyshev_count_brute():
    # C(n) counted straight from the primes up to n, one brute-force list per n
    for n in range(2, 300):
        want = [p for p in oracles.primes_upto(n) if 2 * p > n]
        assert numthy.chebyshev_primes(n) == want
    assert numthy.chebyshev_primes(1) == []


def test_domain_errors():
    for fn in (numthy.factorize, numthy.is_squarefree, numthy.chebyshev_primes):
        with pytest.raises(ValueError):
            fn(0)
    with pytest.raises(ValueError):
        numthy.chebyshev_primes(-3)
