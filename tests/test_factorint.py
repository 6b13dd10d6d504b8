"""Two-squares representations and the sieve of x^2 + 1."""

from math import isqrt
from random import Random

from buchi4.factorint import sieve_square_plus_one, two_square_reps


def brute_reps(n):
    out = []
    for r in range(isqrt(n // 2) + 1):
        s = isqrt(n - r * r)
        if s * s == n - r * r:
            out.append((r, s))
    return out


def test_two_square_reps_matches_brute_force():
    assert two_square_reps(-1) == []
    for n in range(5000):
        assert two_square_reps(n) == brute_reps(n), n


def test_two_square_reps_on_search_radicands():
    # the values 2 x^2 + 2 the search decomposes
    rng = Random(5)
    for x in rng.sample(range(2, 1501), 300):
        n = 2 * x * x + 2
        assert two_square_reps(n) == brute_reps(n), x


def test_sieve_factors_multiply_back_with_roots():
    factors = sieve_square_plus_one(2000)
    assert len(factors) == 2001
    for x, fac in enumerate(factors):
        prod = 2 if x & 1 else 1
        for p, e, r in fac:
            assert p % 4 == 1 and e >= 1
            assert (r * r + 1) % p == 0, (x, p, r)
            prod *= p**e
        assert prod == x * x + 1, x
        assert len({p for p, _, _ in fac}) == len(fac)
