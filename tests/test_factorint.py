"""Two-squares representations and the sieve of x^2 + 1."""

from math import isqrt
from random import Random

from buchi4.factorint import gaussian_reps, sieve_square_plus_one, two_square_reps


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


def test_gaussian_reps_from_the_sieve_match_brute_force():
    # the search's call: 2 (x^2 + 1) from the sieve's odd factors of x^2 + 1
    factors = sieve_square_plus_one(3000)
    for x in range(2, 3001):
        reps = gaussian_reps(1, 1 + (x & 1), factors[x])
        assert reps == brute_reps(2 * x * x + 2), x


def test_one_split_prime_gives_only_the_trivial_representation():
    # x^2 + 1 = p or 2p, p prime: the search skips x without decomposing it
    factors = sieve_square_plus_one(3000)
    lone = [
        x for x in range(2, 3001) if len(factors[x]) == 1 and factors[x][0][1] == 1
    ]
    assert sum(x <= 1500 for x in lone) == 344
    for x in lone:
        assert brute_reps(2 * x * x + 2) == [(x - 1, x + 1)], x
