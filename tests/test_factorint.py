"""Two-squares representations and the segmented sieve of x^2 + 1."""

from itertools import product
from math import isqrt
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buchi4 import factorint
from buchi4.factorint import (
    gaussian_factorizations,
    gaussian_prime,
    gaussian_products,
    reps_from_primes,
    sqrt_minus_one_mod,
    two_square_reps,
)


def brute_reps(n):
    out = []
    for r in range(isqrt(n // 2) + 1):
        s = isqrt(n - r * r)
        if s * s == n - r * r:
            out.append((r, s))
    return out


def is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in bases:
        y = pow(a, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def gaussian_gcd(z, w):
    """gcd in Z[i] by Euclidean division with rounded quotients: the
    reference for gaussian_prime."""
    while w != (0, 0):
        (a, b), (c, d) = z, w
        norm = c * c + d * d
        # round((a+bi)(c-di)/norm) componentwise
        re_num = a * c + b * d
        im_num = b * c - a * d
        qr = (2 * re_num + norm) // (2 * norm)
        qi = (2 * im_num + norm) // (2 * norm)
        rr = a - (qr * c - qi * d)
        ri = b - (qr * d + qi * c)
        z, w = w, (rr, ri)
    return z


def gmul(z, w):
    (a, b), (c, d) = z, w
    return a * c - b * d, a * d + b * c


def units(z):
    a, b = z
    return {(a, b), (-b, a), (-a, -b), (b, -a)}


def divides(pi, z):
    """pi divides z in Z[i]: z conj(pi) is a multiple of the norm of pi."""
    (a, b), p = pi, pi[0] ** 2 + pi[1] ** 2
    u, v = gmul(z, (a, -b))
    return u % p == 0 and v % p == 0


def lone(x):
    """x^2 + 1 is p or 2p for a prime p."""
    return is_prime(x * x + 1 >> (x & 1))


def products_from_the_docstring(z0, factors, half_first):
    """gaussian_products built as its docstring describes it: every choice
    of m = 0..e per factor ((c, d, p), e), m <= e // 2 for the first when
    half_first is set, the last factor's choice varying fastest, each
    z0 (c + di)^m / p^m, divided only at the end."""
    choices = [
        range(e // 2 + 1 if half_first and k == 0 else e + 1)
        for k, (_, e) in enumerate(factors)
    ]
    zs = []
    for ms in product(*choices):
        z, q = z0, 1
        for ((c, d, p), _), m in zip(factors, ms):
            for _ in range(m):
                z = gmul(z, (c, d))
            q *= p**m
        assert z[0] % q == 0 and z[1] % q == 0, (z0, factors, ms)
        zs.append((z[0] // q, z[1] // q))
    return zs


def start_and_factors(two_exp, primes):
    """(1 + i)^two_exp prod pi^e and the factors ((c, d, p), e),
    c + di = conj(pi)^2, for primes listing (pi, e)."""
    z0 = (1, 0)
    for _ in range(two_exp):
        z0 = gmul(z0, (1, 1))
    factors = []
    for (a, b), e in primes:
        for _ in range(e):
            z0 = gmul(z0, (a, b))
        factors.append(((*gmul((a, -b), (a, -b)), a * a + b * b), e))
    return z0, factors


def pairs(zs):
    """The (|a|, |b|) sorted of each a + bi, sorted, duplicates dropped."""
    return sorted({tuple(sorted((abs(u), abs(v)))) for u, v in zs})


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
    # the factors and the leftover multiply back to x^2 + 1 less its 2;
    # each c + di is conj(pi)^2, pi | x + i, so (c + di)(x + i) = 0 mod p;
    # and the factors come in ascending order of their least roots, all
    # below x, the leftover's least root being x
    stream = list(gaussian_factorizations(2000))
    xs = [x for x, _, _ in stream]
    assert xs == [x for x in range(2, 2001) if not lone(x)]
    for x, leftover, factors in stream:
        assert leftover == 1 or (is_prime(leftover) and leftover > 2 * x), x
        prod = leftover
        roots = []
        for (c, d, p), e in factors:
            assert p % 4 == 1 and e >= 1 and is_prime(p)
            assert c * c + d * d == p * p
            u, v = gmul((c, d), (x, 1))
            assert u % p == 0 and v % p == 0, (x, c, d, p)
            roots.append(min(x % p, -x % p))
            prod *= p**e
        assert prod == x * x + 1 >> (x & 1), x
        assert roots == sorted(set(roots)) and all(r < x for r in roots), x


@pytest.mark.parametrize("block", [1, 7, 64])
def test_stream_is_the_factorization_of_x_plus_i_in_any_block(monkeypatch, block):
    # (x + i) prod (c + di)^e / p^e is a Gaussian integer, so pi^e divides
    # x + i for each factor, whatever the block
    reference = list(gaussian_factorizations(3000))
    monkeypatch.setattr(factorint, "_BLOCK", block)
    stream = list(gaussian_factorizations(3000))
    assert stream == reference
    for x, _, factors in stream:
        z, q = (x, 1), 1
        for (c, d, p), e in factors:
            for _ in range(e):
                z = gmul(z, (c, d))
            q *= p**e
        assert z[0] % q == 0 and z[1] % q == 0, (x, factors)


def test_cornacchia_runs_only_for_primes_that_come_back(monkeypatch):
    # a prime p is found at its least root r and comes back at p - r, so
    # the stream needs its Gaussian prime only when p - r <= the bound
    calls = []

    def counted(p, root):
        calls.append(p)
        return gaussian_prime(p, root)

    monkeypatch.setattr(factorint, "gaussian_prime", counted)
    for _ in gaussian_factorizations(3000):
        pass
    expected = []
    for p in range(5, 6001, 4):
        if is_prime(p):
            r = next(r for r in range(2, p) if (r * r + 1) % p == 0)
            if p - r <= 3000:
                expected.append(p)
    assert sorted(calls) == expected
    assert len(calls) == 279


def test_gaussian_reps_from_the_sieve_match_brute_force():
    # the search's call: 2 (x^2 + 1) from z0 = (1 + i)(x + i), the prime
    # found at x held on its pi side, else the first factor halved; with a
    # leftover or an odd first exponent no pair comes up twice
    stream = {x: rest for x, *rest in gaussian_factorizations(3000)}
    for x in range(2, 3001):
        z0 = (x - 1, x + 1)
        if x in stream:
            leftover, factors = stream[x]
            half_first = leftover == 1
            zs = gaussian_products(z0, factors, half_first)
            assert zs == products_from_the_docstring(z0, factors, half_first), x
            if not half_first or factors[0][1] & 1:
                assert len(pairs(zs)) == len(zs), x
        else:
            zs = [z0]
        assert pairs(zs) == brute_reps(2 * x * x + 2), x


@pytest.mark.parametrize(
    "exponents",
    [
        (),
        (1,),
        (2,),
        (1, 1, 1),
        (1, 2),  # e = 1 first, then e >= 2
        (2, 1),  # e >= 2 first, an even first exponent
        (3, 1, 2),  # an odd first exponent above 1
        (1, 4, 1, 3),
        (4, 3, 1, 1),
    ],
)
def test_gaussian_products_keep_their_order(exponents):
    # the search skips zs[0] as the trivial product, so the order, not
    # only the set, is what gaussian_products promises
    norms = (5, 13, 17, 29)
    primes = [
        (gaussian_prime(p, sqrt_minus_one_mod(p)), e) for p, e in zip(norms, exponents)
    ]
    for two_exp in range(4):
        z0, factors = start_and_factors(two_exp, primes)
        for half_first in (False, True):
            zs = gaussian_products(z0, factors, half_first)
            assert zs[0] == z0, (two_exp, half_first)
            expected = products_from_the_docstring(z0, factors, half_first)
            assert zs == expected, (two_exp, half_first)
        n = 2**two_exp
        for p, e in zip(norms, exponents):
            n *= p**e
        assert pairs(zs) == reps_from_primes(1, two_exp, primes) == brute_reps(n)


def test_one_split_prime_gives_only_the_trivial_representation():
    # x^2 + 1 = p or 2p, p prime: the stream leaves x out, and the only
    # representation of 2 (x^2 + 1) is the trivial one
    streamed = {x for x, _, _ in gaussian_factorizations(3000)}
    left_out = [x for x in range(2, 3001) if x not in streamed]
    assert sum(x <= 1500 for x in left_out) == 344
    for x in left_out:
        assert lone(x), x
        assert brute_reps(2 * x * x + 2) == [(x - 1, x + 1)], x


@given(
    st.integers(min_value=5, max_value=2**61 - 2**12),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_gaussian_prime_matches_the_gaussian_gcd(start, other_root):
    p = start + (1 - start) % 4
    while not is_prime(p):
        p += 4
    root = sqrt_minus_one_mod(p)
    if other_root:
        root = p - root
    a, b = gaussian_prime(p, root)
    assert a * a + b * b == p
    assert divides((a, b), (root, 1))
    assert (a, b) in units(gaussian_gcd((p, 0), (root, 1)))


@pytest.mark.parametrize("n", [9, 21, 25, 49, 561])
def test_sqrt_minus_one_mod_refuses_composites(n):
    with pytest.raises(ValueError):
        sqrt_minus_one_mod(n)


def test_sqrt_minus_one_mod_on_primes():
    # the first a with a^((p-1)/2) = -1 gives a^((p-1)/4), as before
    for p in range(3, 3000, 2):
        if not is_prime(p):
            continue
        if p % 4 == 3:
            with pytest.raises(ValueError):
                sqrt_minus_one_mod(p)
            continue
        a = 2
        while pow(a, (p - 1) // 2, p) != p - 1:
            a += 1
        assert sqrt_minus_one_mod(p) == pow(a, (p - 1) // 4, p), p


def test_gaussian_prime_refuses_a_wrong_root():
    # 3^2 = 2 mod 7: Euclid stops at 1, and 1 + 2^2 is 5, not 7
    with pytest.raises(ValueError):
        gaussian_prime(7, 3)
    with pytest.raises(ValueError):
        gaussian_prime(13, 4)
