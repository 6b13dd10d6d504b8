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


def products_from_the_docstring(two_exp, primes):
    """gaussian_products built as its docstring describes it: per prime,
    the factors p^m conj(pi)^(e-2m) for 0 <= m <= e // 2, then their
    conjugates for 2m < e, the first prime on the conjugate side only;
    then every choice of one factor per prime, the last prime's choice
    varying fastest, times 2^(two_exp // 2) (1 + i)^(two_exp % 2)."""
    choices = []
    for k, ((a, b), e) in enumerate(primes):
        p = a * a + b * b
        side = []
        for m in range(e // 2 + 1):
            z = (p**m, 0)
            for _ in range(e - 2 * m):
                z = gmul(z, (a, -b))
            side.append(z)
        conjugates = [(c, -d) for m, (c, d) in enumerate(side) if 2 * m < e]
        choices.append(side if k == 0 else side + conjugates)
    s = 2 ** (two_exp // 2)
    base = (s, s) if two_exp % 2 else (s, 0)
    zs = []
    for factors in product(*choices):
        z = base
        for f in factors:
            z = gmul(z, f)
        zs.append(z)
    return zs


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
    # each pi divides x + i, x being a root of -1 mod its norm p
    stream = list(gaussian_factorizations(2000))
    xs = [x for x, _ in stream]
    assert xs == [x for x in range(2, 2001) if not lone(x)]
    for x, fac in stream:
        prod = 2 if x & 1 else 1
        norms = []
        for pi, e in fac:
            p = pi[0] ** 2 + pi[1] ** 2
            assert p % 4 == 1 and e >= 1 and is_prime(p)
            assert (x * x + 1) % p == 0 and divides(pi, (x, 1)), (x, pi)
            norms.append(p)
            prod *= p**e
        assert prod == x * x + 1, x
        assert len(set(norms)) == len(norms)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_stream_is_the_factorization_of_x_plus_i_in_any_block(monkeypatch, block):
    # (1 + i)^(x & 1) prod pi^e is x + i up to a unit, whatever the block
    reference = list(gaussian_factorizations(3000))
    monkeypatch.setattr(factorint, "_BLOCK", block)
    stream = list(gaussian_factorizations(3000))
    assert stream == reference
    for x, fac in stream:
        z = (1, 1) if x & 1 else (1, 0)
        for pi, e in fac:
            for _ in range(e):
                z = gmul(z, pi)
        assert (x, 1) in units(z), (x, fac)


def test_gaussian_reps_from_the_sieve_match_brute_force():
    # the search's call: 2 (x^2 + 1) from the Gaussian primes of x + i
    stream = dict(gaussian_factorizations(3000))
    for x in range(2, 3001):
        if x in stream:
            zs = gaussian_products(1 + (x & 1), stream[x])
            assert zs == products_from_the_docstring(1 + (x & 1), stream[x]), x
            reps = reps_from_primes(1, 1 + (x & 1), stream[x])
        else:
            reps = [(x - 1, x + 1)]
        assert reps == brute_reps(2 * x * x + 2), x


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
        zs = gaussian_products(two_exp, primes)
        assert zs == products_from_the_docstring(two_exp, primes), two_exp


def test_one_split_prime_gives_only_the_trivial_representation():
    # x^2 + 1 = p or 2p, p prime: the stream leaves x out, and the only
    # representation of 2 (x^2 + 1) is the trivial one
    streamed = {x for x, _ in gaussian_factorizations(3000)}
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
