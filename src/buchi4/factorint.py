"""Sums of two squares over the Gaussian integers.

The search needs the factorization of 2(x^2 + 1) for every x up to a
bound.  `sieve_square_plus_one` gets all of them at once from the classical
sieve of x^2 + 1, which also hands out a square root of -1 modulo every
prime it finds, so no primality test and no general factoring is needed.
`two_square_reps` decomposes a single integer by trial division.  Both feed
one Gaussian-integer product, `reps_from_primes`, that lists the
representations; a caller that meets the same prime many times finds its
Gaussian prime once with `gaussian_prime`.  Everything is exact and
stdlib-only.
"""

from __future__ import annotations

__all__ = [
    "gaussian_prime",
    "gaussian_reps",
    "reps_from_primes",
    "sieve_square_plus_one",
    "sqrt_minus_one_mod",
    "two_square_reps",
]


def sieve_square_plus_one(n_max: int) -> list[list[tuple[int, int, int]]]:
    """For 0 <= x <= n_max, the odd prime factors of x^2 + 1 as (p, e, r):
    p^e exactly divides x^2 + 1 and r is the least root of r^2 = -1 mod p.
    The factor 2 is left out: it divides x^2 + 1 once for odd x, else not.

    rem[x] starts as x^2 + 1 with the 2 taken out.  Walking x upward, every
    prime whose least root is below x has been divided out of rem[x] at
    that root, and two primes with least root x would each exceed 2x, so
    their product would exceed x^2 + 1.  Hence rem[x] is 1 or a prime p with
    least root x, divided out in turn at x + kp and p - x + kp."""
    rem = [x * x + 1 >> (x & 1) for x in range(n_max + 1)]
    factors: list[list[tuple[int, int, int]]] = [[] for _ in range(n_max + 1)]
    for x in range(1, n_max + 1):
        p = rem[x]
        if p == 1:
            continue
        for start in (x, p - x):
            for y in range(start, n_max + 1, p):
                q, e = rem[y] // p, 1
                while q % p == 0:
                    q, e = q // p, e + 1
                rem[y] = q
                factors[y].append((p, e, x))
    return factors


def sqrt_minus_one_mod(p: int) -> int:
    """A square root of -1 modulo a prime p congruent to 1 mod 4."""
    if p % 4 != 1:
        raise ValueError("p must be 1 mod 4")
    a = 2
    while pow(a, (p - 1) // 2, p) != p - 1:
        a += 1
    return pow(a, (p - 1) // 4, p)


def _gaussian_gcd(z, w):
    """gcd in Z[i] by Euclidean division with rounded quotients."""
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


def gaussian_prime(p: int, root: int) -> tuple[int, int]:
    """The Gaussian prime a + bi of norm p that divides root + i, for a
    prime p = 1 mod 4 and root^2 = -1 mod p."""
    return _gaussian_gcd((p, 0), (root, 1))


def gaussian_reps(
    real: int, two_exp: int, split: list[tuple[int, int, int]]
) -> list[tuple[int, int]]:
    """All (r, s) with 0 <= r <= s and r^2 + s^2 = real^2 2^two_exp
    prod p^e, in ascending order, where split lists (p, e, root) for
    distinct primes p = 1 mod 4 and root^2 = -1 mod p."""
    return reps_from_primes(
        real, two_exp, [(gaussian_prime(p, root), e) for p, e, root in split]
    )


def reps_from_primes(
    real: int, two_exp: int, primes: list[tuple[tuple[int, int], int]]
) -> list[tuple[int, int]]:
    """gaussian_reps with each split prime p^e given as (pi, e), pi its
    Gaussian prime, so that a caller can find each pi once.

    Every z = a + bi of that norm is a unit times real (1+i)^two_exp
    times, for each prime, pi^j pibar^(e-j), and (|a|, |b|) sorted forgets
    units and conjugation.  (1+i)^k is a unit times 2^(k//2) (1+i)^(k%2), and
    conjugating z flips every j to e - j, so the first prime needs only
    j <= e // 2; when its e is odd, no pair comes up twice.
    pi^j pibar^(e-j) is p^m times pi^(j-m) pibar^(e-j-m), m = min(j, e - j),
    so one list of powers of pi gives every factor."""
    s = real << (two_exp >> 1)
    zs = [(s, s) if two_exp & 1 else (s, 0)]
    first = True
    for (a, b), e in primes:
        if e == 1:  # most primes: no table of powers
            factors = [(a, -b)] if first else [(a, -b), (a, b)]
        else:
            p = a * a + b * b
            powers = [(1, 0)]
            for _ in range(e):
                c, d = powers[-1]
                powers.append((a * c - b * d, a * d + b * c))
            factors = []
            for m in range(e // 2 + 1):
                c, d = powers[e - 2 * m]
                q = p**m
                factors.append((q * c, -q * d))  # p^m pibar^(e-2m)
                if not first and 2 * m < e:
                    factors.append((q * c, q * d))  # p^m pi^(e-2m)
        first = False
        zs = [(u * c - v * d, u * d + v * c) for u, v in zs for c, d in factors]
    zs = [(abs(u), abs(v)) for u, v in zs]
    pairs = [(u, v) if u <= v else (v, u) for u, v in zs]
    if primes and not primes[0][1] & 1:
        pairs = set(pairs)
    return sorted(pairs)


def two_square_reps(n: int) -> list[tuple[int, int]]:
    """All (r, s) with 0 <= r <= s and r^2 + s^2 = n, in ascending order.

    Empty when some prime 3 mod 4 divides n to an odd power.
    """
    if n < 0:
        return []
    if n == 0:
        return [(0, 0)]
    two_exp = (n & -n).bit_length() - 1
    n >>= two_exp
    real = 1
    split = []
    p = 3
    while n > 1:
        if p * p > n:
            p = n  # no factor up to sqrt(n) is left, so n is prime
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e and p % 4 == 3:
            if e & 1:
                return []
            real *= p ** (e // 2)
        elif e:
            split.append((p, e, sqrt_minus_one_mod(p)))
        p += 2
    return gaussian_reps(real, two_exp, split)
