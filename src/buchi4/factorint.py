"""Sums of two squares over the Gaussian integers.

The search needs the factorization of 2(x^2 + 1) for every x up to a
bound.  `sieve_square_plus_one` gets all of them at once from the classical
sieve of x^2 + 1, which also hands out a square root of -1 modulo every
prime it finds, so no primality test and no general factoring is needed.
`two_square_reps` decomposes a single integer by trial division.  Both feed
one Gaussian-integer product that lists the representations.  Everything is
exact and stdlib-only.
"""

from __future__ import annotations

__all__ = [
    "gaussian_reps",
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


def _gaussian_mul(z, w):
    (a, b), (c, d) = z, w
    return (a * c - b * d, a * d + b * c)


def gaussian_reps(
    real: int, two_exp: int, split: list[tuple[int, int, int]]
) -> list[tuple[int, int]]:
    """All (r, s) with 0 <= r <= s and r^2 + s^2 = real^2 2^two_exp
    prod p^e, in ascending order, where split lists (p, e, root) for
    distinct primes p = 1 mod 4 and root^2 = -1 mod p."""
    base = (real, 0)
    for _ in range(two_exp):
        base = _gaussian_mul(base, (1, 1))
    reps = {base}
    for p, e, root in split:
        pi = _gaussian_gcd((p, 0), (root, 1))
        pibar = (pi[0], -pi[1])
        powers = []
        for j in range(e + 1):
            z = (1, 0)
            for _ in range(j):
                z = _gaussian_mul(z, pi)
            for _ in range(e - j):
                z = _gaussian_mul(z, pibar)
            powers.append(z)
        reps = {_gaussian_mul(z, w) for z in reps for w in powers}
    out = {tuple(sorted((abs(a), abs(b)))) for a, b in reps}
    return sorted(out)


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
