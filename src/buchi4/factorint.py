"""Sums of two squares over the Gaussian integers.

The search needs every way of writing 2(x^2 + 1) as a sum of two
squares, for every x up to a bound.  `gaussian_factorizations` streams
the Gaussian primes of x + i from a segmented sieve of x^2 + 1, one
block of x at a time; the sieve hands out a square root of -1 modulo
every prime it finds, so no primality test and no general factoring is
needed.  Cornacchia's algorithm, `gaussian_prime`, runs only for a prime
that comes back below the bound, and a carried prime waits in a bucket
keyed by the block where it next divides, so one of norm at least the
block is not visited at the blocks it skips; the memory is one block
plus the primes that come back.  The products start from one known
Gaussian integer of the norm, for the search the trivial
(1 + i)(x + i) = (x - 1) + (x + 1)i, and `gaussian_products` turns one
prime at a time from pi to conj(pi) by exact division.
`two_square_reps` decomposes a single integer by trial division and
finds the Gaussian prime of each split prime from a square root of -1;
`reps_from_primes` builds its starting product and feeds the same
routine.  Everything is exact and stdlib-only.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator

__all__ = [
    "gaussian_factorizations",
    "gaussian_prime",
    "gaussian_products",
    "reps_from_primes",
    "sqrt_minus_one_mod",
    "two_square_reps",
]

GaussianPrimes = list[tuple[tuple[int, int], int]]
# ((c, d, p), e): c + di = conj(pi)^2 for the Gaussian prime pi of norm p
Factors = list[tuple[tuple[int, int, int], int]]

# values of x per sieve block
_BLOCK = 1 << 14


def _divide_out(rem, found, lo, hi, f, y):
    """Divide p = f[2] out of rem at y, y + p, ... below hi, rem[0]
    standing for x = lo, and record (f, e) for each, p^e the power taken
    out.  Returns the first of those x at or past hi."""
    p = f[2]
    while y < hi:
        i = y - lo
        q, e = rem[i] // p, 1
        while q % p == 0:
            q, e = q // p, e + 1
        rem[i] = q
        found[i].append((f, e))
        y += p
    return y


def gaussian_factorizations(n_max: int) -> Iterator[tuple[int, int, Factors]]:
    """Yield (x, leftover, factors) for 2 <= x <= n_max in ascending order.
    x + i is a unit times (1 + i)^(x & 1) times, if leftover > 1, the
    Gaussian prime of norm leftover that divides it, times pi^e for each
    ((c, d, p), e) in factors: pi is the Gaussian prime of norm p that
    divides x + i, pi^e exactly divides it, and c + di = conj(pi)^2, so
    (x + i) (c + di)^m / p^m is a Gaussian integer for m <= e.  leftover is
    1 or the one prime found at x, and factors lists the primes found below
    x, in ascending order of the x where each was found.  An x whose
    x^2 + 1 is p or 2p, p prime, is left out: 2(x^2 + 1) is then only
    (x - 1)^2 + (x + 1)^2.

    rem holds x^2 + 1 with the 2 taken out, for one block of _BLOCK values
    of x.  Walking x upward, every prime whose least root is below x has
    been divided out of rem at x, and two primes with least root x would
    each exceed 2x, so their product would exceed x^2 + 1.  Hence what is
    left at x is 1 or a prime p with least root x, found there once.  Then
    pi divides x' + i again at x' = x + kp, and conj(pi) does at
    x' = p - x + kp.  Only a p that comes back, p - x <= n_max, needs pi,
    from gaussian_prime; it is carried as one entry (x, f, next x') per
    progression, f = (c, d, p), in a bucket keyed by the block of its next
    x'.  A block takes its bucket, so an entry of p >= _BLOCK, which hits a
    block at most once, is not visited at the blocks between its hits.
    Each bucket is sorted, so the entries are walked in ascending order of
    the x where their primes were found, and the order of factors does not
    depend on _BLOCK."""
    block = _BLOCK
    buckets: dict[int, list[tuple]] = {}
    for lo in range(2, n_max + 1, block):
        hi = min(lo + block, n_max + 1)
        rem = [x * x + 1 >> (x & 1) for x in range(lo, hi)]
        found: list[Factors] = [[] for _ in range(lo, hi)]
        carried = buckets.pop(lo, [])
        carried.sort()
        for x, f, y in carried:
            y = _divide_out(rem, found, lo, hi, f, y)
            if y <= n_max:
                buckets.setdefault(y - (y - 2) % block, []).append((x, f, y))
        # _divide_out writes rem only past x, where the zip has yet to read
        for x, p, factors in zip(range(lo, hi), rem, found):
            if p > 1:
                if p - x <= n_max:
                    a, b = gaussian_prime(p, x)
                    c, d = a * a - b * b, 2 * a * b
                    # conj(pi)^2 at x + kp, pi^2 at p - x + kp
                    for f, y in ((c, -d, p), x + p), ((c, d, p), p - x):
                        y = _divide_out(rem, found, lo, hi, f, y)
                        if y <= n_max:
                            key = y - (y - 2) % block
                            buckets.setdefault(key, []).append((x, f, y))
                if factors:
                    yield x, p, factors
            elif len(factors) > 1 or factors[0][1] > 1:
                yield x, 1, factors
            # else x^2 + 1 = 2p with p found below x, which is x = 3


def sqrt_minus_one_mod(p: int) -> int:
    """A square root of -1 modulo a prime p congruent to 1 mod 4.

    ValueError when p is not 1 mod 4, or when Euler's criterion shows p
    composite: for a prime, a^((p-1)/2) is 1 or -1 for every a < p, and a
    prime factor q of p gives a multiple of q, neither, so the walk over a
    stops by a = q."""
    if p % 4 != 1:
        raise ValueError("p must be 1 mod 4")
    a = 2
    while True:
        t = pow(a, (p - 1) // 2, p)
        if t == p - 1:
            return pow(a, (p - 1) // 4, p)
        if t != 1:
            raise ValueError(f"{p} is not prime")
        a += 1


def gaussian_prime(p: int, root: int) -> tuple[int, int]:
    """The Gaussian prime a + bi of norm p that divides root + i, for a
    prime p = 1 mod 4 and root^2 = -1 mod p; ValueError when a^2 + b^2
    misses p, as it does when root^2 is not -1 mod p.

    Cornacchia: Euclid's algorithm on (p, root) reaches a first remainder
    a < sqrt(p), and then p - a^2 = b^2.  In Z[i] / (a + bi) = F_p, i is
    -a / b, so a + bi divides root + i exactly when root b = a mod p;
    otherwise its conjugate does."""
    r, a = p, root % p
    while a * a > p:
        r, a = a, r % a
    b = isqrt(p - a * a)
    if a * a + b * b != p:
        raise ValueError(f"{root} is not a square root of -1 mod {p}")
    if (root * b - a) % p:
        b = -b
    return a, b


def gaussian_products(
    z0: tuple[int, int], factors: Factors, half_first: bool
) -> list[tuple[int, int]]:
    """The Gaussian integers z0 prod (conj(pi)^2 / p)^m, m = 0..e for each
    ((c, d, p), e) in factors, c + di = conj(pi)^2, where pi^e divides z0;
    for the first factor m runs only to e // 2 when half_first is set.

    conj(pi)^2 / p = conj(pi) / pi has norm 1, and m of them turn pi^m in
    z0 into conj(pi)^m, so each step is a product with c + di and an exact
    division by p.  When z0 holds exactly pi^e and no conj(pi), these are
    all the Gaussian integers of its norm with its other primes, one per
    pair {z, conj(z)} up to units, as long as one prime stays on its pi
    side: a prime of z0 outside factors (the search's leftover), or, with
    half_first, the first factor, which conjugation takes from m to e - m.
    When that first e is even, m = e / 2 is its own conjugate, and a z can
    come up twice.

    The order is part of the contract: each running product z is replaced
    by z, z f, ..., z f^e for the next factor f, so zs[0] is z0, which
    enumerate_sequences skips as the trivial product."""
    zs = [z0]
    for (c, d, p), e in factors:
        if half_first:
            e //= 2
            half_first = False
        if e == 1:  # most factors: z and z f side by side
            out = []
            for u, v in zs:
                out += (u, v), ((u * c - v * d) // p, (u * d + v * c) // p)
            zs = out
        elif e:
            out = []
            for u, v in zs:
                out.append((u, v))
                for _ in range(e):
                    u, v = (u * c - v * d) // p, (u * d + v * c) // p
                    out.append((u, v))
            zs = out
    return zs


def reps_from_primes(
    real: int, two_exp: int, primes: GaussianPrimes
) -> list[tuple[int, int]]:
    """All (r, s) with 0 <= r <= s and r^2 + s^2 = real^2 2^two_exp
    prod p^e, in ascending order, where primes lists (pi, e) for distinct
    split primes p, pi the Gaussian prime of p: gaussian_products from
    z0 = real (1 + i)^two_exp prod pi^e, as (|a|, |b|) sorted, which
    forgets units and conjugation."""
    s = real << (two_exp >> 1)
    u, v = (s, s) if two_exp & 1 else (s, 0)
    factors = []
    for (a, b), e in primes:
        for _ in range(e):
            u, v = u * a - v * b, u * b + v * a
        factors.append(((a * a - b * b, -2 * a * b, a * a + b * b), e))
    pairs = set()
    for u, v in gaussian_products((u, v), factors, True):
        u, v = abs(u), abs(v)
        pairs.add((u, v) if u <= v else (v, u))
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
            split.append((gaussian_prime(p, sqrt_minus_one_mod(p)), e))
        p += 2
    return reps_from_primes(real, two_exp, split)
