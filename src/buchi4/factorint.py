"""Sums of two squares over the Gaussian integers.

The search needs the factorization of 2(x^2 + 1) for every x up to a
bound.  `gaussian_factorizations` streams them from a segmented sieve of
x^2 + 1, one block of x at a time, as the Gaussian primes that divide
x + i; the sieve hands out a square root of -1 modulo every prime it
finds, so no primality test and no general factoring is needed, and its
memory is one block plus the primes that come back later.
`two_square_reps` decomposes a single integer by trial division and
finds the Gaussian prime of each split prime from a square root of -1.
Both feed one Gaussian-integer product, `gaussian_products`, which
`reps_from_primes` turns into the list of representations.  Everything is
exact and stdlib-only.
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

# values of x per sieve block
_BLOCK = 1 << 14


def _divide_out(rem, found, lo, hi, p, pi, y):
    """Divide p out of rem at y, y + p, ... below hi, rem[0] standing for
    x = lo, and record (pi, e) for each, p^e the power taken out.  Returns
    the first of those x at or past hi."""
    while y < hi:
        i = y - lo
        q, e = rem[i] // p, 1
        while q % p == 0:
            q, e = q // p, e + 1
        rem[i] = q
        found[i].append((pi, e))
        y += p
    return y


def gaussian_factorizations(n_max: int) -> Iterator[tuple[int, GaussianPrimes]]:
    """Yield (x, [(pi, e), ...]) for 2 <= x <= n_max in ascending order, one
    pair for each odd prime p of x^2 + 1: pi = a + bi is the Gaussian prime
    of norm p that divides x + i, and pi^e exactly divides it, so x + i is a
    unit times (1 + i)^(x & 1) times the product of the pi^e.  An x whose
    x^2 + 1 is p or 2p, p prime, is left out: 2(x^2 + 1) is then only
    (x - 1)^2 + (x + 1)^2.

    rem holds x^2 + 1 with the 2 taken out, for one block of _BLOCK values
    of x.  Walking x upward, every prime whose least root is below x has
    been divided out of rem at x, and two primes with least root x would
    each exceed 2x, so their product would exceed x^2 + 1.  Hence what is
    left at x is 1 or a prime p with least root x, found there once.  Then
    pi divides x' + i again at x' = x + kp, and conj(pi) does at
    x' = p - x + kp, so p is carried from block to block as
    [p, pi, conj(pi), next x' = x mod p, next x' = -x mod p] until both
    pass n_max.  A p that never comes back and is all of x^2 + 1 but the 2
    is skipped without finding pi."""
    live: list[list] = []
    for lo in range(2, n_max + 1, _BLOCK):
        hi = min(lo + _BLOCK, n_max + 1)
        rem = [x * x + 1 >> (x & 1) for x in range(lo, hi)]
        found: list[GaussianPrimes] = [[] for _ in range(lo, hi)]
        carried = live
        live = []
        for prime in carried:
            p, pi, pibar, y, z = prime
            prime[3] = y = _divide_out(rem, found, lo, hi, p, pi, y)
            prime[4] = z = _divide_out(rem, found, lo, hi, p, pibar, z)
            if y <= n_max or z <= n_max:
                live.append(prime)
        # _divide_out writes rem only past x, where the zip has yet to read
        for x, p, primes in zip(range(lo, hi), rem, found):
            if p > 1:
                comes_back = p - x <= n_max
                if not (primes or comes_back):
                    continue  # x^2 + 1 is p or 2p, and p does not come back
                pi = gaussian_prime(p, x)
                if comes_back:
                    pibar = (pi[0], -pi[1])
                    y = _divide_out(rem, found, lo, hi, p, pi, x + p)
                    z = _divide_out(rem, found, lo, hi, p, pibar, p - x)
                    if y <= n_max or z <= n_max:
                        live.append([p, pi, pibar, y, z])
                if not primes:
                    continue  # x^2 + 1 is p or 2p
                primes.append((pi, 1))
            elif len(primes) == 1 and primes[0][1] == 1:
                continue  # x^2 + 1 = 2p with p found below x, which is x = 3
            yield x, primes


def sqrt_minus_one_mod(p: int) -> int:
    """A square root of -1 modulo a prime p congruent to 1 mod 4."""
    if p % 4 != 1:
        raise ValueError("p must be 1 mod 4")
    a = 2
    while pow(a, (p - 1) // 2, p) != p - 1:
        a += 1
    return pow(a, (p - 1) // 4, p)


def gaussian_prime(p: int, root: int) -> tuple[int, int]:
    """The Gaussian prime a + bi of norm p that divides root + i, for a
    prime p = 1 mod 4 and root^2 = -1 mod p.

    Cornacchia: Euclid's algorithm on (p, root) reaches a first remainder
    a < sqrt(p), and then p - a^2 = b^2.  In Z[i] / (a + bi) = F_p, i is
    -a / b, so a + bi divides root + i exactly when root b = a mod p;
    otherwise its conjugate does."""
    r, a = p, root % p
    while a * a > p:
        r, a = a, r % a
    b = isqrt(p - a * a)
    if (root * b - a) % p:
        b = -b
    return a, b


def gaussian_products(two_exp: int, primes: GaussianPrimes) -> list[tuple[int, int]]:
    """The Gaussian integers z = a + bi, one per pair {z, conj(z)} up to
    units, of norm 2^two_exp prod p^e, where primes lists (pi, e) for
    distinct split primes p, pi the Gaussian prime of p.  zs[0] is the
    all-conjugate product, (1 + i)^two_exp prod conj(pi)^e up to a unit.

    Every such z is a unit times (1+i)^two_exp times, for each prime,
    pi^j conj(pi)^(e-j), and (1+i)^k is a unit times 2^(k//2) (1+i)^(k%2).
    pi^j conj(pi)^(e-j) is p^m times pi^(j-m) conj(pi)^(e-j-m),
    m = min(j, e - j): the factors p^m conj(pi)^(e-2m) for 0 <= m <= e // 2,
    conj(pi)^e first, then their conjugates p^m pi^(e-2m) for 2m < e.
    Conjugating a product flips the choice at every prime, so the first
    prime takes only the conj(pi) side.  When the first prime's e is odd,
    no z comes up twice up to units and conjugation; when it is even, its
    middle factor p^(e/2) is its own conjugate, and a z can.

    The order is part of the contract: each running product z is replaced
    by z f for every factor f of the next prime in the order above, so
    zs[0] is the all-conjugate product, which enumerate_sequences skips as
    the trivial one.  A prime of exponent 1, most of them, multiplies
    z = u + vi in place into z conj(pi), z pi side by side, in integers,
    with no list of factors; a higher power builds its factors from a table
    of powers of pi."""
    s = 1 << (two_exp >> 1)
    zs = [(s, s) if two_exp & 1 else (s, 0)]
    first = True
    for (a, b), e in primes:
        if e > 1:
            p = a * a + b * b
            powers = [(1, 0)]
            for _ in range(e):
                c, d = powers[-1]
                powers.append((a * c - b * d, a * d + b * c))
            factors = []
            for m in range(e // 2 + 1):
                c, d = powers[e - 2 * m]
                q = p**m
                factors.append((q * c, -q * d))
            if not first:
                factors += [(c, -d) for c, d in factors[: (e + 1) // 2]]
            zs = [(u * c - v * d, u * d + v * c) for u, v in zs for c, d in factors]
        elif first:
            u, v = zs[0]
            zs = [(u * a + v * b, v * a - u * b)]
        else:
            out = []
            for u, v in zs:
                ua = u * a
                vb = v * b
                ub = u * b
                va = v * a
                out += (ua + vb, va - ub), (ua - vb, ub + va)
            zs = out
        first = False
    return zs


def reps_from_primes(
    real: int, two_exp: int, primes: GaussianPrimes
) -> list[tuple[int, int]]:
    """All (r, s) with 0 <= r <= s and r^2 + s^2 = real^2 2^two_exp
    prod p^e, in ascending order, where primes lists (pi, e) for distinct
    split primes p, pi the Gaussian prime of p: the products of
    gaussian_products times real, as (|a|, |b|) sorted, which forgets
    units and conjugation."""
    pairs = []
    for u, v in gaussian_products(two_exp, primes):
        u, v = real * abs(u), real * abs(v)
        pairs.append((u, v) if u <= v else (v, u))
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
            split.append((gaussian_prime(p, sqrt_minus_one_mod(p)), e))
        p += 2
    return reps_from_primes(real, two_exp, split)
