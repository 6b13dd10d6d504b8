"""Exact scalar arithmetic helpers.

Integers are plain Python ints (arbitrary precision), rationals are
fractions.Fraction (always stored reduced, denominator positive), and exact
is the one rule every module asks: a whole number is held as an int.  This
module adds perfect-square detection with a cheap residue pre-filter and
string round-trips used by the CLI and the asset files.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt, prod

__all__ = [
    "exact",
    "isqrt",
    "as_perfect_square",
    "is_perfect_square",
    "square_residue_filter",
    "parse_rational",
    "format_rational",
]


def exact(x) -> int | Fraction:
    """x as an exact number: an int unchanged (a bool as its int), a whole
    Fraction as an int, any other Fraction as itself.  Anything else, a
    float, a str or None among them, raises TypeError."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"expected exact integers or rationals (an int or a Fraction): {x!r}")


# Squares modulo 64 hit only 12 residue classes, and modulo 45045 = 9*5*7*11*13
# only about 4.5% of classes.  Together they reject more than 99% of
# non-squares with two table lookups before we pay for an isqrt.
_MOD = 45045

_MASK64 = 0
for _r in range(64):
    _MASK64 |= 1 << (_r * _r % 64)


def _square_table(moduli) -> bytes:
    """Byte n is 1 exactly when n is a square modulo the product of the
    pairwise coprime moduli.  By the Chinese remainder theorem that holds
    when n is a square modulo each one, so the table is the AND of each
    modulus's pattern of squares, repeated to the full length; the AND runs
    on the bytes read as one big integer."""
    size = prod(moduli)
    table = -1
    for m in moduli:
        pattern = bytearray(m)
        for r in range(m):
            pattern[r * r % m] = 1
        table &= int.from_bytes(pattern * (size // m), "big")
    return table.to_bytes(size, "big")


_TABLE = _square_table((9, 5, 7, 11, 13))


def square_residue_filter(n: int) -> bool:
    """Cheap necessary condition: False means n is certainly not a square."""
    return bool((_MASK64 >> (n & 63)) & 1) and bool(_TABLE[n % _MOD])


def as_perfect_square(n: int) -> int | None:
    """Return r >= 0 with r*r == n, or None if n is negative or not a square."""
    if n < 0:
        return None
    if not ((_MASK64 >> (n & 63)) & 1 and _TABLE[n % _MOD]):
        return None
    r = isqrt(n)
    return r if r * r == n else None


def is_perfect_square(n: int) -> bool:
    return as_perfect_square(n) is not None


def parse_rational(s: str) -> Fraction:
    """Parse "p", "-p" or "p/q" (q > 0) decimal strings into a reduced
    Fraction.  Any other text ("1.5", "2e1", "+3", "1_000", "1/0",
    surrounding spaces) raises ValueError."""
    if not re.fullmatch(r"-?[0-9]+(?:/0*[1-9][0-9]*)?", s):
        raise ValueError(f"not a rational p, -p or p/q: {s!r}")
    return Fraction(s)


def format_rational(x: Fraction | int) -> str:
    """Inverse of parse_rational: "p" for integers, "p/q" otherwise."""
    return str(exact(x))
