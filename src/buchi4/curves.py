"""Extension curves: when does a length-4 sequence grow to length 5?

Appending x5 to xi(n, t) needs y^2 = 2 xi4^2 - xi3^2 + 2 (and symmetrically
y^2 = 2 xi1^2 - xi2^2 + 2 for prepending), so each side and level gives a
hyperelliptic-shaped curve y^2 = rhs(t) of degree 4n+2.  The right-hand side
is the radicand of the extension tests in families, taken at the symbolic
row xi(n, t), so a curve and the test it scans for cannot drift apart.  This
module builds those right-hand sides exactly, certifies squarefreeness, and
scans integer arguments for square values.

The scan is a residue sieve, after the bit-parallel sieve of M. Stoll's
ratpoints.  rhs has integer coefficients, so rhs(t) mod m depends only on
t mod m: the 64 exact values rhs(0), ..., rhs(63) give one m-bit pattern per
modulus m <= 64 of the residues whose value is a square mod m, and each
block of the range, its first t included, ANDs those patterns into one
mask, so that only the t left in it are evaluated.  All 16 curves of levels
1..8 take 0.3-0.5 s over |t| <= 10^6 and 6-7.5 s over |t| <= 2*10^7 on a
2-core machine with CPython 3.11 (0.47 s for level 5 alone over
|t| <= 5*10^4 with every t evaluated).  Each such scan finds only
t = -4..-1.  That range holds the box past which Runge's method leaves no
integral point for n <= 5, but the bound is not derived here yet (ROADMAP
item 17), so the scans are evidence, not proof.  The scans of levels 9..24
over |t| <= 10^5 find only t = -4..-1 too.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from .arith import as_perfect_square
from .families import _radicand, xi_poly
from .poly import UPoly, gcd_mod, upoly_gcd
from .polytext import format_upoly
from .record import Record, slot_setters

__all__ = [
    "CurveSpec",
    "TRIVIAL_PARAMETERS",
    "curve_rhs",
    "is_squarefree",
    "scan_integer_points",
    "scan_csv",
]

# arguments where xi(n, t) is a trivial sequence, which extends on both
# sides for free; scan hits here are expected and tagged
TRIVIAL_PARAMETERS = (-4, -3, -2, -1)


class CurveSpec(Record):
    """One extension curve y^2 = rhs(t): the side it extends, the level n
    of the underlying family, and the exact right-hand side."""

    __slots__ = ("side", "n", "rhs")

    def __init__(self, side: str, n: int, rhs: UPoly):
        if side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        if rhs.degree != 4 * n + 2:
            raise ValueError(f"degree {rhs.degree}, expected {4 * n + 2}")
        if rhs.lc() <= 0:
            raise ValueError("leading coefficient must be positive")
        if not rhs.is_integral():
            raise ValueError("right-hand side must have integer coefficients")
        _set_side(self, side)
        _set_n(self, n)
        _set_rhs(self, rhs)

    @property
    def _key(self) -> tuple:
        return (self.side, self.n, self.rhs)

    def coefficients(self) -> List[int]:
        """Integer coefficients, constant term first."""
        return self.rhs.int_coeffs()

    def display(self) -> str:
        return format_upoly(self.rhs)


_set_side, _set_n, _set_rhs = slot_setters(CurveSpec)


def curve_rhs(n: int, side: str) -> CurveSpec:
    """The level-n extension curve for one side: the extension radicand of
    families at xi(n, t)."""
    if n < 1:
        raise ValueError("level must be at least 1")
    return CurveSpec(side=side, n=n, rhs=_radicand(xi_poly(n), side))


# -- squarefreeness -------------------------------------------------------


# the Mersenne prime 2^61 - 1: alone it certifies all 16 curves of levels
# 1..8, and the exact gcd settles whatever it does not
_CERT_PRIME = 2305843009213693951


def is_squarefree(curve) -> bool:
    """True iff gcd(rhs, rhs') is constant; ValueError for the zero
    polynomial, whose gcd with its derivative is undefined.

    Tries the modular certificate first (sound when it reports constant),
    then falls back to the exact subresultant gcd.
    """
    rhs = curve.rhs if isinstance(curve, CurveSpec) else curve
    if rhs.is_zero():
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    d = rhs.derivative()
    if rhs.is_integral():
        ints, dints = rhs.int_coeffs(), d.int_coeffs()
        if gcd_mod(ints, dints, _CERT_PRIME) == [1]:
            return True
    return upoly_gcd(rhs, d).degree == 0


# -- integer point scans ----------------------------------------------------


# The sieve moduli: 64 = 2^6, 63 = 9 * 7, 55 = 5 * 11 and the primes 13..61,
# each at most _RESIDUES, so that rhs(0), ..., rhs(_RESIDUES - 1) hold a full
# period of each.
_SIEVE_MODULI = (64, 63, 55, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
_RESIDUES = 64
# the range is sieved in blocks of this many t, so that each mask, and each
# step over its set bits, stays small
_BLOCK = 4096


def _square_chars(m: int) -> List[str]:
    """"1" at each residue r mod m that is a square mod m, "0" elsewhere."""
    chars = ["0"] * m
    for x in range(m):
        chars[x * x % m] = "1"
    return chars


_SQUARE_CHARS = tuple(_square_chars(m) for m in _SIEVE_MODULI)


def _horner_values(rev: List[int], ts: Iterable[int]) -> List[int]:
    """rhs(t) for each t in ts; rev lists the coefficients leading first."""
    values = []
    for t in ts:
        # Horner inlined, not poly.horner: a call per t slows the scan by ~10%.
        acc = 0
        for c in rev:
            acc = acc * t + c
        values.append(acc)
    return values


def _square_hits(ts: Iterable[int], values: List[int]) -> List[Tuple[int, int]]:
    """(t, y) for each value that is a square y^2."""
    return [
        (t, y) for t, v in zip(ts, values) if (y := as_perfect_square(v)) is not None
    ]


def scan_integer_points(
    curve: CurveSpec, t_min: int, t_max: int
) -> List[Tuple[int, int]]:
    """All (t, y) with t_min <= t <= t_max, rhs(t) = y^2, y >= 0, ascending
    in t.

    rhs has integer coefficients, so rhs(t) mod m depends only on t mod m.
    The exact values rhs(0), ..., rhs(_RESIDUES - 1) give each sieve modulus
    m a pattern whose bit r is set when rhs(r) mod m is a square mod m, 0
    included; it repeats with period m.  Each block of _BLOCK arguments,
    from t_min on, ANDs the patterns, tiled and shifted to the block's first
    t mod m, into one mask, and only the t left in it are evaluated.  This
    is sound: a t is skipped only when rhs(t) is a non-square mod some m,
    and then rhs(t) is not a square.  So the hits are those of evaluating
    every t.
    """
    if t_min > t_max:
        raise ValueError("empty range")
    rev = curve.rhs.int_coeffs()[::-1]
    residues = _horner_values(rev, range(_RESIDUES))
    span = min(t_max - t_min + 1, _BLOCK)
    tiles = []
    for m, chars in zip(_SIEVE_MODULI, _SQUARE_CHARS):
        # bit k for t = k mod m; tiled to cover a block at any shift below m
        tile = int("".join([chars[v % m] for v in reversed(residues[:m])]), 2)
        bits = m
        while bits < span + m:
            tile |= tile << bits
            bits *= 2
        tiles.append((m, tile))
    hits = []
    for base in range(t_min, t_max + 1, _BLOCK):
        mask = (1 << min(_BLOCK, t_max + 1 - base)) - 1
        for m, tile in tiles:
            mask &= tile >> (base % m)
            if not mask:
                break
        ts = []
        while mask:
            low = mask & -mask
            ts.append(base + low.bit_length() - 1)
            mask ^= low
        hits += _square_hits(ts, _horner_values(rev, ts))
    return hits


def scan_csv(curve: CurveSpec, t_min: int, t_max: int) -> List[str]:
    """CSV lines t,y,trivial for every scan hit.  The scan runs before the
    header is made, so a bad range raises before any line exists."""
    hits = scan_integer_points(curve, t_min, t_max)
    return ["t,y,trivial"] + [
        f"{t},{y},{'yes' if t in TRIVIAL_PARAMETERS else 'no'}" for t, y in hits
    ]
