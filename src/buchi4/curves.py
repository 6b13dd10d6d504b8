"""Extension curves: when does a length-4 sequence grow to length 5?

Appending x5 to xi(n, t) needs y^2 = 2 xi4^2 - xi3^2 + 2 (and symmetrically
y^2 = 2 xi1^2 - xi2^2 + 2 for prepending), so each side and level gives a
hyperelliptic-shaped curve y^2 = rhs(t) of degree 4n+2.  This module builds
those right-hand sides exactly, certifies squarefreeness, and scans integer
arguments for square values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from .arith import as_perfect_square
from .families import xi_poly
from .poly import UPoly, gcd_mod, upoly_gcd
from .polytext import format_upoly

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


@dataclass(frozen=True)
class CurveSpec:
    """One extension curve y^2 = rhs(t): the side it extends, the level n
    of the underlying family, and the exact right-hand side."""

    side: str
    n: int
    rhs: UPoly

    def __post_init__(self):
        if self.side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        if self.rhs.degree != 4 * self.n + 2:
            raise ValueError(
                f"degree {self.rhs.degree}, expected {4 * self.n + 2}"
            )
        if self.rhs.lc() <= 0:
            raise ValueError("leading coefficient must be positive")

    def coefficients(self) -> List[int]:
        """Integer coefficients, constant term first."""
        return self.rhs.int_coeffs()

    def display(self) -> str:
        return format_upoly(self.rhs)


def curve_rhs(n: int, side: str) -> CurveSpec:
    """The level-n extension curve for one side, built from xi(n, t)."""
    if n < 1:
        raise ValueError("level must be at least 1")
    x1, x2, x3, x4 = xi_poly(n)
    if side == "right":
        rhs = 2 * x4 * x4 - x3 * x3 + 2
    elif side == "left":
        rhs = 2 * x1 * x1 - x2 * x2 + 2
    else:
        raise ValueError("side must be 'right' or 'left'")
    return CurveSpec(side=side, n=n, rhs=rhs)


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
        if gcd_mod((ints, dints), _CERT_PRIME) == [1]:
            return True
    return upoly_gcd(rhs, d).degree == 0


# -- integer point scans ----------------------------------------------------


def scan_integer_points(
    curve: CurveSpec, t_min: int, t_max: int
) -> List[Tuple[int, int]]:
    """All (t, y) with t_min <= t <= t_max, rhs(t) = y^2, y >= 0, ascending
    in t."""
    if t_min > t_max:
        raise ValueError("empty range")
    hits = []
    rev = curve.rhs.int_coeffs()[::-1]
    for t in range(t_min, t_max + 1):
        # Horner inlined, not poly.horner: a call per t slows the scan by ~10%.
        acc = 0
        for c in rev:
            acc = acc * t + c
        if acc < 0:
            continue
        y = as_perfect_square(acc)
        if y is not None:
            hits.append((t, y))
    return hits


def scan_csv(curve: CurveSpec, t_min: int, t_max: int) -> Iterable[str]:
    """CSV lines t,y,trivial for every scan hit."""
    yield "t,y,trivial"
    for t, y in scan_integer_points(curve, t_min, t_max):
        flag = "yes" if t in TRIVIAL_PARAMETERS else "no"
        yield f"{t},{y},{flag}"
