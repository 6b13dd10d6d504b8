"""Symmetries of the surface and the degree-growing birational map.

Three layers:

  * the order-32 group of trivial involutions (coordinate sign flips and the
    reversal), acting on any point-like 4-tuple;
  * the rational involution phi = (p1/q, ..., p4/q), whose five defining
    polynomials are a bundled asset that the runtime formula is checked
    against;
  * zeta = phi after reversal-with-outer-sign-flips, the infinite-order map
    whose orbit of (1, 2, 3, 4) is driven by the Pell-like sequence
    u(0) = 0, u(1) = 1, u(n+2) = 10 u(n+1) - u(n).

phi has one evaluator, _phi_forms: a closed formula in (A, B, C, D, L)
that finds phi(P) as the second point where the plane of the sequences
with P's second differences, P + span{(1, 1, 1, 1), (0, 1, 2, 3)}, meets
the surface.  At rational points the maps run on integers: a point is
carried as its primitive vector (A, B, C, D, L) (to_vector), phi_vector
runs the formula on it, and apply_phi, apply_zeta and apply_zeta_inv
convert to and from Fractions around it.  A point with polynomial
coordinates goes through the same formula with L = 1, and each P_i is
divided by Q exactly, so its image is polynomial or an error.  The asset's
polynomials stay the specification: verify.verify_group_relations() proves
that the formula equals them on the surface and re-proves every claimed
relation between these maps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from typing import TYPE_CHECKING, Tuple

from . import assets
from .arith import exact
from .poly import UPoly
from .record import Record, slot_setters

if TYPE_CHECKING:
    from .mpoly import MPoly4

__all__ = [
    "DenominatorVanishes",
    "TrivialInvolution",
    "IDENTITY",
    "TAU",
    "MU",
    "mu",
    "MU14",
    "ZETA_TWIST",
    "group_elements",
    "PhiMap",
    "phi_map",
    "check_length",
    "exact_point",
    "on_surface",
    "vector_on_surface",
    "to_vector",
    "from_vector",
    "phi_vector",
    "zeta_vector",
    "zeta_inv_vector",
    "apply_phi",
    "apply_zeta",
    "apply_zeta_inv",
    "zeta_orbit",
    "pell",
    "pell_point",
    "normalize_point",
]

Point = Tuple


class DenominatorVanishes(ZeroDivisionError):
    """The rational map is undefined at this point (q = 0)."""


# -- trivial involutions ------------------------------------------------------


# the 16 sign tuples; each, with or without reversal, is a trivial involution
_SIGNS = frozenset(product((1, -1), repeat=4))


class TrivialInvolution(Record):
    """Element of the group generated by the four sign flips and reversal.

    Acts by reversing first (when rev is set), then flipping signs, so
    signs[i] applies to output slot i.  signs is a tuple of four values,
    each 1 or -1, and rev a bool; anything else raises ValueError.
    """

    __slots__ = ("signs", "rev")

    def __init__(self, signs: Tuple[int, int, int, int], rev: bool):
        # 1.0 and True equal 1, so signs must be ints, not just hash like one
        valid = isinstance(signs, tuple) and all(type(s) is int for s in signs)
        if not (valid and signs in _SIGNS and (rev is True or rev is False)):
            raise ValueError(
                f"not a trivial involution: signs {signs!r}, rev {rev!r}"
            )
        _set_signs(self, signs)
        _set_rev(self, rev)

    @property
    def _key(self) -> tuple:
        return (self.signs, self.rev)

    def __call__(self, pt: Point) -> Point:
        if self.rev:
            pt = pt[::-1]
        return tuple(s * x for s, x in zip(self.signs, pt))

    def on_vector(self, v: Tuple[int, ...]) -> Tuple[int, ...]:
        """self on a vector (A, B, C, D, L) (see to_vector): the first four
        entries move, L > 0 stays."""
        return (*self(v[:4]), v[4])

    def compose(self, other: "TrivialInvolution") -> "TrivialInvolution":
        """self after other."""
        inner = other.signs[::-1] if self.rev else other.signs
        return TrivialInvolution(
            tuple(s * t for s, t in zip(self.signs, inner)),
            self.rev != other.rev,
        )

    def inverse(self) -> "TrivialInvolution":
        signs = self.signs[::-1] if self.rev else self.signs
        return TrivialInvolution(signs, self.rev)

    def is_identity(self) -> bool:
        return not self.rev and all(s == 1 for s in self.signs)

    def __repr__(self):
        flips = "".join(str(i + 1) for i, s in enumerate(self.signs) if s < 0)
        parts = (["tau"] if self.rev else []) + ([f"mu{flips}"] if flips else [])
        return "*".join(parts) or "id"


_set_signs, _set_rev = slot_setters(TrivialInvolution)


IDENTITY = TrivialInvolution((1, 1, 1, 1), False)
TAU = TrivialInvolution((1, 1, 1, 1), True)


def mu(*indices: int) -> TrivialInvolution:
    """Sign flip at the given 1-based coordinate indices."""
    signs = [1, 1, 1, 1]
    for i in indices:
        signs[i - 1] *= -1
    return TrivialInvolution(tuple(signs), False)


MU = (mu(1), mu(2), mu(3), mu(4))
MU14 = mu(1, 4)

# tau compose mu14: the trivial part of the degree-growing map (both
# factorizations agree since the two commute).
ZETA_TWIST = TAU.compose(MU14)


def group_elements() -> list[TrivialInvolution]:
    """All 32 trivial involutions."""
    return [
        TrivialInvolution(signs, rev)
        for rev in (False, True)
        for signs in product((1, -1), repeat=4)
    ]


# -- the primitive integer vector of a rational point -------------------------


def to_vector(pt: Point) -> Tuple[int, ...]:
    """The int/Fraction point pt as (A, B, C, D, L) with L > 0 the lcm of
    the denominators and pt = (A/L, ..., D/L).  The five entries have gcd 1
    (a prime dividing L divides some denominator to the full power it has in
    L, and that coordinate's numerator is prime to it), so the vector is the
    point's one primitive representative with L > 0 and equal points give
    equal vectors."""
    ell = lcm(*(x.denominator for x in pt))
    return (*(x.numerator * (ell // x.denominator) for x in pt), ell)


def from_vector(v: Tuple[int, ...]) -> Point:
    """The point v stands for, each coordinate an int when it is whole and
    a Fraction otherwise."""
    ell = v[4]
    if ell == 1:
        return v[:4]
    return tuple(exact(Fraction(a, ell)) for a in v[:4])


# -- the rational involution --------------------------------------------------


class PhiMap:
    """The involution's numerators p = (p1, ..., p4) and denominator q."""

    __slots__ = ("p", "q")

    def __init__(self, p: Tuple[MPoly4, MPoly4, MPoly4, MPoly4], q: MPoly4):
        self.p = p
        self.q = q


@lru_cache(maxsize=1)
def phi_map() -> PhiMap:
    """The parsed involution.txt, the specification that the runtime
    formula _phi_forms is proved against; no runtime path reads it, so
    mpoly is imported here and not by classify or search."""
    from .mpoly import MPoly4

    entries = {}
    for line in assets.lines("involution.txt"):
        name, _, body = line.partition(":")
        entries[name.strip()] = MPoly4.parse(body)
    missing = {"q", "p1", "p2", "p3", "p4"} - entries.keys()
    if missing:
        raise ValueError(f"involution asset is missing {sorted(missing)}")
    return PhiMap(
        (entries["p1"], entries["p2"], entries["p3"], entries["p4"]),
        entries["q"],
    )


def check_length(pt: Point) -> None:
    """ValueError, naming pt, unless pt has four coordinates."""
    if len(pt) != 4:
        raise ValueError(f"a point has 4 coordinates, not {len(pt)}: {tuple(pt)}")


def exact_point(pt: Point) -> Point:
    """pt with each coordinate made exact (arith.exact); ValueError unless
    it has four coordinates."""
    check_length(pt)
    return tuple(map(exact, pt))


def on_surface(pt: Point) -> bool:
    return vector_on_surface((*exact_point(pt), 1))


def vector_on_surface(v: Tuple) -> bool:
    """The two defining equations at the point v = (A, B, C, D, L) stands
    for, cleared of denominators: A^2 - 2B^2 + C^2 = 2L^2 and
    B^2 - 2C^2 + D^2 = 2L^2."""
    a, b, c, d, ell = v
    two = 2 * ell * ell
    return a * a - 2 * b * b + c * c == two and b * b - 2 * c * c + d * d == two


_PHI_UNDEFINED = "the involution is undefined where (b - c)^2 (a - 2b + c) vanishes"
_OFF_SURFACE = "the involution is defined only on the surface"


def _phi_forms(A, B, C, D, L):
    """phi as five forms of degree 4 in (A, B, C, D, L), the image of the
    point (A/L, ..., D/L) being (P1/Q, ..., P4/Q) for the returned
    (P1, ..., P4, Q), wherever the point is on the surface.

    phi keeps both second differences, so phi(P) lies on the plane
    P + span{(1, 1, 1, 1), (0, 1, 2, 3)} of the points with P's second
    differences.  Both surface equations have the quadratic part 2r^2 on
    that plane (r the coefficient of (0, 1, 2, 3)), so their difference is
    linear and the plane meets the surface in P and one more point: phi(P),
    the residual point of the intersection of two quadrics.  Solved on
    integers, phi(P) = P + (S, S + N, S + 2N, S + 3N) / (L M), with D1, D2
    the second differences and T = D2 - D1 the third one.  Past the guard M
    is nonzero on the surface: at T = 0, that is d = a - 3b + 3c, the
    difference of the equations is 6 (a - 2b + c)(c - b).

    Raises DenominatorVanishes exactly where the asset's denominator
    (b - c)^2 (a - 2b + c) does.  involution.txt stays the specification:
    verify.verify_group_relations() proves that these forms equal its
    p_i / q on the surface.  The function runs on any ring elements that
    add, subtract and multiply with ints: integers for phi_vector,
    polynomials for apply_phi at polynomial points and for the proofs."""
    D1 = A - 2 * B + C
    if B == C or D1 == 0:
        raise DenominatorVanishes(_PHI_UNDEFINED)
    D2 = B - 2 * C + D
    T = D2 - D1
    U = 2 * (C - B)
    R = (B - 4 * C + 3 * D) * D1 - U * D2
    S = -R * (U * T + R)
    M = T * T * D1
    N = R * T * D1
    return (
        A * M + S, B * M + S + N, C * M + S + 2 * N, D * M + S + 3 * N, L * M
    )


def phi_vector(v: Tuple[int, ...]) -> Tuple[int, ...]:
    """phi on integers: the image of the point that the primitive vector
    v = (A, B, C, D, L) stands for, as its primitive vector
    (P1, P2, P3, P4, Q), Q > 0.  The forms of _phi_forms give P_i / Q
    exactly, and dividing out the gcd (with the sign of Q) makes the result
    primitive again.  A point off the surface raises ValueError, after the
    check for DenominatorVanishes."""
    *nums, den = _phi_forms(*v)
    if not vector_on_surface(v):
        raise ValueError(_OFF_SURFACE)
    g = gcd(*nums, den)
    if den < 0:
        g = -g
    return (nums[0] // g, nums[1] // g, nums[2] // g, nums[3] // g, den // g)


def zeta_vector(v: Tuple[int, ...]) -> Tuple[int, ...]:
    """apply_zeta on primitive vectors."""
    return phi_vector(ZETA_TWIST.on_vector(v))


def zeta_inv_vector(v: Tuple[int, ...]) -> Tuple[int, ...]:
    """apply_zeta_inv on primitive vectors."""
    return ZETA_TWIST.on_vector(phi_vector(v))


def apply_phi(pt: Point) -> Point:
    """Image of a numeric or polynomial point, exactly, from the one formula
    _phi_forms.  An int/Fraction point goes through phi_vector and comes
    back as four Fractions.  A point with UPoly coordinates (ints and
    Fractions allowed beside them) runs the forms with L = 1 and comes back
    as four UPoly, each P_i divided by Q exactly: NonExactDivision when the
    image is not polynomial, TypeError for any other coordinate type.  A
    point off the surface raises ValueError, after the check for
    DenominatorVanishes."""
    check_length(pt)
    if all(isinstance(x, (int, Fraction)) for x in pt):
        *nums, den = phi_vector(to_vector(pt))
        return tuple(Fraction(n, den) for n in nums)
    if not all(isinstance(x, (int, Fraction, UPoly)) for x in pt):
        raise TypeError("phi takes int, Fraction or UPoly coordinates")
    *nums, den = _phi_forms(*pt, 1)
    if not vector_on_surface((*pt, 1)):
        raise ValueError(_OFF_SURFACE)
    return tuple(n.exact_div(den) for n in nums)


def apply_zeta(pt: Point) -> Point:
    return apply_phi(ZETA_TWIST(pt))


def apply_zeta_inv(pt: Point) -> Point:
    return ZETA_TWIST(apply_phi(pt))


def zeta_orbit(pt: Point, count: int) -> list[Point]:
    """[pt, zeta(pt), ..., zeta^count(pt)]."""
    out = [tuple(pt)]
    for _ in range(count):
        out.append(apply_zeta(out[-1]))
    return out


# -- the Pell-like drive of the base orbit -----------------------------------

_PELL = [0, 1]


def pell(n: int) -> int:
    """u(n) with u(0) = 0, u(1) = 1, u(n+2) = 10 u(n+1) - u(n)."""
    if n < 0:
        raise ValueError("negative index")
    while len(_PELL) <= n:
        _PELL.append(10 * _PELL[-1] - _PELL[-2])
    return _PELL[n]


_ORBIT_HEAD = (1, 2, 3, 4)
_ORBIT_NEXT = (6, 23, 32, 39)


def pell_point(n: int) -> Point:
    """Closed form of the n-th orbit point of (1, 2, 3, 4)."""
    if n == 0:
        return _ORBIT_HEAD
    un, um = pell(n), pell(n - 1)
    return tuple(un * y - um * x for x, y in zip(_ORBIT_HEAD, _ORBIT_NEXT))


# -- normalization ------------------------------------------------------------


def normalize_point(pt: Point):
    """The trivial involution carrying pt to a strictly increasing positive
    point, as (g, g(pt)); None when no coordinate arrangement works (which
    happens exactly when some |coordinate| repeats or vanishes)."""
    if any(x == 0 for x in pt):
        return None
    signs = tuple(1 if x > 0 else -1 for x in pt)
    mags = tuple(abs(x) for x in pt)
    if all(mags[i] < mags[i + 1] for i in range(3)):
        g = TrivialInvolution(signs, False)
    elif all(mags[i] > mags[i + 1] for i in range(3)):
        g = TrivialInvolution(signs[::-1], True)
    else:
        return None
    return g, g(pt)

