"""Symmetries of the surface and the degree-growing birational map.

Three layers:

  * the order-32 group of trivial involutions (coordinate sign flips and the
    reversal), acting on any point-like 4-tuple;
  * the rational involution phi = (p1/q, ..., p4/q), with the five defining
    polynomials loaded from a bundled asset and checked, not trusted;
  * zeta = phi after reversal-with-outer-sign-flips, the infinite-order map
    whose orbit of (1, 2, 3, 4) is driven by the Pell-like sequence
    u(0) = 0, u(1) = 1, u(n+2) = 10 u(n+1) - u(n).

phi has one evaluator, _phi_kernel: a straight-line function of
(A, B, C, D, L) compiled on first use from source generated out of the
asset, which computes the five homogenized forms with every shared power
product built once.  At rational points the maps run on integers: a point is
carried as its primitive vector (A, B, C, D, L) (to_vector), phi_vector runs
the kernel on it, and apply_phi, apply_zeta and apply_zeta_inv convert to
and from Fractions around it.  Polynomial and rational-function coordinates
are cleared of their common denominator and go through the same kernel, and
so do the self-checks: verify.verify_group_relations() reads phi off the
kernel at the coordinates themselves, checks it against the asset, and
re-proves every claimed relation between these maps from it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from typing import Tuple

from . import assets
from .mpoly import MPoly4
from .poly import RatFunc, UPoly, upoly_gcd
from .record import Record, slot_setters

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
    "as_int_point",
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
        if signs not in _SIGNS or (rev is not True and rev is not False):
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
    return tuple(a // ell if a % ell == 0 else Fraction(a, ell) for a in v[:4])


# -- the rational involution --------------------------------------------------


class PhiMap:
    """The involution's numerators p = (p1, ..., p4) and denominator q."""

    __slots__ = ("p", "q")

    def __init__(self, p: Tuple[MPoly4, MPoly4, MPoly4, MPoly4], q: MPoly4):
        self.p = p
        self.q = q


@lru_cache(maxsize=1)
def phi_map() -> PhiMap:
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


def on_surface(pt: Point) -> bool:
    return vector_on_surface((*pt, 1))


def vector_on_surface(v: Tuple) -> bool:
    """The two defining equations at the point v = (A, B, C, D, L) stands
    for, cleared of denominators: A^2 - 2B^2 + C^2 = 2L^2 and
    B^2 - 2C^2 + D^2 = 2L^2."""
    a, b, c, d, ell = v
    two = 2 * ell * ell
    return a * a - 2 * b * b + c * c == two and b * b - 2 * c * c + d * d == two


_PHI_UNDEFINED = "the involution is undefined where (b - c)^2 (a - 2b + c) vanishes"


def _monomial(exps, names, lines, known) -> str:
    """The name of the product of names[i]^exps[i], emitted into lines as
    one multiplication by a variable onto a shorter product (the last
    variable with a positive exponent comes off first), each product once;
    "1" for the empty product."""
    if exps not in known:
        j = max(i for i, e in enumerate(exps) if e)
        rest = exps[:j] + (exps[j] - 1,) + exps[j + 1:]
        head = _monomial(rest, names, lines, known)
        if head == "1":
            known[exps] = names[j]
        else:
            known[exps] = "".join(
                n + str(e) * (e > 1) for n, e in zip(names, exps) if e
            )
            lines.append(f"    {known[exps]} = {head} * {names[j]}")
    return known[exps]


def _linear_sum(terms) -> str:
    """Source of sum(c * name) over (c, name) pairs, a name "1" meaning the
    bare coefficient."""
    out = []
    for c, name in terms:
        if name == "1":
            part = str(abs(c))
        elif abs(c) == 1:
            part = name
        else:
            part = f"{abs(c)}*{name}"
        out.append(("-" if c < 0 else "+") + " " + part)
    text = " ".join(out)
    return text[2:] if text.startswith("+") else "-" + text[2:]


@lru_cache(maxsize=1)
def _phi_kernel():
    """The forms L^h p1, ..., L^h p4, L^h q at (A, B, C, D, L), each
    polynomial of the asset homogenized to degree h in L (h its largest
    total degree), as one straight-line function compiled on first use.

    Its source is generated from phi_map(), so the asset stays the only
    source of the coefficients: every power product of B, C and L that a
    term needs is built once, by one multiplication onto a shorter product,
    and the terms of each form are grouped by their A/D factor (1, A, D,
    AD, ...), so a form is a few sums of B, C, L products, each multiplied
    by its factor once.  The function runs on any ring elements that add,
    subtract and multiply with ints: integers for phi_vector, polynomials
    for the symbolic points of apply_phi."""
    polys = (*phi_map().p, phi_map().q)
    hom = max(sum(k) for f in polys for k in f.terms)
    lines: list[str] = []
    known = {(0, 0, 0): "1", (0, 0): "1"}
    forms = []
    for f in polys:
        groups: dict = {}
        for (a, b, c, d), coeff in sorted(f.terms.items()):
            inner = _monomial((b, c, hom - a - b - c - d), "BCL", lines, known)
            groups.setdefault((a, d), []).append((coeff, inner))
        parts = []
        for ad, terms in sorted(groups.items()):
            factor = _monomial(ad, "AD", lines, known)
            body = _linear_sum(terms)
            if factor == "1":
                parts.append(f"({body})")
            else:
                parts.append(f"{factor} * ({body})")
        forms.append(" + ".join(parts))
    source = "\n".join([
        "def phi_forms(A, B, C, D, L):",
        *lines,
        "    return (",
        *(f"        {form}," for form in forms),
        "    )",
    ])
    namespace: dict = {}
    exec(compile(source, "<phi kernel>", "exec"), namespace)
    return namespace["phi_forms"]


def phi_vector(v: Tuple[int, ...]) -> Tuple[int, ...]:
    """phi on integers: the image of the point that the primitive vector
    v = (A, B, C, D, L) stands for, as its primitive vector
    (P1, P2, P3, P4, Q), Q > 0.  The homogenized forms of _phi_kernel give
    L^h p_i(pt) / L^h q(pt) = P_i / Q exactly, and dividing out the gcd
    (with the sign of Q) makes the result primitive again."""
    *nums, den = _phi_kernel()(*v)
    if den == 0:
        raise DenominatorVanishes(_PHI_UNDEFINED)
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
    """Image of a numeric or symbolic point, exactly, from the one compiled
    kernel.  An int/Fraction point goes through phi_vector and comes back
    as four Fractions.  Polynomial and rational-function coordinates are
    cleared of their common denominator first, as phi_vector does with L:
    the kernel runs on polynomials, and each coordinate comes back as one
    RatFunc quotient."""
    if all(isinstance(x, (int, Fraction)) for x in pt):
        *nums, den = phi_vector(to_vector(pt))
        return tuple(Fraction(n, den) for n in nums)
    coords = [RatFunc.of(x) for x in pt]
    ell = UPoly((1,))
    for x in coords:
        ell = ell * x.den.exact_div(upoly_gcd(ell, x.den))
    vals = [x.num * ell.exact_div(x.den) for x in coords]
    *nums, den = _phi_kernel()(*vals, ell if ell.degree else 1)
    if den == 0:
        raise DenominatorVanishes(_PHI_UNDEFINED)
    return tuple(RatFunc(n, den) for n in nums)


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


def as_int_point(pt: Point):
    """Cast exact rational coordinates to ints, or None if any is not."""
    out = []
    for x in pt:
        if isinstance(x, int):
            out.append(x)
        elif isinstance(x, Fraction) and x.denominator == 1:
            out.append(x.numerator)
        else:
            return None
    return tuple(out)
