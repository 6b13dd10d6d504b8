"""Parametrization families and the point classifier.

Families:

  * xi(n, t): the degree 2n+1 rows of the recurrence
    xi(n+1) = f * xi(n) - xi(n-1), f = 2t^2 + 10t + 10, from
    xi(0, t) = (t+1, ..., t+4) and xi(-1, t) = (t+4, -t-3, -t-2, t+1), run
    by xi_eval on numbers and on the polynomial T alike, with a closed form
    in the quadratic extension ring; the degree-growing map carries each
    row to the next, which verify.verify_families checks;
  * a quartic family over Q with denominator 4, integral away from t = 3
    mod 4, plus its two integral restrictions (even arguments, arguments
    1 mod 4) and a never-integral variant with denominator 3;
  * fifteen rational families r(i, t), loaded from a bundled asset.

The classifier decides where a strictly increasing positive integer point
came from: trivial, one of the families above, a tower of degree-growing-map
lifts over such a point, or sporadic (none of the preceding).  Descent drives
the lift detection: the inverse map is "apply the involution, then tidy signs
and order", so the classifier walks all involution-adjacent images of the
point whose height strictly drops, re-testing the base families at every
level.  Every non-sporadic verdict is re-verified by exact forward evaluation
before it is returned.  Descent runs on integers: each chain node is the
primitive vector (A, B, C, D, L) of maps.to_vector, and Fractions appear only
at the boundary: the input, the points descent_chain returns, a witness's
base value and a family parameter.

The extension tests and the extension curves of curves.py share one
radicand: 2 s4^2 - s3^2 + 2 on the right, 2 s1^2 - s2^2 + 2 on the left.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt
from typing import List, Optional, Sequence, Tuple

from . import assets
from .arith import as_perfect_square, format_rational, parse_rational
from .maps import (
    IDENTITY,
    TAU,
    DenominatorVanishes,
    TrivialInvolution,
    from_vector,
    group_elements,
    normalize_point,
    to_vector,
    vector_on_surface,
    zeta_inv_vector,
    zeta_vector,
)
from .poly import (
    QuadExt,
    T,
    UPoly,
    gcd_mod,
    horner,
    int_poly_gcd,
    rational_reconstruction,
    upoly_gcd,
)
from .polytext import parse_coeffs, parse_upoly
from .record import Record, slot_setters

__all__ = [
    "NonIntegral",
    "F_POLY",
    "xi_poly",
    "xi_eval",
    "xi_closed_form",
    "prop33_solve",
    "p_family",
    "p_value",
    "p_eval",
    "r_family",
    "r_value",
    "r_eval",
    "thirds_family",
    "trivial_parameter",
    "is_trivial",
    "is_increasing_positive",
    "extends",
    "extends_left",
    "extends_right",
    "Classification",
    "classify",
    "descent_chain",
    "verify_classification",
]


class NonIntegral(ValueError):
    """The family takes no integer value at this argument."""


# f drives the second-order recurrence shared by every xi component.
F_POLY = parse_upoly("2t^2 + 10t + 10")


# -- xi by recurrence ---------------------------------------------------------

def xi_eval(n: int, t) -> Tuple:
    """xi(n, t), by running the recurrence n steps from
    xi(-1, t) = f xi(0, t) - xi(1, t) = (t+4, -t-3, -t-2, t+1) and
    xi(0, t) = (t+1, ..., t+4), so no polynomial is evaluated.  t is a
    number, or the polynomial T for the symbolic rows of xi_poly."""
    if n < 0:
        raise ValueError("negative index")
    if isinstance(t, Fraction) and t.denominator == 1:
        t = t.numerator
    prev, cur = (t + 4, -t - 3, -t - 2, t + 1), (t + 1, t + 2, t + 3, t + 4)
    ft = 2 * t * t + 10 * t + 10
    for _ in range(n):
        prev, cur = cur, tuple(ft * b - a for a, b in zip(prev, cur))
    return cur


@lru_cache(maxsize=None)
def xi_poly(n: int) -> Tuple[UPoly, UPoly, UPoly, UPoly]:
    """The four components of xi(n, t), memoized; degrees 2n+1."""
    return xi_eval(n, T)


# -- xi in closed form --------------------------------------------------------

@lru_cache(maxsize=1)
def _closed_form_data() -> Tuple[Tuple[UPoly, ...], QuadExt]:
    """(A_1, ..., A_4) and beta of xi_closed_form, built on its first call."""
    closed_a = tuple(
        parse_upoly(s)
        for s in (
            "t^3 + 6t^2 + 9t + 1",
            "t^3 + 7t^2 + 16t + 13",
            "t^3 + 8t^2 + 21t + 17",
            "t^3 + 9t^2 + 24t + 19",
        )
    )
    return closed_a, QuadExt(parse_upoly("t^2 + 5t + 5"), 1)


def xi_closed_form(n: int) -> Tuple[UPoly, UPoly, UPoly, UPoly]:
    """xi_i(n, t) as the alpha-component of (A_i + B_i alpha) beta^n in the
    quadratic extension with alpha^2 = (t+1)(t+2)(t+3)(t+4), where
    beta = t^2 + 5t + 5 + alpha is a unit (beta times its conjugate is 1)
    and B_i = t + i.  The component must come out a polynomial."""
    if n < 0:
        raise ValueError("negative index")
    closed_a, beta = _closed_form_data()
    bn = beta**n
    out = []
    for i in range(4):
        x = QuadExt(closed_a[i], T + (i + 1)) * bn
        if not x.v.is_polynomial():
            raise ArithmeticError("closed form is not a polynomial")
        out.append(x.v.as_upoly())
    return tuple(out)


def prop33_solve(alpha, u0, u1, u2, n: int, parity: str):
    """u(2n) or u(2n-1) for the recurrence u(k+2) = alpha*u(k+1) - u(k),
    directly from binomial sums instead of iterating.

    Works over any commutative ring the inputs live in (integers or
    polynomials).  The odd case's top term must be alpha^(2n-2) * u1:
    writing it with u2 there overstates the result by alpha^(2n-2) * (u2
    - u1), e.g. 999 instead of 99 for alpha = 10, u0 = 0, u1 = 1, n = 2.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if u2 != alpha * u1 - u0:
        raise ValueError("u2 must equal alpha*u1 - u0")
    if parity == "even":
        total = 0
        for k in range(n):
            sign = 1 if (n + k + 1) % 2 == 0 else -1
            term = comb(n + k, n - k - 1) * alpha * u1 - comb(n + k - 1, n - k - 1) * u0
            total = total + sign * alpha ** (2 * k) * term
        return total
    if parity == "odd":
        total = alpha ** (2 * n - 2) * u1
        for k in range(n - 1):
            sign = 1 if (n + k + 1) % 2 == 0 else -1
            term = comb(n + k - 1, n - k - 1) * u1
            if n - k - 2 >= 0:
                term = term + comb(n + k - 1, n - k - 2) * alpha * u0
            total = total + sign * alpha ** (2 * k) * term
        return total
    raise ValueError("parity must be 'even' or 'odd'")


# -- bundled quartic and rational families -------------------------------------


@lru_cache(maxsize=1)
def _family_table() -> dict:
    """Every bundled family, keyed by block name ('quartic', 'quartic-even',
    'quartic-odd', 'thirds', '1'..'15'), as (n1, n2, n3, n4, den): integer
    coefficient lists, constant first, padded with zeros to one length
    D + 1, which horner reads as forms of degree D in (a : b)."""
    blocks: dict = {}
    for asset in ("poly_families.txt", "rat_families.txt"):
        for line in assets.lines(asset):
            if line.startswith("[") and line.endswith("]"):
                block = blocks[line[1:-1]] = {}
                continue
            key, _, body = line.partition(":")
            block[key.strip()] = parse_coeffs(body)
    table = {}
    for name, block in blocks.items():
        polys = [block[key] for key in ("n1", "n2", "n3", "n4", "den")]
        width = max(map(len, polys))
        table[name] = tuple(tuple(cs) + (0,) * (width - len(cs)) for cs in polys)
    return table


@lru_cache(maxsize=None)
def p_family(variant: str = "quartic") -> Tuple[int, Tuple[UPoly, ...]]:
    """(denominator, numerators) of one of the bundled constant-denominator
    families: 'quartic', 'quartic-even', 'quartic-odd', or 'thirds'."""
    table = _family_table()
    if variant not in table or variant.isdigit():  # '1'..'15' are r_family's
        raise KeyError(f"unknown family variant {variant!r}")
    *nums, den = table[variant]
    return den[0], tuple(map(UPoly, nums))


def thirds_family() -> Tuple[int, Tuple[UPoly, ...]]:
    return p_family("thirds")


def _family_value(index: int, t) -> Tuple[Fraction, ...]:
    """r(index) at t, or the quartic family for index 0: with t = a/b,
    n_j(t)/den(t) = N_j(a, b)/Den(a, b) for the forms of _forms."""
    *nums, den = (horner(cs, t.numerator, t.denominator) for cs in _forms(index))
    if den == 0:
        raise DenominatorVanishes(f"family {index} denominator vanishes at t = {t}")
    return tuple(Fraction(n, den) for n in nums)


def p_value(t) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """The quartic family at any rational argument, exactly."""
    return _family_value(0, t)


def p_eval(t) -> Tuple[int, int, int, int]:
    """Integer values of the quartic family; NonIntegral unless every value
    is an integer, which at integer t is exactly t != 3 mod 4."""
    values = p_value(t)
    if any(v.denominator != 1 for v in values):
        raise NonIntegral(f"the quartic family is non-integral at t = {t}")
    return tuple(v.numerator for v in values)


@lru_cache(maxsize=None)
def r_family(i: int) -> Tuple[UPoly, Tuple[UPoly, ...]]:
    """(denominator, numerators) of the i-th rational family, i in 1..15."""
    if i not in range(1, 16):
        raise KeyError(f"rational family index must be 1..15, got {i}")
    *nums, den = _forms(i)
    return UPoly(den), tuple(map(UPoly, nums))


def r_value(i: int, t) -> Tuple[Fraction, ...]:
    """The i-th rational family at any rational argument, exactly."""
    if i not in range(1, 16):  # _forms(0) is the quartic family
        raise KeyError(f"rational family index must be 1..15, got {i}")
    return _family_value(i, t)


# The contract name: exact rational point of the i-th family.
r_eval = r_value


# -- triviality and extension --------------------------------------------------


def trivial_parameter(seq: Sequence) -> Optional[Fraction]:
    """x with seq_i^2 = (x+i)^2 for i = 1..4, if one exists.

    Sign-insensitive, and exact over rationals as well as integers; integer
    results come back as int.  Unless |s2| - |s1| = +-1 or |s1| + |s2| = 1
    the answer is None without any squaring (see _vector_trivial, which
    this runs on to_vector(seq)).
    """
    return _vector_trivial(to_vector(seq))


def _vector_trivial(v: Tuple[int, ...]) -> Optional[Fraction]:
    """trivial_parameter of the point the primitive vector v stands for.

    x + 1 = +-s1 forces |s2| = |s1 + 1| or |s1 - 1|, that is
    |s2| - |s1| = +-1 or |s1| + |s2| = 1; on the vector, |B| - |A| = +-L or
    |A| + |B| = L.  That rejects almost every non-trivial point before any
    squaring.  Otherwise the candidates L x = +-A - L are checked exactly,
    as (L x + i L)^2 = (L s_i)^2.
    """
    a, b, c, d, ell = v
    ma, mb = abs(a), abs(b)
    if mb - ma != ell and ma - mb != ell and ma + mb != ell:
        return None
    for x in (a - ell, -a - ell):
        if all(s * s == (x + i * ell) ** 2 for i, s in enumerate((a, b, c, d), 1)):
            return x // ell if x % ell == 0 else Fraction(x, ell)
    return None


def is_trivial(seq: Sequence) -> bool:
    return trivial_parameter(seq) is not None


def is_increasing_positive(seq: Sequence) -> bool:
    return seq[0] > 0 and all(seq[i] < seq[i + 1] for i in range(3))


def _radicand(seq: Sequence, side: str):
    """2*s4^2 - s3^2 + 2 for the right side, 2*s1^2 - s2^2 + 2 for the
    left: the square of the fifth term that extends seq on that side.  The
    terms may lie in any ring, so at xi(n, t) this is the right-hand side
    of the level-n extension curve."""
    if side == "right":
        a, b = seq[3], seq[2]
    elif side == "left":
        a, b = seq[0], seq[1]
    else:
        raise ValueError("side must be 'left' or 'right'")
    return 2 * a * a - b * b + 2


def extends_right(seq: Sequence) -> Optional[int]:
    """The nonnegative x5 with x5^2 = 2*s4^2 - s3^2 + 2, if the radicand is
    a perfect square; None otherwise."""
    return as_perfect_square(_radicand(seq, "right"))


def extends_left(seq: Sequence) -> Optional[int]:
    """The nonnegative x0 with x0^2 = 2*s1^2 - s2^2 + 2, if square."""
    return as_perfect_square(_radicand(seq, "left"))


def extends(seq: Sequence, side: str) -> Optional[int]:
    return as_perfect_square(_radicand(seq, side))


# -- classification ------------------------------------------------------------


def _json_number(v):
    """Integers stay numbers; genuine rationals become exact strings."""
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else format_rational(v)
    return v


def _as_int_if_whole(v):
    return v.numerator if v.denominator == 1 else v


_KINDS = frozenset(("trivial", "xi", "p", "r", "lift", "sporadic"))


class Classification(Record):
    """Where a point came from.

    kind is one of 'trivial', 'xi', 'p', 'r', 'lift', 'sporadic'; any other
    raises ValueError.  A 'lift' wraps a base verdict b plus a count k >= 1:
    the point is eta(zeta^k(w)) for a trivial involution eta and a point w
    whose increasing positive form is b (or w is trivial).  witness carries
    the exact descent data (the outer involution, k, the inner involution
    and the base point) so the verdict can be replayed forward; it is
    deliberately excluded from the serialized forms, from equality, hashing
    and repr.
    """

    __slots__ = ("kind", "n", "t", "x", "index", "base", "lifts", "witness", "_key")

    def __init__(
        self,
        kind: str,
        n: Optional[int] = None,
        t: Optional[Fraction] = None,
        x: Optional[Fraction] = None,
        index: Optional[int] = None,
        base: Optional[Classification] = None,
        lifts: int = 0,
        witness: Optional[tuple] = None,
    ):
        if kind not in _KINDS:
            raise ValueError(f"unknown classification kind {kind!r}")
        _set_kind(self, kind)
        _set_n(self, n)
        _set_t(self, t)
        _set_x(self, x)
        _set_index(self, index)
        _set_base(self, base)
        _set_lifts(self, lifts)
        _set_witness(self, witness)
        # kept, not computed: comparing two verdicts is one tuple comparison
        _set_key(self, (kind, n, t, x, index, base, lifts))

    def describe(self) -> str:
        if self.kind == "trivial":
            return f"Trivial(x={self.x})"
        if self.kind == "xi":
            return f"Xi(n={self.n}, t={self.t})"
        if self.kind == "p":
            return f"P(t={self.t})"
        if self.kind == "r":
            return f"R(i={self.index}, t={format_rational(self.t)})"
        if self.kind == "lift":
            return f"ZetaLift(k={self.lifts}, base={self.base.describe()})"
        return "Sporadic"

    def serialize(self) -> str:
        if self.kind == "trivial":
            return "trivial"
        if self.kind == "xi":
            return f"xi:{self.n}:{format_rational(self.t)}"
        if self.kind == "p":
            return f"p:{format_rational(self.t)}"
        if self.kind == "r":
            return f"r:{self.index}:{format_rational(self.t)}"
        if self.kind == "lift":
            return f"zeta^{self.lifts}({self.base.serialize()})"
        return "sporadic"

    @classmethod
    def parse(cls, text: str) -> "Classification":
        """Inverse of serialize (witness data and the trivial x are not
        part of the serialized form and come back empty).  Only canonical
        text, which serialize gives back unchanged, and only what classify
        can return parses: a lift has k >= 1 over a trivial, xi, p or r
        base, xi has n >= 1 and an integer t >= 0, and r an index in
        1..15; anything else raises ValueError."""
        kind, _, rest = text.partition(":")
        if text in ("trivial", "sporadic"):
            got = cls(text)
        elif text.startswith("zeta^"):
            head, _, inner = text.partition("(")
            lifts, base = int(head[5:]), cls.parse(inner[:-1])
            if lifts < 1 or base.kind in ("lift", "sporadic"):
                raise ValueError(f"no lift serializes as {text!r}")
            got = cls("lift", base=base, lifts=lifts)
        elif kind == "xi":
            n_s, _, t_s = rest.partition(":")
            n, t = int(n_s), parse_rational(t_s)
            if n < 1 or t.denominator != 1 or t < 0:
                raise ValueError(f"xi needs n >= 1 and an integer t >= 0: {text!r}")
            got = cls("xi", n=n, t=t.numerator)
        elif kind == "p":
            got = cls("p", t=_as_int_if_whole(parse_rational(rest)))
        elif kind == "r":
            i_s, _, t_s = rest.partition(":")
            index = int(i_s)
            if index not in range(1, 16):
                raise ValueError(f"rational family index must be 1..15: {text!r}")
            got = cls("r", index=index, t=_as_int_if_whole(parse_rational(t_s)))
        else:
            raise ValueError(f"unrecognized classification {text!r}")
        if got.serialize() != text:
            raise ValueError(f"{text!r} is not canonical: serialize writes {got.serialize()!r}")
        return got

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "trivial":
            out["x"] = _json_number(self.x)
        elif self.kind == "xi":
            out["n"] = self.n
            out["t"] = _json_number(self.t)
        elif self.kind == "p":
            out["t"] = _json_number(self.t)
        elif self.kind == "r":
            out["index"] = self.index
            out["t"] = _json_number(self.t)
        elif self.kind == "lift":
            out["lifts"] = self.lifts
            out["base"] = self.base.to_json()
        return out


(_set_kind, _set_n, _set_t, _set_x, _set_index, _set_base, _set_lifts,
 _set_witness, _set_key) = slot_setters(Classification)


def _exact_point(seq: Sequence) -> Tuple:
    out = []
    for v in seq:
        if isinstance(v, int):
            out.append(v)
        elif isinstance(v, Fraction):
            out.append(v.numerator if v.denominator == 1 else v)
        else:
            raise TypeError("coordinates must be exact integers or rationals")
    return tuple(out)


def _rational_roots(poly: UPoly) -> list[Fraction]:
    """All rational roots, exactly, by p-adic lifting (Loos 1983).

    g is the squarefree primitive part of poly, a root at 0 split off.  A
    root a/b of g in lowest terms has a | g(0) and b | lc(g), so p, the
    least odd prime that keeps g squarefree of the same degree mod p
    (gcd_mod), does not divide b, and a/b mod p is a simple root of g mod
    p.  Newton's step lifts each such root uniquely mod m = p^2, p^4, ...
    until m > 2 H^2, H = max(|g(0)|, lc(g)) >= |a|, b, so a/b is the one
    fraction rational_reconstruction rebuilds; it is kept if b^D g(a/b) = 0,
    D = deg g, which horner computes in integers.
    """
    if poly.is_zero():
        raise ValueError("zero polynomial has every root")
    f = UPoly(poly.primitive_int()[0])
    g = f.exact_div(upoly_gcd(f, f.derivative())).primitive_int()[0]
    roots = []
    if g[0] == 0:
        roots, g = [Fraction(0)], g[1:]
    dg = [k * c for k, c in enumerate(g)][1:]
    p = 3
    while gcd_mod((g, dg), p) != [1]:  # None when p divides lc(g)
        p += 2
        while any(p % q == 0 for q in range(3, isqrt(p) + 1, 2)):
            p += 2
    bound = 2 * max(abs(g[0]), g[-1]) ** 2
    for r in range(p):  # a constant g has no root mod p
        if horner(g, r) % p:
            continue
        m = p
        while m <= bound:
            m *= m
            r = (r - horner(g, r) * pow(horner(dg, r), -1, m)) % m
        t = rational_reconstruction(r, m)
        if t is not None and horner(g, t.numerator, t.denominator) == 0:
            roots.append(t)
    return sorted(roots)


# xi1(0, 0) and xi1(1, 0): the first two level floors of _invert_xi
_XI1_FLOORS = (1, 6)


def _invert_xi(pt: Tuple[int, ...]) -> Optional[Classification]:
    """Solve xi(n, t) = pt for n >= 1, t >= 0 by monotone bisection on the
    first component a_n(t) = xi1(n, t), level by level while the floor
    a_n(0) is at most pt[0].

    Bisection and the floors rest on one induction.  For t >= 0,
    f = 2t^2 + 10t + 10 >= 10 and f' = 4t + 10 >= 0.  From a_0 = t + 1 and
    a_1 = 2t^3 + 12t^2 + 19t + 6, a_1 >= a_0 > 0 and a'_1 >= a'_0 = 1 > 0
    (verify.verify_families checks this base case), and
    a_{n+1} = f a_n - a_{n-1} then gives a_{n+1} >= 10 a_n - a_{n-1}
    >= 9 a_n > 0 (as a_{n-1} <= a_n), and a'_{n+1} = f' a_n + f a'_n
    - a'_{n-1} gives a'_{n+1} >= 9 a'_n > 0 alike, for every n >= 1.  So
    each a_n increases on t >= 0, and the floors a_n(0) increase in n: once
    one exceeds pt[0], no level left can hit.  At t = 0, f = 10, so the
    floors are the integers a_{n+1}(0) = 10 a_n(0) - a_{n-1}(0): 1, 6, 59,
    584, 5781, ..."""
    s1 = pt[0]
    n = 1
    below, floor = _XI1_FLOORS
    while floor <= s1:
        lo, hi = 0, 1
        while xi_eval(n, hi)[0] < s1:
            lo, hi = hi, hi * 2
        while lo < hi:
            mid = (lo + hi) // 2
            if xi_eval(n, mid)[0] < s1:
                lo = mid + 1
            else:
                hi = mid
        if xi_eval(n, lo) == pt:
            return Classification("xi", n=n, t=lo)
        n += 1
        below, floor = floor, 10 * floor - below
    return None


# Descent prime: a one-word modulus keeps the modular certificate cheap, and
# a leading coefficient it divides only sends the case to the exact gcd.
_DESCENT_PRIME = 2**31 - 1


@lru_cache(maxsize=None)
def _forms(index: int) -> Tuple[Tuple[int, ...], ...]:
    """The forms (n1, n2, n3, n4, den) of r(index), or of the quartic
    family for index 0, from _family_table: what the sieve, _family_has,
    _family_value, _constraints and r_family read."""
    return _family_table()[str(index) if index else "quartic"]


# -- residue sieve over P^1(F_l) ----------------------------------------------

# Small primes for the family sieve.  The surface has about l^2 points mod l
# and a family's image about l, so each prime lets through roughly one
# non-member in l per family.  Two primes send 37 of the 49,728 family tests
# at x2 <= 30000 to the exact path, 15 of them members; a third would cost
# more to build than it saves.
_SIEVE_PRIMES = (37, 41)


def _projective_key(vals: Sequence[int], ell: int) -> int:
    """The residues of vals mod ell, scaled so that the first nonzero one is
    1 and read as base-ell digits: one key per point of projective space
    over F_ell.  The residues must not all vanish."""
    res = [v % ell for v in vals]
    inv = pow(next(filter(None, res)), -1, ell)
    key = 0
    for v in res:
        key = key * ell + v * inv % ell
    return key


def _residue_image(polys, ell: int) -> Tuple[frozenset, bool]:
    """(image keys, loose) of the map P^1(F_ell) -> P^4(F_ell) given by
    polys, five coefficient lists of one length D + 1, constant first, read
    as forms of degree D in (a : b): the coefficient of t^k belongs to
    a^k b^(D-k).  The points (t : 1) and the point at infinity (1 : 0) are
    all mapped.  A point where all five forms vanish has no image; such a
    common root makes the family loose at ell."""
    keys = set()
    loose = False
    for a, b in [*((t, 1) for t in range(ell)), (1, 0)]:
        vals = [horner(cs, a, b) % ell for cs in polys]
        if any(vals):
            keys.add(_projective_key(vals, ell))
        else:
            loose = True
    return frozenset(keys), loose


def _sieve_tables(families, primes) -> tuple:
    """Per prime ell, (ell, image key -> mask, loose mask), where bit i of a
    mask stands for families[i]."""
    tables = []
    for ell in primes:
        masks: dict = {}
        loose = 0
        for i, polys in enumerate(families):
            keys, is_loose = _residue_image(polys, ell)
            for key in keys:
                masks[key] = masks.get(key, 0) | 1 << i
            if is_loose:
                loose |= 1 << i
        tables.append((ell, masks, loose))
    return tuple(tables)


@lru_cache(maxsize=1)
def _family_sieve() -> tuple:
    """Sieve tables of the quartic family (bit 0) and r1..r15, built on
    the first membership test rather than at import."""
    return _sieve_tables([_forms(i) for i in range(16)], _SIEVE_PRIMES)


def _sieve_mask(v: Tuple[int, ...], tables) -> int:
    """Bits of the families that the point of the primitive vector v may
    belong to: v = (L w1 : ... : L w4 : L) must reduce into the family's
    image at every prime, unless the family is loose there."""
    mask = -1
    for ell, masks, loose in tables:
        mask &= masks.get(_projective_key(v, ell), 0) | loose
        if not mask:
            break
    return mask


def _constraints(forms, v) -> list[list[int]]:
    """The nonzero integer constraints L n_j(t) - A_j den(t), j = 1..4,
    whose common rational roots t are the parameters at which the family
    of forms (_forms) takes the point of the primitive vector
    v = (A1, ..., A4, L)."""
    *nums, den = forms
    ell = v[4]
    constraints = []
    for n, x in zip(nums, v):
        c = [ell * a - x * b for a, b in zip(n, den)]
        while c and c[-1] == 0:
            c.pop()
        if c:
            constraints.append(c)
    return constraints


def _exact_parameters(constraints) -> list[Fraction]:
    """The rational common roots of nonzero integer constraints, or a
    superset of them, exactly: the rational roots (_rational_roots) of
    their primitive gcd (int_poly_gcd).  The gcd folds in one constraint at
    a time and stops once its degree is at most one, since a linear gcd's
    root is then the only candidate and a constant leaves none."""
    g = constraints[0]
    for c in constraints[1:]:
        if len(g) <= 2:
            break
        g = int_poly_gcd(g, c)
    return _rational_roots(UPoly(g))


def _family_parameter(index: int, v: Tuple[int, ...]) -> Optional[Fraction]:
    """The t at which family index (0 the quartic family, else r(index))
    takes the point of the primitive vector v, or None.  Membership is
    exact equality of signed tuples: a family value whose involution image
    is the point does not count, matching the bundled table's convention.

    The constraints (_constraints) are built once.  Their gcd mod
    _DESCENT_PRIME is taken until it has degree at most one (gcd_mod).
    Since the first constraint's leading coefficient survives mod p, the
    exact primitive gcd has at most that degree.  Degree 0 proves that
    there is no candidate.  Degree 1 has one root r mod p; rebuilt as a/b
    with |a|, b <= sqrt(p/2) and confirmed by the exact _family_has, that
    t is a common root of the constraints, so the exact gcd has degree one
    with root t, and t is the only candidate.  Every other outcome (p
    divides the leading coefficient, the gcd mod p has degree two or more,
    the root has no fraction within the bound or the confirmation fails)
    runs the exact gcd on the same constraints and lifts its roots p-adically
    (_exact_parameters), and _family_has decides each candidate."""
    constraints = _constraints(_forms(index), v)
    if not constraints:
        return None
    g = gcd_mod(constraints, _DESCENT_PRIME, until=1)
    if g is not None:
        if len(g) == 1:
            return None
        if len(g) == 2:
            t = rational_reconstruction(-g[0], _DESCENT_PRIME)
            if t is not None and _family_has(index, t, v):
                return t
    return next(
        (t for t in _exact_parameters(constraints) if _family_has(index, t, v)), None
    )


def _family_has(index: int, t: Fraction, v: Tuple[int, ...]) -> bool:
    """Whether the family value at t is the point of the primitive vector
    v = (A1, ..., A4, L).  With t = a/b, the homogenized forms give
    n_j(t)/den(t) = N_j(a, b)/Den(a, b), so the test is Den(a, b) != 0 and
    N_j(a, b) L = A_j Den(a, b) for j = 1..4."""
    *nums, den = (horner(cs, t.numerator, t.denominator) for cs in _forms(index))
    ell = v[4]
    return den != 0 and all(n * ell == x * den for n, x in zip(nums, v))


def _invert_family(v: Tuple[int, ...]) -> Optional[Classification]:
    """Membership of the point of the primitive vector v in the quartic
    family (index 0), then in r1..r15.

    A residue sieve rejects first, and only rejects: a family is solved
    exactly (_family_parameter) unless, for some ell in _SIEVE_PRIMES at
    which it is not loose, v reduces mod ell outside the image of
    P^1(F_ell) under the family's homogenized map
    F = (n1 : n2 : n3 : n4 : den).  This is sound.  If the point is F(a/b)
    with gcd(a, b) = 1, the integer vector F(a, b) is c times v for an
    integer c.  When ell does not divide c, v reduces to the image of
    (a : b) mod ell.  When ell divides c, (a : b) mod ell is a common root
    of all five forms, and a family with such a root is loose at ell: that
    prime never rejects it.

    A family the sieve keeps is settled from the gcd of its constraints
    mod _DESCENT_PRIME: a constant proves that there is no candidate, and
    a degree-one gcd gives its root as a fraction of small height, which
    one exact _family_has test confirms as the only candidate.  The exact
    gcd runs, on the same constraints, only on what that cannot settle
    (see _family_parameter).
    """
    mask = _sieve_mask(v, _family_sieve())
    for i in range(16):
        if not mask >> i & 1:
            continue
        t = _family_parameter(i, v)
        if t is not None:
            t = _as_int_if_whole(t)
            if i:
                return Classification("r", index=i, t=t)
            return Classification("p", t=t)
    return None


def _match_family(v: Tuple[int, ...]) -> Optional[Classification]:
    """Base-family membership for the primitive vector of a strictly
    increasing positive point.  Integer points (L = 1) are tested against
    xi; the quartic and rational families are solved over the rationals
    (their parameters need not be integers along descent chains)."""
    hit = _invert_xi(v[:4]) if v[4] == 1 else None
    return hit or _invert_family(v)


def _height(v: Tuple[int, ...]) -> Tuple[int, int]:
    """max |w_i| of the point of v, as (max |A_i|, L); _lower compares."""
    return max(map(abs, v[:4])), v[4]


def _lower(h: Tuple[int, int], g: Tuple[int, int]) -> bool:
    """Whether height h is strictly below height g, by cross-multiplying."""
    return h[0] * g[1] < g[0] * h[1]


_MAX_CHAIN = 200


@lru_cache(maxsize=1)
def _chain_representatives() -> Tuple[TrivialInvolution, ...]:
    """Coset representatives of the involution group modulo the subgroup
    {1, -1, tau, -tau} that commutes with the degree-growing map.  Chains
    started from equivalent outer involutions visit sign/order-equivalent
    nodes, so one representative per coset suffices."""
    minus = TrivialInvolution((-1, -1, -1, -1), False)
    central = (IDENTITY, minus, TAU, TAU.compose(minus))
    reps = []
    seen = set()
    for eta in group_elements():
        if eta not in seen:
            seen.update(c.compose(eta) for c in central)
            reps.append(eta)
    return tuple(reps)


def _normalize(v: Tuple[int, ...]):
    """normalize_point on a primitive vector: (g, g.on_vector(v)), or
    None.  L > 0, so the signs and order of A..D are those of the point."""
    norm = normalize_point(v[:4])
    if norm is None:
        return None
    g, head = norm
    return g, (*head, v[4])


def _base_of(w: Tuple[int, ...]) -> Optional[Tuple[TrivialInvolution, Classification]]:
    """(inner involution, base verdict) if the point of the primitive
    vector w is trivial, or if its strictly increasing positive form is a
    family point; the involution maps w onto that form.  Only the
    normalized form is matched, so a family value that is not itself
    increasing and positive is never a base."""
    x = _vector_trivial(w)
    if x is not None:
        return IDENTITY, Classification("trivial", x=x)
    norm = _normalize(w)
    if norm is None:
        return None
    inner, wn = norm
    hit = _match_family(wn)
    if hit is None:
        return None
    return inner, hit


def _descend(v: Tuple[int, ...]) -> Optional[Classification]:
    """Search for a tower eta(pt) = zeta^k(w), k >= 1, over a family or
    trivial point w, where v is the primitive vector of pt.

    The map is deterministic once the outer involution is fixed, so the
    search is a bundle of straight chains, not a tree: for each coset
    representative eta, repeatedly peel one inverse map application off
    eta(pt) while the height strictly decreases, testing the base families
    at every chain node.  Towers sit inside orbits on which the map is
    expansive, so their peeled heights do decrease monotonically.  Each
    chain stops after _MAX_CHAIN = 200 steps even if the height is still
    falling, and nothing reports that cut-off: a tower more than 200 steps
    above its base is not found.

    One direction suffices.  The twist Z of zeta = phi Z is an involution
    that commutes with -1 and tau, so zeta^-1 = Z zeta Z, and the forward
    chain from eta is Z applied to the inverse chain from the representative
    of Z eta: same heights, same normal forms, same bases.  Every node is a
    primitive integer vector (zeta_inv_vector), heights compare by
    cross-multiplication, and only a hit's base value is converted back to
    int/Fraction coordinates for its witness.  Any hit is replayed forward
    exactly before it is accepted.
    """
    h0 = _height(v)
    for eta in _chain_representatives():
        w = eta.on_vector(v)
        h = h0
        for k in range(1, _MAX_CHAIN + 1):
            try:
                w = zeta_inv_vector(w)
            except ZeroDivisionError:
                break
            found = _base_of(w)
            if found is not None:
                inner, base = found
                cls = Classification(
                    "lift",
                    base=base,
                    lifts=k,
                    witness=(eta, k, inner, from_vector(inner.on_vector(w))),
                )
                if _tower_replays(v, cls):
                    return cls
            hw = _height(w)
            if not _lower(hw, h):
                break
            h = hw
    return None


def _tower_replays(v: Tuple[int, ...], cls: Classification) -> bool:
    """Forward-evaluate a lift witness back up to the point of the
    primitive vector v: the base value's vector, the inverse inner
    involution, k applications of zeta_vector and the inverse outer
    involution must give v itself.  Primitive vectors with L > 0 are
    unique, so vector equality is exact point equality."""
    eta, k, inner, base_value = cls.witness
    x = inner.inverse().on_vector(to_vector(base_value))
    try:
        for _ in range(k):
            x = zeta_vector(x)
    except ZeroDivisionError:
        return False
    return eta.inverse().on_vector(x) == v


def _surface_vector(seq: Sequence) -> Tuple[int, ...]:
    """The primitive vector of an exact point, which must lie on the
    surface."""
    pt = _exact_point(seq)
    v = to_vector(pt)
    if not vector_on_surface(v):
        raise ValueError(f"{pt} does not satisfy the two defining equations")
    return v


def descent_chain(seq: Sequence) -> List[Tuple]:
    """The plain peel-and-renormalize chain under the inverse map.

    Starting from the increasing-positive form of seq, apply the inverse
    map and renormalize while the height strictly decreases, collecting
    every point visited (the input's normalized form first).  The chain
    stops at a trivial point, at a vanishing denominator, when the height
    stops dropping, or after _MAX_CHAIN = 200 steps (201 points), the same
    cap as in _descend, and the result does not say which stop it hit.
    classify() chases the sign/order variants of this chain, this is the
    one-line diagnostic view.  The walk is the one _descend takes, on
    primitive integer vectors; each point comes back with int coordinates
    where they are whole and Fractions elsewhere.
    """
    w = _surface_vector(seq)
    norm = _normalize(w)
    if norm is not None:
        w = norm[1]
    chain = [w]
    h = _height(w)
    for _ in range(_MAX_CHAIN):
        if _vector_trivial(w) is not None:
            break
        try:
            w = zeta_inv_vector(w)
        except ZeroDivisionError:
            break
        norm = _normalize(w)
        if norm is not None:
            w = norm[1]
        chain.append(w)
        hw = _height(w)
        if not _lower(hw, h):
            break
        h = hw
    return [from_vector(w) for w in chain]


def classify(seq: Sequence) -> Classification:
    """Full classification of an exact point on the surface.

    Order: trivial, then direct family membership, then lift descent, then
    sporadic.  Non-trivial inputs must be strictly increasing and positive
    (descend from the caller's side with a trivial involution first if not).
    """
    v = _surface_vector(seq)
    x = _vector_trivial(v)
    if x is not None:
        return Classification("trivial", x=x)
    if not is_increasing_positive(v[:4]):
        raise ValueError(
            "non-trivial points must be strictly increasing and positive"
        )
    base = _match_family(v)
    if base is not None:
        return base
    lifted = _descend(v)
    if lifted is not None:
        return lifted
    return Classification("sporadic")


def verify_classification(seq: Sequence, cls: Classification) -> bool:
    """Re-evaluate a verdict forward and compare with the sequence."""
    pt = _exact_point(seq)
    if cls.kind == "trivial":
        x = cls.x
        return all(s * s == (x + i) * (x + i) for i, s in enumerate(pt, 1))
    if cls.kind == "xi":
        return xi_eval(cls.n, cls.t) == pt
    if cls.kind == "p":
        return p_value(cls.t) == pt
    if cls.kind == "r":
        return r_value(cls.index, cls.t) == pt
    if cls.kind == "lift":
        return cls.witness is not None and _tower_replays(to_vector(pt), cls)
    return cls.kind == "sporadic"
