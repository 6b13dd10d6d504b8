"""Exact univariate polynomial arithmetic over the rationals.

UPoly stores a dense coefficient tuple, lowest degree first, every entry a
Fraction.  RatFunc is a reduced quotient of two UPoly with monic denominator.
QuadExt adjoins a square root alpha of

    g(t) = (t+1)(t+2)(t+3)(t+4)

to the rational function field; it is the ring in which the closed form of the
polynomial families lives.

The gcd uses the subresultant remainder sequence on integer-scaled inputs, so
degree 70+ instances coming from the extension curves stay exact and fast.
Its integer core also serves integer coefficient lists directly.  gcd_mod is
the one modular Euclid: a constant gcd mod p certifies a constant gcd over
the rationals, so callers can skip the exact gcd, and
rational_reconstruction turns a residue mod any m >= 2, such as the root
of a degree-one gcd mod p or a root lifted mod p^k, into a fraction.

horner is the one evaluator of coefficient sequences, UPoly coefficients
and plain integer lists alike, at x or as a homogeneous form at (x, y).
RingElement states subtraction and powers once for every ring here and for
mpoly.MPoly4.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence, Union

__all__ = [
    "UPoly",
    "RatFunc",
    "QuadExt",
    "NonExactDivision",
    "RingElement",
    "T",
    "QUAD_MODULUS",
    "horner",
    "upoly_gcd",
    "int_poly_gcd",
    "gcd_mod",
    "rational_reconstruction",
]

Scalar = Union[int, Fraction]


class NonExactDivision(ArithmeticError):
    """Polynomial division left a nonzero remainder where none was allowed."""


class RingElement:
    """Subtraction and nonnegative powers, stated once for UPoly, RatFunc,
    QuadExt and mpoly.MPoly4 from their +, unary - and *; the sum and
    product of the subclass decide what a mixed operand coerces to."""

    __slots__ = ()

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __pow__(self, n: int):
        """Repeated squaring from the one of the ring, self * 0 + 1."""
        if n < 0:
            raise ValueError("negative power of a ring element")
        result, base = self * 0 + 1, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


class UPoly(RingElement):
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, c: Scalar) -> "UPoly":
        return cls((c,))

    @classmethod
    def variable(cls) -> "UPoly":
        return cls((0, 1))

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __iter__(self):
        """The coefficients, constant first, up to the degree: without it,
        iteration would go through __getitem__ and never stop."""
        return iter(self.coeffs)

    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return all(c.denominator == 1 for c in self.coeffs)

    def int_coeffs(self) -> list[int]:
        if not self.is_integral():
            raise NonExactDivision("polynomial has non-integer coefficients")
        return [c.numerator for c in self.coeffs]

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return UPoly()
            return UPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, UPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return UPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "UPoly"):
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dr, db = len(rem) - 1, other.degree
        lb = other.lc()
        quot = [Fraction(0)] * max(dr - db + 1, 0)
        while dr >= db and rem:
            q = rem[-1] / lb
            quot[dr - db] = q
            for i, c in enumerate(other.coeffs):
                rem[dr - db + i] -= q * c
            while rem and rem[-1] == 0:
                rem.pop()
            dr = len(rem) - 1
        return UPoly(quot), UPoly(rem)

    def exact_div(self, other: "UPoly") -> "UPoly":
        q, r = divmod(self, _coerce(other))
        if not r.is_zero():
            raise NonExactDivision(f"remainder of degree {r.degree} in exact division")
        return q

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UPoly((other,))
        if not isinstance(other, UPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- calculus and evaluation -------------------------------------------

    def derivative(self) -> "UPoly":
        return UPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def __call__(self, value):
        """Horner evaluation; value may be a scalar, UPoly or QuadExt."""
        if not self.coeffs:
            return Fraction(0)
        return horner(self.coeffs, value)

    def monic(self) -> "UPoly":
        if self.is_zero():
            return self
        lb = self.lc()
        return UPoly(tuple(c / lb for c in self.coeffs))

    def primitive_int(self) -> tuple[list[int], Fraction]:
        """Return (integer primitive coefficients with positive lc, scale).

        self == scale * primitive as polynomials.
        """
        if self.is_zero():
            return [], Fraction(0)
        den = lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (den // c.denominator) for c in self.coeffs]
        prim = _primitive(ints)
        return prim, Fraction(ints[-1] // prim[-1], den)

    def __repr__(self):
        from .polytext import format_upoly

        return f"UPoly({format_upoly(self)})"


def _coerce(x) -> UPoly:
    if isinstance(x, UPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return UPoly((x,))
    return NotImplemented


T = UPoly.variable()


def horner(coeffs: Sequence, x, y=1):
    """The form sum c_k x^k y^(D-k) of degree D = len(coeffs) - 1, coeffs
    lowest degree first, by Horner's rule in x: the polynomial at x when
    y = 1, y^D p(x/y) at a fraction x/y, the leading coefficient at
    (1, 0); 0 when there are no coefficients.  It starts from the leading
    coefficient itself, so a constant comes back as its coefficient at any
    argument, and integer coefficients at integer x, y stay in int."""
    if not coeffs:
        return 0
    acc, yk = coeffs[-1], 1
    for c in coeffs[-2::-1]:
        yk *= y
        acc = acc * x + c * yk
    return acc


# -- gcd ------------------------------------------------------------------


def _int_prem(f: list[int], g: list[int]) -> list[int]:
    """Pseudo-remainder of integer coefficient lists, lowest degree first."""
    df, dg = len(f) - 1, len(g) - 1
    lg = g[-1]
    rem = [c * lg ** (df - dg + 1) for c in f]
    while len(rem) - 1 >= dg and rem:
        q, check = divmod(rem[-1], lg)
        assert check == 0
        shift = len(rem) - 1 - dg
        for i, c in enumerate(g):
            rem[shift + i] -= q * c
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def int_poly_gcd(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd, with positive leading coefficient, of two nonzero
    integer coefficient lists (lowest degree first), via the subresultant
    pseudo-remainder sequence."""
    F, G = _primitive(f), _primitive(g)
    if len(F) < len(G):
        F, G = G, F
    gk = 1
    hk = 1
    while True:
        delta = (len(F) - 1) - (len(G) - 1)
        rem = _int_prem(F, G)
        if not rem:
            break
        if len(rem) == 1:
            return [1]
        divisor = gk * hk**delta
        assert all(c % divisor == 0 for c in rem)
        rem = [c // divisor for c in rem]
        F, G = G, rem
        gk = F[-1]
        hk = gk**delta // hk ** (delta - 1) if delta else hk
    return _primitive(G)


def _primitive(f: list[int]) -> list[int]:
    """f divided by its content, leading coefficient made positive."""
    content = int_gcd(*f)
    if f[-1] < 0:
        content = -content
    return f if content == 1 else [c // content for c in f]


def upoly_gcd(f: UPoly, g: UPoly) -> UPoly:
    """Monic gcd via the subresultant pseudo-remainder sequence."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    return UPoly(int_poly_gcd(f.primitive_int()[0], g.primitive_int()[0])).monic()


def gcd_mod(
    polys: Sequence[Sequence[int]], p: int, until: int = 0
) -> Optional[list[int]]:
    """The monic gcd modulo the prime p of integer polynomials (coefficient
    lists, lowest degree first), as residues in [0, p); None when p divides
    the leading coefficient of the first one, which makes p unusable.

    The remainder sequence folds in one polynomial at a time and stops
    early, before the next one, once the gcd has degree at most until: the
    gcd of all of them divides what it has then.

    Brown's modular gcd argument bounds the exact gcd by this one: the
    primitive integer gcd divides the first polynomial, so by Gauss's lemma
    its leading coefficient survives reduction mod p, and its reduction, of
    the same degree, divides every reduced polynomial.  So the exact gcd
    has at most the degree returned, and a constant here certifies a
    constant gcd over the rationals.
    """
    g = [c % p for c in polys[0]]
    if g[-1] == 0:
        return None
    for h in polys[1:]:
        if len(g) - 1 <= until:
            break
        h = [c % p for c in h]
        while h and h[-1] == 0:
            h.pop()
        while h:
            g, h = h, _rem_mod(g, h, p)
    inv = pow(g[-1], -1, p)
    return [c * inv % p for c in g]


def rational_reconstruction(r: int, m: int) -> Optional[Fraction]:
    """The fraction a/b with a = r b mod m, |a| <= sqrt(m/2) and
    0 < b <= sqrt(m/2), or None when there is none (Wang, Guy & Davenport
    1982), for any modulus m >= 2, prime or not.  Two such fractions a/b
    and c/d would have |ad - bc| < m and ad - bc = 0 mod m, so there is at
    most one; the half-extended Euclid on (m, r), stopped at the first
    remainder within the bound, finds it.
    """
    bound = isqrt(m // 2)
    r0, r1 = m, r % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or int_gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _rem_mod(f: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of f by g (nonzero leading coefficient) modulo p."""
    f = f[:]
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    while len(f) > dg:
        q = f.pop() * inv % p
        off = len(f) - dg
        for i in range(dg):
            f[off + i] = (f[off + i] - q * g[i]) % p
        while f and f[-1] == 0:
            f.pop()
    return f


# -- rational functions -----------------------------------------------------


class RatFunc(RingElement):
    """Reduced quotient num/den of polynomials, denominator monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce(num)
        den = UPoly((1,)) if den is None else _coerce(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("a rational function takes rationals and polynomials")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function")
        if num.is_zero():
            den = UPoly((1,))
        elif den.degree > 0:
            common = upoly_gcd(num, den)
            if common.degree > 0:
                num = num.exact_div(common)
                den = den.exact_div(common)
        lb = den.lc()
        if lb != 1:
            num = num * (1 / lb)
            den = den * (1 / lb)
        self.num = num
        self.den = den

    @classmethod
    def of(cls, x) -> "RatFunc":
        if isinstance(x, RatFunc):
            return x
        return cls(x)

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_upoly(self) -> UPoly:
        if not self.is_polynomial():
            raise NonExactDivision("rational function is not a polynomial")
        return self.num

    def __add__(self, other):
        other = RatFunc.of(other) if isinstance(other, (int, Fraction, UPoly, RatFunc)) else None
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction, UPoly, RatFunc)):
            return NotImplemented
        other = RatFunc.of(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction, UPoly, RatFunc)):
            return NotImplemented
        other = RatFunc.of(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFunc.of(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, UPoly)):
            other = RatFunc.of(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __call__(self, value: Scalar) -> Fraction:
        d = self.den(value)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num(value) / d

    def __repr__(self):
        from .polytext import format_upoly

        if self.is_polynomial():
            return f"RatFunc({format_upoly(self.num)})"
        return f"RatFunc(({format_upoly(self.num)}) / ({format_upoly(self.den)}))"


# x^2 = QUAD_MODULUS defines the quadratic extension used by the closed forms.
QUAD_MODULUS = (T + 1) * (T + 2) * (T + 3) * (T + 4)


class QuadExt(RingElement):
    """Element u + v*alpha of Q(t)[alpha], alpha^2 = (t+1)(t+2)(t+3)(t+4)."""

    __slots__ = ("u", "v")

    def __init__(self, u, v=0):
        self.u = RatFunc.of(u)
        self.v = RatFunc.of(v)

    def conj(self) -> "QuadExt":
        return QuadExt(self.u, -self.v)

    def __add__(self, other):
        other = _quad(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt(self.u + other.u, self.v + other.v)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.u, -self.v)

    def __mul__(self, other):
        other = _quad(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt(
            self.u * other.u + self.v * other.v * QUAD_MODULUS,
            self.u * other.v + self.v * other.u,
        )

    __rmul__ = __mul__

    def norm(self) -> RatFunc:
        return self.u * self.u - self.v * self.v * QUAD_MODULUS

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n.num.is_zero():
            raise ZeroDivisionError("element of norm zero has no inverse")
        return QuadExt(self.u / n, -self.v / n)

    def __truediv__(self, other):
        other = _quad(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _quad(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** -n
        return super().__pow__(n)

    def __eq__(self, other):
        other = _quad(other)
        if other is NotImplemented:
            return NotImplemented
        return self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        return f"QuadExt({self.u!r} + ({self.v!r})*alpha)"


def _quad(x):
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, (int, Fraction, UPoly, RatFunc)):
        return QuadExt(x)
    return NotImplemented
