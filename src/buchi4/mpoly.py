"""Integer polynomials in the four coordinates a, b, c, d.

Sparse exponent-vector representation.  The point of this ring is the normal
form modulo the two surface relations

    a^2 = 2b^2 - c^2 + 2        d^2 = 2c^2 - b^2 + 2

which eliminate all powers of a and d beyond the first.  An identity between
coordinate expressions holds on every surface point iff its normal form is the
zero polynomial, so the symbolic verifications below never sample.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from .poly import RingElement
from .polytext import format_terms, parse_terms

__all__ = ["MPoly4", "VARS"]

VARS = "abcd"
Key = Tuple[int, int, int, int]


class MPoly4(RingElement):
    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Key, int] | None = None):
        clean: Dict[Key, int] = {}
        if terms:
            for k, c in terms.items():
                if not isinstance(c, int):
                    raise TypeError("coefficients must be integers")
                if c:
                    clean[k] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "MPoly4":
        return cls(parse_terms(text, VARS))

    @classmethod
    def const(cls, c: int) -> "MPoly4":
        return cls({(0, 0, 0, 0): c})

    @classmethod
    def coordinate(cls, i: int) -> "MPoly4":
        """The i-th coordinate as a polynomial, i in 1..4."""
        key = [0, 0, 0, 0]
        key[i - 1] = 1
        return cls({tuple(key): 1})

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        other = _as_mpoly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return MPoly4(out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly4({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MPoly4()
            return MPoly4({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, MPoly4):
            return NotImplemented
        out: Dict[Key, int] = {}
        for (e1, e2, e3, e4), ca in self.terms.items():
            for (f1, f2, f3, f4), cb in other.terms.items():
                k = (e1 + f1, e2 + f2, e3 + f3, e4 + f4)
                s = out.get(k, 0) + ca * cb
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return MPoly4(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _as_mpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(k) for k in self.terms)

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(k[i - 1] for k in self.terms)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, point):
        """Evaluate at a 4-tuple of ring elements (ints, Fractions, UPoly...)."""
        a, b, c, d = point
        pows = ({0: 1}, {0: 1}, {0: 1}, {0: 1})
        vals = (a, b, c, d)

        def power(i, e):
            cache = pows[i]
            got = cache.get(e)
            if got is None:
                got = cache[e - 1] if e - 1 in cache else power(i, e - 1)
                got = got * vals[i]
                cache[e] = got
            return got

        total = 0
        for key, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(key):
                if e:
                    term = term * power(i, e)
            total = total + term
        return total

    def swap_ends(self) -> "MPoly4":
        """Substitute (a,b,c,d) -> (d,c,b,a)."""
        return MPoly4({k[::-1]: c for k, c in self.terms.items()})

    def flip_signs(self, signs: Tuple[int, int, int, int]) -> "MPoly4":
        """Substitute x_i -> signs[i] * x_i, signs in {+1,-1}^4."""
        out = {}
        for k, c in self.terms.items():
            s = 1
            for sg, e in zip(signs, k):
                if sg < 0 and (e & 1):
                    s = -s
            out[k] = s * c
        return MPoly4(out)

    # -- surface normal form --------------------------------------------------

    def normal_form(self) -> "MPoly4":
        """Reduce a-degree then d-degree below 2 via the surface relations."""
        return self._eliminate(0)._eliminate(3)

    def _eliminate(self, axis: int) -> "MPoly4":
        out = MPoly4()
        direct: Dict[Key, int] = {}
        for key, c in self.terms.items():
            e = key[axis]
            if e < 2:
                s = direct.get(key, 0) + c
                if s:
                    direct[key] = s
                else:
                    direct.pop(key, None)
                continue
            q, r = divmod(e, 2)
            base = list(key)
            base[axis] = r
            out = out + MPoly4({tuple(base): c}) * _rule_pow(axis, q)
        return out + MPoly4(direct)

    def vanishes_on_surface(self) -> bool:
        return self.normal_form().is_zero()

    def __repr__(self):
        return f"MPoly4({format_terms(self.terms, VARS)})"

    def __str__(self):
        return format_terms(self.terms, VARS)


def _as_mpoly(x):
    if isinstance(x, MPoly4):
        return x
    if isinstance(x, int):
        return MPoly4.const(x)
    return NotImplemented


# Right sides of the two rewrite rules, a^2 and d^2, keyed by axis; the
# rules only produce b and c, so elimination terminates in one pass per
# variable.
_RULES = {
    0: MPoly4({(0, 2, 0, 0): 2, (0, 0, 2, 0): -1, (0, 0, 0, 0): 2}),
    3: MPoly4({(0, 0, 2, 0): 2, (0, 2, 0, 0): -1, (0, 0, 0, 0): 2}),
}


@lru_cache(maxsize=None)
def _rule_pow(axis: int, q: int) -> MPoly4:
    """The q-th power of the rewrite rule of axis, cached."""
    if q == 0:
        return MPoly4.const(1)
    return _rule_pow(axis, q - 1) * _RULES[axis]
