"""The window scan: the reference that the tests check the search against.

A strictly increasing positive quadruple on the surface is pinned down by
(x2, x3), with x3 in the window (x2, isqrt(2 x2^2 + 1)].  The scan walks
x3 over the whole window, prunes it by the residues a square can take
modulo 64, and tests both radicands exactly.  It shares only
`as_perfect_square` with the search, and its time grows about as the
square of the bound.
"""

from math import isqrt

from buchi4.arith import as_perfect_square
from buchi4.families import is_trivial

# residues mod 64 that squares occupy
_SQ64 = frozenset((i * i) % 64 for i in range(64))

# _ALLOWED64[K] = x3 residues r with (K - r^2) mod 64 a square residue,
# K being 2 x2^2 + 2 mod 64; only these x3 can give a square first radicand
_ALLOWED64 = tuple(
    tuple(r for r in range(64) if (k - r * r) % 64 in _SQ64) for k in range(64)
)


def window_scan(x2_max):
    """What enumerate_sequences(x2_max) must return: every non-trivial
    strictly increasing positive quadruple with x2 <= x2_max, sorted."""
    out = []
    for x2 in range(2, x2_max + 1):
        base = 2 * x2 * x2 + 2
        hi = isqrt(base - 1)
        lo = x2 + 1
        x2_sq = x2 * x2
        for r in _ALLOWED64[base % 64]:
            for x3 in range(lo + (r - lo) % 64, hi + 1, 64):
                x1 = as_perfect_square(base - x3 * x3)
                if x1 is None or x1 == 0 or x1 >= x2:
                    continue
                x4 = as_perfect_square(2 * x3 * x3 - x2_sq + 2)
                if x4 is None:
                    continue
                seq = (x1, x2, x3, x4)
                if not is_trivial(seq):
                    out.append(seq)
    return sorted(out)
