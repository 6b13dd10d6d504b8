"""Kernel timings for the traced run, on seeded samples of the inputs the
workloads feed each kernel.

Every kernel is timed as one pass over its sample, repeated; the metric is
the fastest pass time divided by the sample size, so timer overhead stays
out of sub-microsecond figures.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from time import perf_counter

from buchi4.arith import as_perfect_square, square_residue_filter
from buchi4.curves import curve_rhs
from buchi4.factorint import two_square_reps
from buchi4.families import descent_chain, r_family, xi_eval
from buchi4.maps import apply_zeta_inv
from buchi4.poly import upoly_gcd
from buchi4.search import enumerate_sequences
from workloads import Curves, Descent, FamilyValues, Search

REPEATS = 5
_SQ64 = frozenset(i * i % 64 for i in range(64))


def per_item(fn, sample, scale):
    """Fastest of REPEATS passes, as time per item in 1/scale s."""
    passes = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for args in sample:
            fn(*args)
        passes.append(perf_counter() - t0)
    return min(passes) / len(sample) * scale


def window_radicands(rng, bound, count):
    """First radicands 2 x2^2 + 2 - x3^2 of the window engine for x2 <= bound;
    like the engine, keep only x3 whose radicand is a square mod 64."""
    out = []
    while len(out) < count:
        x2 = rng.randint(2, bound)
        base = 2 * x2 * x2 + 2
        x3 = rng.randint(x2 + 1, isqrt(base - 1))
        if (base - x3 * x3) % 64 in _SQ64:
            out.append(base - x3 * x3)
    return out


def curve_radicands(rng, count):
    """Non-negative curve values rhs(t), as the curves scan tests them."""
    coeffs = [
        curve_rhs(n, side).coefficients()[::-1]
        for n in Curves.levels
        for side in ("right", "left")
    ]
    out = []
    while len(out) < count:
        t = rng.randint(Curves.t_lo, Curves.t_hi)
        acc = 0
        for c in rng.choice(coeffs):
            acc = acc * t + c
        if acc >= 0:
            out.append(acc)
    return out


def descent_nodes(bound):
    """The rational nodes of descent_chain for every row up to bound."""
    nodes = []
    for row in enumerate_sequences(bound):
        nodes += descent_chain(row)[1:]
    return [w for w in nodes if _zeta_inv_defined(w)]


def _zeta_inv_defined(w):
    try:
        apply_zeta_inv(w)
    except ZeroDivisionError:
        return False
    return True


def gcd_pairs(rng, nodes, count):
    """(n1 - den*w1, n2 - den*w2) from r_family(i) at sampled nodes: the
    first gcd classification takes for a rational family."""
    out = []
    while len(out) < count:
        w = rng.choice(nodes)
        den, nums = r_family(rng.randint(1, 15))
        c1 = nums[0] - den * Fraction(w[0])
        c2 = nums[1] - den * Fraction(w[1])
        if not (c1.is_zero() or c2.is_zero()):
            out.append((c1, c2))
    return out


def kernel_metrics(rng, wl):
    """The kernel per-layer metrics.  Radicands are the curve values on
    curves and window radicands up to the workload's bound elsewhere (the
    search bound on family-values); descent nodes come from the table rows."""
    x2_bound = getattr(wl, "bound", Search.bound)
    if isinstance(wl, Curves):
        radicands = curve_radicands(rng, 20000)
    else:
        radicands = window_radicands(rng, x2_bound, 20000)
    rejected = sum(not square_residue_filter(n) for n in radicands)
    nodes = descent_nodes(Descent.table_bound)
    x2s = [(2 * rng.randint(2, x2_bound) ** 2 + 2,) for _ in range(300)]
    xis = [(rng.randint(1, 4), rng.randint(0, FamilyValues.t_max)) for _ in range(2000)]
    zeta_nodes = [(w,) for w in rng.choices(nodes, k=200)]
    gcds = gcd_pairs(rng, nodes, 200)
    return {
        "arith.as_perfect_square_ns": (
            per_item(as_perfect_square, [(n,) for n in radicands], 1e9),
            "ns",
        ),
        "arith.residue_reject_ratio": (rejected / len(radicands), "ratio"),
        "factorint.two_square_reps_us": (per_item(two_square_reps, x2s, 1e6), "us"),
        "maps.apply_zeta_inv_us": (per_item(apply_zeta_inv, zeta_nodes, 1e6), "us"),
        "poly.upoly_gcd_us": (per_item(upoly_gcd, gcds, 1e6), "us"),
        "families.xi_eval_us": (per_item(xi_eval, xis, 1e6), "us"),
    }
