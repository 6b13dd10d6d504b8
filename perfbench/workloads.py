"""The benchmark workloads.

Each workload is a batch job run as a closed loop by one caller that waits
for every request before issuing the next; every batch issues the same
requests.  ``body(rec)`` runs one batch through the recorder (see spans.py)
and returns its outputs; ``check`` returns (outputs checked, outputs
failed) for one batch.  The traced run then executes ``traced_extras``
once where a workload has one (search's engine agreement, descent's table
reproduction).  Inputs depend on the seed only on family-values; search,
descent and curves depend only on their bounds and fixed points, so their
expected results are recorded below.

Requests are kept short (milliseconds) where the public API allows it,
because the run reports each request's fastest time over the batches and
the fastest of many short requests is what stays steady on a shared host.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from random import Random

from buchi4.curves import curve_rhs, is_squarefree, scan_integer_points
from buchi4.families import (
    classify,
    extends_left,
    extends_right,
    p_eval,
    p_value,
    r_value,
    verify_classification,
    xi_eval,
)
from buchi4.maps import apply_zeta, normalize_point
from buchi4.search import (
    SearchRecord,
    compare_with_table,
    enumerate_sequences,
    run_pipeline,
)


def kind(cls):
    return cls.kind


def enumerate_rows(rec, bound):
    return rec.call("search.enumerate_sequences", enumerate_sequences, bound, label=len)


def rows_digest(lines):
    return hashlib.sha256("\n".join(map(str, lines)).encode()).hexdigest()[:16]


def _on_surface(r):
    a, b, c, d = r
    return a * a - 2 * b * b + c * c == 2 and b * b - 2 * c * c + d * d == 2


def _good_row(r):
    """On the surface, positive, strictly increasing and not four
    consecutive integers (the only trivial increasing positive rows)."""
    return (
        _on_surface(r)
        and 0 < r[0] < r[1] < r[2] < r[3]
        and not (r[1] - r[0] == r[2] - r[1] == r[3] - r[2] == 1)
    )


class Search:
    """enumerate_sequences(N) with the default engine, as
    `buchi4 search --x2-max N` runs it."""

    name = "search"
    bound = 1500
    # recorded when the benchmark was created
    expected_rows = 21
    expected_digest = "406540a6fdf8e2d4"

    def __init__(self, seed):
        del seed  # depends only on the bound

    def body(self, rec):
        return rec.request("search", enumerate_rows, rec, self.bound)

    def check(self, rows):
        failed = sum(not _good_row(r) for r in rows)
        failed += not (
            rows == sorted(set(rows))
            and len(rows) == self.expected_rows
            and rows_digest(rows) == self.expected_digest
        )
        return len(rows) + 1, failed

    def traced_extras(self, rec, rows):
        """Engine agreement: the two-squares engine on the same bound must
        give the same rows.  Returns (checked, failed)."""
        other = rec.call(
            "search.two_squares",
            lambda: enumerate_sequences(self.bound, engine="two-squares"),
        )
        return 1, int(other != rows)


class Descent:
    """classify on fixed lift points zeta^k(base): descent that ends in a
    hit, timed request by request.  The traced run adds the table
    reproduction at a small bound: the calls run_pipeline(N) makes, one
    span each, then compare_with_table, as `buchi4 table --compare
    --x2-bound N` runs them.  Its two Sporadic rows, descent that finds
    nothing, take about half a second each; a request that long does not
    give a steady fastest time on a shared host, so they are traced once
    per run rather than timed in the loop.  The Tier-1 fixture
    run_pipeline(30000) runs the same path about a hundred times longer."""

    name = "descent"
    # (family, index, t) bases whose k-fold lifts classify as zeta^k(base)
    lift_bases = (("r", 1, 2), ("r", 1, 3), ("r", 3, 7), ("r", 7, 3),
                  ("r", 8, 1), ("r", 8, 3), ("p", None, 1), ("p", None, 5))
    lift_steps = 3
    # the least bound that takes in two Sporadic rows; recorded from
    # run_pipeline(table_bound) when the benchmark was created
    table_bound = 630
    expected_rows = 13
    expected_digest = "104f0474f7f45a06"
    expected_comparison = (2, (), ())  # matches, misses, extras

    def __init__(self, seed):
        del seed  # fixed points and bound
        self.lifts = []
        for fam, i, t in self.lift_bases:
            w = r_value(i, t) if fam == "r" else p_value(t)
            base = f"r:{i}:{t}" if fam == "r" else f"p:{t}"
            for k in range(1, self.lift_steps + 1):
                w = apply_zeta(w)
                pt = tuple(Fraction(v) for v in normalize_point(w)[1])
                self.lifts.append((pt, f"zeta^{k}({base})"))

    def _classify(self, rec, pt):
        return rec.call("families.classify", classify, pt, label=kind)

    def body(self, rec):
        return [rec.request("lift", self._classify, rec, pt) for pt, _ in self.lifts]

    def check(self, verdicts):
        failed = 0
        for (pt, want), cls in zip(self.lifts, verdicts):
            failed += cls.serialize() != want or not verify_classification(pt, cls)
        return len(self.lifts), failed

    def traced_extras(self, rec, verdicts):
        """The table reproduction: run_pipeline's calls one span each, whose
        records must equal run_pipeline's, then compare_with_table.
        Returns (checked, failed)."""
        del verdicts
        records = [
            SearchRecord(
                seq=seq,
                classification=rec.call(
                    "families.classify", classify, seq, label=kind
                ),
                extends_left=rec.call("families.extends_left", extends_left, seq),
                extends_right=rec.call("families.extends_right", extends_right, seq),
            )
            for seq in enumerate_rows(rec, self.table_bound)
        ]
        comparison = rec.call(
            "search.compare_with_table", compare_with_table, records, self.table_bound
        )
        failed = 0
        for r in records:
            ok = verify_classification(r.seq, r.classification)
            if r.classification.kind == "sporadic":
                ok = ok and r.extends_left is None and r.extends_right is None
            failed += not ok
        # a miss is acceptable only when an exact non-Sporadic verdict
        # explains it; the table itself is never edited
        for row in comparison.misses:
            cls = classify(row)
            failed += cls.kind == "sporadic" or not verify_classification(row, cls)
        got = (len(comparison.matches), comparison.misses, comparison.extras)
        failed += not (
            got == self.expected_comparison
            and records == run_pipeline(self.table_bound)
            and len(records) == self.expected_rows
            and rows_digest(r.csv_row() for r in records) == self.expected_digest
        )
        return len(records) + len(comparison.misses) + 1, failed


class FamilyValues:
    """classify over a seeded batch of integral family values: xi(n, t) for
    1 <= n <= 4 and the quartic p(t) for t != 3 (mod 4), 0 <= t < t_max.
    Every verdict must be the constructing family and parameter.  Each kind
    gets the same number of points, one t from each of equal strata of the
    range, so the latency tail does not hinge on the seed's draw."""

    name = "family-values"
    per_kind = 200  # five kinds: the least batch that leaves ten beyond p99
    t_max = 10**4

    def __init__(self, seed):
        rng = Random(seed)
        width = self.t_max // self.per_kind
        self.points = []
        for j in range(self.per_kind):
            for n in range(5):
                t = j * width + rng.randrange(width)
                if n:
                    self.points.append((xi_eval(n, t), ("xi", n, t)))
                else:
                    t -= t % 4 == 3  # p is non-integral at t = 3 (mod 4)
                    self.points.append((p_eval(t), ("p", None, t)))

    def _classify(self, rec, pt):
        return rec.call("families.classify", classify, pt, label=kind)

    def body(self, rec):
        return [
            rec.request("classify", self._classify, rec, pt) for pt, _ in self.points
        ]

    def check(self, verdicts):
        failed = 0
        for (pt, want), cls in zip(self.points, verdicts):
            ok = (cls.kind, cls.n, cls.t) == want and verify_classification(pt, cls)
            failed += not ok
        return len(self.points), failed


class Curves:
    """curve_rhs(n, side) for n = 1..8 on both sides and is_squarefree, then
    scan_integer_points over t in [-5000, 5000].  The scan is requested one
    curve and one t segment at a time, so the latency tail is the costliest
    curves at the largest |t|, not whichever requests ran during a slow
    moment."""

    name = "curves"
    levels = range(1, 9)
    t_lo, t_hi, segment = -5000, 5000, 160
    expected_hits = frozenset((-4, -3, -2, -1))

    def __init__(self, seed):
        del seed  # depends only on the range

    def _curves(self, rec):
        out = []
        for n in self.levels:
            for side in ("right", "left"):
                curve = rec.call("curves.curve_rhs", curve_rhs, n, side)
                squarefree = rec.call("curves.is_squarefree", is_squarefree, curve)
                out.append((curve, squarefree, []))
        return out

    def _scan(self, rec, curve, lo, hi):
        return rec.call(
            "curves.scan_integer_points",
            scan_integer_points,
            curve,
            lo,
            hi,
            label=len,
        )

    def body(self, rec):
        curves = rec.request("curves", self._curves, rec)
        for lo in range(self.t_lo, self.t_hi + 1, self.segment):
            hi = min(lo + self.segment - 1, self.t_hi)
            for curve, _, hits in curves:
                hits += rec.request("segment", self._scan, rec, curve, lo, hi)
        return curves

    def check(self, out):
        checked = failed = 0
        for curve, squarefree, hits in out:
            coeffs = curve.coefficients()
            for t, y in hits:
                failed += y < 0 or sum(c * t**k for k, c in enumerate(coeffs)) != y * y
            failed += not squarefree
            failed += {t for t, _ in hits} != self.expected_hits
            checked += len(hits) + 2
        return checked, failed


WORKLOADS = {w.name: w for w in (Search, Descent, FamilyValues, Curves)}
