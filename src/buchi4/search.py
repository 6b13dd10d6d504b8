"""Exhaustive bounded search, the record pipeline, and table comparison.

A strictly increasing positive quadruple on the surface is pinned down by
(x2, x3): the defining equations force x1^2 = 2 x2^2 - x3^2 + 2 and
x4^2 = 2 x3^2 - x2^2 + 2, so a search looks for the x3 in the window
(x2, isqrt(2 x2^2 + 1)] where both radicands are perfect squares.  The
search writes 2(x2^2 + 1) = x1^2 + x3^2 in every way by turning the
trivial (x2 - 1)^2 + (x2 + 1)^2 one prime at a time, from the Gaussian
primes of x2 + i that a segmented sieve of x^2 + 1 streams block by block
(Cornacchia runs only for a prime that comes back, and carried primes
wait in buckets by block), and keeps the x3 whose second radicand is a
square.  The tests check it against a scan of the whole window.

Search results are classified, tested for extension on both sides, and
compared against the bundled table of 121 reference rows.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from . import assets
from .arith import as_perfect_square
from .families import Classification, classify, extends_left, extends_right
from .maps import on_surface
from .record import Record, slot_setters

__all__ = [
    "SearchRecord",
    "TableComparison",
    "enumerate_sequences",
    "search_records",
    "run_pipeline",
    "bundled_table",
    "compare_with_table",
    "records_csv",
    "records_json",
    "plot_data",
]

Seq = Tuple[int, int, int, int]

def enumerate_sequences(x2_max: int, engine: str = "two-squares") -> List[Seq]:
    """All non-trivial strictly increasing positive quadruples with
    x2 <= x2_max, sorted by (x1, x2), duplicate-free, from the streamed
    sieve, in memory that grows about as x2_max / log x2_max (47 MB at the
    bundled table's x2_max = 1157218).

    engine accepts only "two-squares", the one engine, and any other value
    raises ValueError.  The keyword stays because the benchmark's traced
    search check passes it; it goes once that check drops the call
    (ROADMAP item 1)."""
    if x2_max < 2:
        raise ValueError("bound must be at least 2")
    if engine != "two-squares":
        raise ValueError(f"unknown engine {engine!r}")
    # imported here, so that loading the table and the records does not
    # compile the factorization code
    from .factorint import gaussian_factorizations, gaussian_products

    rows = set()
    for x2, leftover, factors in gaussian_factorizations(x2_max):
        # the first product is the trivial (1 + i)(x2 + i) = (x2 - 1, x2 + 1);
        # holding one prime on its side leaves one z of each conjugate pair
        products = iter(gaussian_products((x2 - 1, x2 + 1), factors, leftover == 1))
        next(products)
        c = 2 - x2 * x2
        for u, v in products:
            if u < 0:
                u = -u
            if v < 0:
                v = -v
            # the smaller of u, v is x1 < x2, the larger x3 > x2, and x1 > 0
            if u and v:
                x3 = u if u > v else v
                x4 = as_perfect_square(2 * x3 * x3 + c)
                if x4 is not None:
                    rows.add((u + v - x3, x2, x3, x4))
    return sorted(rows)


class SearchRecord(Record):
    """One search result: the sequence, where it came from, and the
    nonnegative fifth values extending it on each side (None if none).
    search_records leaves the fields not asked for None, and csv_row and
    to_json, given the same two flags, leave them out."""

    __slots__ = ("seq", "classification", "extends_left", "extends_right")

    def __init__(
        self,
        seq: Seq,
        classification: Optional[Classification],
        extends_left: Optional[int],
        extends_right: Optional[int],
    ):
        _set_seq(self, seq)
        _set_classification(self, classification)
        _set_extends_left(self, extends_left)
        _set_extends_right(self, extends_right)

    @property
    def _key(self) -> tuple:
        return (self.seq, self.classification, self.extends_left, self.extends_right)

    def csv_row(self, classified: bool = True, extended: bool = True) -> str:
        cls = "" if self.classification is None else self.classification.serialize()
        left = "" if self.extends_left is None else str(self.extends_left)
        right = "" if self.extends_right is None else str(self.extends_right)
        return ",".join(_computed([*map(str, self.seq), cls, left, right], classified, extended))

    def to_json(self, classified: bool = True, extended: bool = True) -> dict:
        cls = None if self.classification is None else self.classification.to_json()
        values = [*self.seq, cls, self.extends_left, self.extends_right]
        return dict(_computed(list(zip(_COLUMNS, values)), classified, extended))


_set_seq, _set_classification, _set_extends_left, _set_extends_right = slot_setters(
    SearchRecord
)


def search_records(
    x2_max: int, classified: bool, extended: bool
) -> List[SearchRecord]:
    """A record for every sequence up to the bound, classified and
    extension-tested as asked; what is not asked for stays None."""
    return [
        SearchRecord(
            seq=seq,
            classification=classify(seq) if classified else None,
            extends_left=extends_left(seq) if extended else None,
            extends_right=extends_right(seq) if extended else None,
        )
        for seq in enumerate_sequences(x2_max)
    ]


def run_pipeline(x2_max: int) -> List[SearchRecord]:
    """Enumerate, classify, and extension-test everything up to the bound."""
    return search_records(x2_max, classified=True, extended=True)


CSV_HEADER = "x1,x2,x3,x4,classification,extends_left,extends_right"
_COLUMNS = CSV_HEADER.split(",")


def _computed(columns: list, classified: bool, extended: bool) -> list:
    """The entries of a full seven-column list that search_records computed,
    as classified and extended say."""
    return columns[:4] + columns[4:5] * classified + columns[5:] * extended


def records_csv(
    records: Iterable[SearchRecord], classified: bool = True, extended: bool = True
) -> Iterable[str]:
    """The header, then one line per record; as in search_records,
    classified and extended say which columns past x4 there are."""
    yield ",".join(_computed(_COLUMNS, classified, extended))
    for rec in records:
        yield rec.csv_row(classified, extended)


def records_json(
    records: Iterable[SearchRecord], classified: bool = True, extended: bool = True
) -> List[dict]:
    """One object per record, keyed by the columns of records_csv."""
    return [rec.to_json(classified, extended) for rec in records]


# -- the bundled reference table ---------------------------------------------


def bundled_table() -> List[Tuple[int, Seq]]:
    """The 121 bundled reference rows as (index, row) pairs, index from 1.

    The list is kept verbatim, including one duplicated row, so consumers
    that need set semantics must deduplicate (compare_with_table does).
    """
    rows = []
    for line in assets.lines("sporadic_points.txt"):
        idx, *coords = line.split()
        row = tuple(int(c) for c in coords)
        if len(row) != 4 or not on_surface(row):
            raise ValueError(f"corrupt table row: {line!r}")
        rows.append((int(idx), row))
    if [i for i, _ in rows] != list(range(1, len(rows) + 1)):
        raise ValueError("table indices are not 1..N")
    return rows


def plot_data(records: Optional[Sequence[SearchRecord]] = None) -> List[Tuple[int, int]]:
    """(x1, row-index) pairs for plotting, from search records or, when
    none are given, from the bundled table."""
    if records is None:
        return [(row[0], idx) for idx, row in bundled_table()]
    return [(rec.seq[0], i) for i, rec in enumerate(records, start=1)]


class TableComparison(Record):
    """Set comparison of Sporadic search results against the bundled rows."""

    __slots__ = ("x2_bound", "matches", "misses", "extras")

    def __init__(
        self,
        x2_bound: int,
        matches: Tuple[Seq, ...],
        misses: Tuple[Seq, ...],
        extras: Tuple[Seq, ...],
    ):
        _set_x2_bound(self, x2_bound)
        _set_matches(self, matches)
        _set_misses(self, misses)
        _set_extras(self, extras)

    @property
    def _key(self) -> tuple:
        return (self.x2_bound, self.matches, self.misses, self.extras)

    @property
    def ok(self) -> bool:
        return not self.misses and not self.extras

    def __str__(self):
        lines = [
            f"bound x2 <= {self.x2_bound}: "
            f"{len(self.matches)} matches, {len(self.misses)} misses, "
            f"{len(self.extras)} extras"
        ]
        for name, rows in (("miss", self.misses), ("extra", self.extras)):
            for row in rows:
                lines.append(f"  {name}: {row}")
        return "\n".join(lines)


_set_x2_bound, _set_matches, _set_misses, _set_extras = slot_setters(TableComparison)


def compare_with_table(
    records: Sequence[SearchRecord], x2_bound: int
) -> TableComparison:
    """Sporadic records with x2 <= x2_bound versus the deduplicated bundled
    rows under the same bound, as sets.  Equality is the reproduction check;
    misses and extras list the disagreements.  The bundled table holds a few
    rows that lie on parametrized families, so a miss is a disagreement to
    be explained (for example by an exact non-Sporadic verdict that
    verify_classification replays), not necessarily a search failure.
    Every record must be classified: ValueError names the first that is
    not."""
    ours = set()
    for rec in records:
        if rec.classification is None:
            raise ValueError(
                f"record {rec.seq} is unclassified; the comparison needs"
                " classified records"
            )
        if rec.classification.kind == "sporadic" and rec.seq[1] <= x2_bound:
            ours.add(rec.seq)
    reference = {row for _, row in bundled_table() if row[1] <= x2_bound}
    return TableComparison(
        x2_bound=x2_bound,
        matches=tuple(sorted(ours & reference)),
        misses=tuple(sorted(reference - ours)),
        extras=tuple(sorted(ours - reference)),
    )
