"""Command line front end.

Subcommands map onto the library one to one: `verify` runs the identity
suites, `xi` prints a parametrization row (symbolically or at a value),
`search` enumerates and optionally classifies bounded solutions, `classify`
and `descend` inspect a single quadruple, `curve` prints and scans the
length-5 extension curves, and `table` reproduces the bundled reference
table comparison.  Exit status is 0 on success and nonzero when a
verification or comparison fails.  Each subcommand imports the modules it
uses when it runs, so a `classify` call loads neither the search nor the
curves.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .arith import format_rational

__all__ = ["main", "build_parser"]


def _cmd_verify(args) -> int:
    from .verify import verify_families, verify_group_relations

    ok = True
    for report in (verify_group_relations(), verify_families()):
        print(report)
        ok = ok and report.ok
    return 0 if ok else 1


def _cmd_xi(args) -> int:
    from .families import xi_eval, xi_poly
    from .polytext import format_upoly

    if args.t is None:
        for i, p in enumerate(xi_poly(args.n), start=1):
            print(f"x{i} = {format_upoly(p)}")
    else:
        print(*xi_eval(args.n, args.t))
    return 0


def _cmd_search(args) -> int:
    import json

    from .search import records_csv, records_json, search_records

    records = search_records(args.x2_max, args.classify, args.extend)
    if args.format == "json":
        print(json.dumps(records_json(records), indent=2))
    else:
        for line in records_csv(records):
            print(line)
    return 0


def _cmd_classify(args) -> int:
    from .families import classify

    print(classify(tuple(args.values)).describe())
    return 0


def _fmt_point(pt) -> str:
    return "(" + ", ".join(format_rational(v) for v in pt) + ")"


def _cmd_descend(args) -> int:
    from .families import classify, descent_chain

    seq = tuple(args.values)
    for pt in descent_chain(seq):
        print(_fmt_point(pt))
    print("verdict:", classify(seq).describe())
    return 0


def _cmd_curve(args) -> int:
    from .curves import curve_rhs, is_squarefree, scan_csv

    spec = curve_rhs(args.n, args.side)
    print(spec.display())
    if args.squarefree:
        squarefree = is_squarefree(spec)
        print("squarefree:", "yes" if squarefree else "no")
        if squarefree:
            # y^2 = rhs(t), rhs squarefree of degree 4n + 2: hyperelliptic
            print("genus:", 2 * spec.n)
    if args.scan is not None:
        t_min, t_max = args.scan
        for line in scan_csv(spec, t_min, t_max):
            print(line)
    return 0


def _cmd_table(args) -> int:
    from .search import bundled_table, compare_with_table, plot_data, run_pipeline

    if args.compare:
        if args.x2_bound is None:
            print("error: --compare requires --x2-bound", file=sys.stderr)
            return 2
        records = run_pipeline(args.x2_bound)
        comparison = compare_with_table(records, args.x2_bound)
        print(comparison)
        return 0 if comparison.ok else 1
    if args.x2_bound is not None:
        print("error: --x2-bound requires --compare", file=sys.stderr)
        return 2
    if args.plot_data:
        for x1, idx in plot_data():
            print(f"{x1},{idx}")
        return 0
    for idx, row in bundled_table():
        print(idx, *row)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buchi4",
        description="exact tools for length-4 integer sequences whose"
        " second difference of squares is constantly 2",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("verify", help="run the full identity suites")
    q.set_defaults(func=_cmd_verify)

    q = sub.add_parser("xi", help="print a polynomial parametrization row")
    q.add_argument("--n", type=int, required=True, help="row index, n >= 1")
    q.add_argument("--t", type=int, help="evaluate the row at this value")
    q.set_defaults(func=_cmd_xi)

    q = sub.add_parser("search", help="enumerate bounded non-trivial solutions")
    q.add_argument("--x2-max", type=int, required=True, dest="x2_max")
    q.add_argument("--classify", action="store_true")
    q.add_argument("--extend", action="store_true")
    q.add_argument("--format", choices=("csv", "json"), default="csv")
    q.set_defaults(func=_cmd_search)

    q = sub.add_parser("classify", help="classify one quadruple")
    q.add_argument("values", type=int, nargs=4, metavar="X")
    q.set_defaults(func=_cmd_classify)

    q = sub.add_parser(
        "descend", help="print the inverse-map descent chain of a quadruple"
    )
    q.add_argument("values", type=int, nargs=4, metavar="X")
    q.set_defaults(func=_cmd_descend)

    q = sub.add_parser("curve", help="print or scan a length-5 extension curve")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--side", choices=("right", "left"), required=True)
    q.add_argument("--squarefree", action="store_true")
    q.add_argument("--scan", type=int, nargs=2, metavar=("TMIN", "TMAX"))
    q.set_defaults(func=_cmd_curve)

    q = sub.add_parser("table", help="print or reproduce the bundled table")
    q.add_argument("--compare", action="store_true")
    q.add_argument("--x2-bound", type=int, dest="x2_bound")
    q.add_argument("--plot-data", action="store_true", dest="plot_data")
    q.set_defaults(func=_cmd_table)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
