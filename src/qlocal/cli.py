"""Command-line front end to the experiment registry.

It parses the experiment's name and parameters, runs one row per swept
combination through `qlocal.experiments`, and emits the rows as an aligned
table or as one JSON record per line. The exit status is 1 if any emitted
row has ok=False, and 2 for a usage error or a simulation error such as an
exceeded resource limit.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys
from itertools import product

from .errors import SimulationError
from .experiments import EXPERIMENTS
from .topology import check_even_d

DEFAULT_SEED = 1234

# --d, --k and --T are comma-separated and swept, the first one outermost,
# with one row per combination.
_SWEPT = ("d", "k", "T")


def _int_list(text: str):
    parts = [p for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise argparse.ArgumentTypeError("empty parameter range")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_at_least(low: int):
    def parse(text: str):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlocal", description="run a reproducibility experiment"
    )
    parser.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    parser.add_argument("--d", type=_int_list, default=[4],
                        help="triangle side length(s), comma-separated")
    parser.add_argument("--k", type=_int_list, default=[1],
                        help="number(s) of disjoint copies")
    parser.add_argument("--T", type=_int_list, default=[1],
                        help="adversary round budget(s)")
    parser.add_argument("--shots", type=_int_at_least(1), default=200)
    parser.add_argument("--seed", type=_int_at_least(0), default=DEFAULT_SEED)
    parser.add_argument("--out", default=None, help="report file (default stdout)")
    parser.add_argument("--format", choices=("table", "records"),
                        default="table")
    return parser


def _rows_for(args):
    row = EXPERIMENTS[args.experiment]
    params = inspect.signature(row).parameters
    if "d" in params:
        for d in args.d:
            check_even_d(d)
    ranges = [
        getattr(args, p) if p in _SWEPT else [getattr(args, p)] for p in params
    ]
    return [{"experiment": args.experiment, **row(*values)}
            for values in product(*ranges)]


def format_table(rows) -> str:
    columns = list(rows[0])
    cells = [[str(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells))
        for i, c in enumerate(columns)
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def format_records(rows) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rows = _rows_for(args)
    except (ValueError, SimulationError) as exc:
        parser.error(str(exc))
    report = (format_table if args.format == "table" else format_records)(rows)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(report)
        except OSError as exc:
            parser.error(f"cannot write the report: {exc}")
    else:
        sys.stdout.write(report)
    return 0 if all(r["ok"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
