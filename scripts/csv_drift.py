#!/usr/bin/env python3
"""Largest relative drift, column by column, between two ratio-table CSVs.

Usage: python3 scripts/csv_drift.py OLD NEW [--tol T]

Rows of the two files (as written by ``ilscond table1|table2|table3``) are
matched by their (kappa, rho, trial) key.  For every other column the script
prints the largest relative difference |new - old| / |old| over all rows
(0 for an exact match; text columns count as 0 when equal, inf otherwise).
It exits 1 when the headers, the row keys or the row counts differ, or when
any column drifts by more than T (default 0: byte-identical values).
"""

import argparse
import csv
import math
import sys

KEY = ("kappa", "rho", "trial")


def read_rows(path):
    """Header and {key: row dict} of one CSV; duplicate keys raise ValueError."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [k for k in KEY if k not in header]
        if missing:
            raise ValueError(f"{path}: no key column(s) {', '.join(missing)}")
        rows = {}
        for row in reader:
            key = tuple(row[k] for k in KEY)
            if key in rows:
                raise ValueError(f"{path}: duplicate row key {key}")
            rows[key] = row
    return header, rows


def rel_diff(old, new):
    """|new - old| / |old| of two CSV cells (0 if equal, inf for unequal text)."""
    if old == new:
        return 0.0
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def drift(old_path, new_path):
    """{column: largest relative difference}; ValueError on a header or key mismatch."""
    old_header, old_rows = read_rows(old_path)
    new_header, new_rows = read_rows(new_path)
    if old_header != new_header:
        raise ValueError(f"headers differ: {old_header} vs {new_header}")
    if old_rows.keys() != new_rows.keys():
        only_old = sorted(old_rows.keys() - new_rows.keys())
        only_new = sorted(new_rows.keys() - old_rows.keys())
        raise ValueError(f"row keys differ: only in OLD {only_old[:5]}, "
                         f"only in NEW {only_new[:5]}")
    cols = [c for c in old_header if c not in KEY]
    return {c: max((rel_diff(old_rows[k][c], new_rows[k][c]) for k in old_rows),
                   default=0.0)
            for c in cols}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--tol", type=float, default=0.0,
                    help="largest relative drift allowed in any column (default 0)")
    args = ap.parse_args(argv)
    try:
        result = drift(args.old, args.new)
    except (OSError, ValueError) as exc:
        print(f"csv_drift: {exc}", file=sys.stderr)
        return 1
    width = max((len(c) for c in result), default=0)
    for col, d in result.items():
        print(f"{col.ljust(width)}  {d:.3e}")
    worst = max(result.values(), default=0.0)
    if worst > args.tol:
        print(f"csv_drift: largest drift {worst:.3e} exceeds tol {args.tol:.3e}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
