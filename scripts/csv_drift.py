#!/usr/bin/env python3
"""Largest relative drift, column by column, between two ratio-table CSVs.

Usage: python3 scripts/csv_drift.py OLD NEW [--tol T]
       python3 scripts/csv_drift.py OLD NEW --cells COLS

Rows of the two files (as written by ``ilscond table1|table2|table3``) are
matched by their (kappa, rho, trial) key.  For every other column the script
prints the largest relative difference |new - old| / |old| over all rows
(0 for an exact match; text columns count as 0 when equal, inf otherwise).
It exits 1 when the headers, the row keys or the row counts differ, or when
any column drifts by more than T (default 0: byte-identical values).

With --cells COLS (comma-separated column names) it compares, for each
(kappa, rho) cell and each named column, the old and new means of the
trials, for estimates whose bits are expected to change but whose law is
not.  It prints both means and z = |mean_new - mean_old| /
sqrt(var_old / n_old + var_new / n_new) (sample variances, at least two
trials per cell), and exits 1 when the cells differ or any z exceeds the
fixed bound Z_BOUND = 4.
"""

import argparse
import csv
import math
import statistics
import sys

KEY = ("kappa", "rho", "trial")
Z_BOUND = 4.0


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


def _cells(path, cols):
    """{(kappa, rho): {column: [float values]}} in file order, for the named columns."""
    header, rows = read_rows(path)
    missing = [c for c in cols if c not in header]
    if missing:
        raise ValueError(f"{path}: no column(s) {', '.join(missing)}")
    cells = {}
    for key, row in rows.items():
        cell = cells.setdefault(key[:2], {c: [] for c in cols})
        for c in cols:
            cell[c].append(float(row[c]))
    return cells


def cell_z(old_path, new_path, cols):
    """[(kappa, rho, column, old mean, new mean, z)] for each cell and named column."""
    old, new = _cells(old_path, cols), _cells(new_path, cols)
    if old.keys() != new.keys():
        raise ValueError(f"cells differ: only in OLD {sorted(old.keys() - new.keys())[:5]}, "
                         f"only in NEW {sorted(new.keys() - old.keys())[:5]}")
    out = []
    for cell, by_col in old.items():
        for c in cols:
            a, b = by_col[c], new[cell][c]
            if min(len(a), len(b)) < 2:
                raise ValueError(f"cell {cell}: a variance needs at least two trials")
            diff = abs(statistics.fmean(b) - statistics.fmean(a))
            se = math.sqrt(statistics.variance(a) / len(a) + statistics.variance(b) / len(b))
            z = diff / se if se > 0.0 else (0.0 if diff == 0.0 else math.inf)
            out.append((*cell, c, statistics.fmean(a), statistics.fmean(b), z))
    return out


def _main_cells(args):
    cols = [c for c in args.cells.split(",") if c]
    try:
        result = cell_z(args.old, args.new, cols)
    except (OSError, ValueError) as exc:
        print(f"csv_drift: {exc}", file=sys.stderr)
        return 1
    print("kappa,rho,column,old_mean,new_mean,z")
    for kappa, rho, c, a, b, z in result:
        print(f"{kappa},{rho},{c},{a:.6e},{b:.6e},{z:.3f}")
    worst = max((z for *_, z in result), default=0.0)
    # a NaN mean fails as well
    if not all(z <= Z_BOUND for *_, z in result):
        print(f"csv_drift: largest z {worst:.3f} exceeds {Z_BOUND:g}", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--tol", type=float, default=0.0,
                    help="largest relative drift allowed in any column (default 0)")
    ap.add_argument("--cells", metavar="COLS",
                    help="compare per-cell means of these comma-separated columns; "
                         f"exit 1 if any z exceeds {Z_BOUND:g}")
    args = ap.parse_args(argv)
    if args.cells is not None:
        return _main_cells(args)
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
