"""Plain-text problem files.

Format: a header line ``ILS m n p q [structure-kind]`` followed by the
whitespace-separated entries of A (one row per line) and then b.  Values are
printed with 17 significant digits, so a save/load round trip reproduces
every double bit-exactly.  The optional structure token records the class of
A (for example ``toeplitz`` or ``stacked_scaled:toeplitz:0.5``).
"""

import numpy as np

from .ils import IlsProblem, SignatureSplit


def save_problem(path, problem, structure=None):
    """Write an ILS problem (and optional structure kind) to a text file."""
    header = f"ILS {problem.m} {problem.n} {problem.p} {problem.q}"
    if structure:
        header += f" {structure}"
    lines = [header]
    for row in problem.A:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    lines.append(" ".join(f"{v:.17g}" for v in problem.b))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_problem(path):
    """Read a problem file; returns (IlsProblem, structure token or None)."""
    with open(path) as fh:
        text = fh.read()
    tokens = text.split()
    if not tokens or tokens[0] != "ILS":
        raise ValueError(f"{path}: expected an 'ILS m n p q' header")
    try:
        m, n, p, q = (int(t) for t in tokens[1:5])
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{path}: malformed header") from exc
    for name, val, least in (("m", m, 1), ("n", n, 1), ("p", p, 1), ("q", q, 0)):
        if val < least:
            raise ValueError(f"{path}: header {name}={val} must be at least {least}")
    rest = tokens[5:]
    structure = None
    if rest and not _is_number(rest[0]):
        structure = rest[0]
        rest = rest[1:]
    need = m * n + m
    if len(rest) != need:
        raise ValueError(f"{path}: expected {need} values, found {len(rest)}")
    vals = np.array([float(t) for t in rest])
    A = vals[: m * n].reshape((m, n))
    b = vals[m * n :]
    return IlsProblem(A, b, SignatureSplit(p, q)), structure


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True
