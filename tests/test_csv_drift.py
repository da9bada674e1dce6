"""scripts/csv_drift.py: column drift between two ratio-table CSVs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "csv_drift.py"
spec = importlib.util.spec_from_file_location("csv_drift", SCRIPT)
csv_drift = importlib.util.module_from_spec(spec)
spec.loader.exec_module(csv_drift)

HEADER = "example,m,n,p,kappa,rho,trial,kappa2,r_N\n"


def write(path, rows):
    path.write_text(HEADER + "".join(rows))
    return str(path)


@pytest.fixture
def old(tmp_path):
    return write(tmp_path / "old.csv", ["ex1,6,3,4,0.0,1.0,0,2.0,1.0\n",
                                        "ex1,6,3,4,0.0,1.0,1,4.0,0.5\n"])


def test_identical_files(old, capsys):
    assert csv_drift.main([old, old]) == 0
    printed = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert printed == {c: "0.000e+00" for c in ("example", "m", "n", "p", "kappa2", "r_N")}


def test_rows_matched_by_key_not_order(old, tmp_path):
    new = write(tmp_path / "new.csv", ["ex1,6,3,4,0.0,1.0,1,4.0,0.5\n",
                                       "ex1,6,3,4,0.0,1.0,0,2.0,1.0\n"])
    assert csv_drift.main([old, new]) == 0


def test_largest_relative_drift_per_column(old, tmp_path, capsys):
    new = write(tmp_path / "new.csv", ["ex1,6,3,4,0.0,1.0,0,2.0000000002,1.0\n",
                                       "ex1,6,3,4,0.0,1.0,1,4.0,0.5\n"])
    assert csv_drift.drift(old, new)["kappa2"] == pytest.approx(1e-10, rel=1e-5)
    assert csv_drift.drift(old, new)["r_N"] == 0.0
    assert csv_drift.main([old, new, "--tol", "1e-9"]) == 0
    assert csv_drift.main([old, new, "--tol", "1e-11"]) == 1
    assert "exceeds tol" in capsys.readouterr().err


def test_key_mismatch_fails(old, tmp_path, capsys):
    new = write(tmp_path / "new.csv", ["ex1,6,3,4,0.0,1.0,0,2.0,1.0\n",
                                       "ex1,6,3,4,0.0,1.0,2,4.0,0.5\n"])
    assert csv_drift.main([old, new, "--tol", "1"]) == 1
    assert "row keys differ" in capsys.readouterr().err


def test_missing_row_fails(old, tmp_path):
    new = write(tmp_path / "new.csv", ["ex1,6,3,4,0.0,1.0,0,2.0,1.0\n"])
    assert csv_drift.main([old, new, "--tol", "1"]) == 1


def test_header_mismatch_fails(old, tmp_path, capsys):
    new = tmp_path / "new.csv"
    new.write_text(HEADER.replace("r_N", "r_M") + "ex1,6,3,4,0.0,1.0,0,2.0,1.0\n")
    assert csv_drift.main([old, str(new), "--tol", "1"]) == 1
    assert "headers differ" in capsys.readouterr().err
