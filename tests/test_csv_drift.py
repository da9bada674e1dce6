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


def write_cells(path, values):
    """Two (kappa, rho) cells, one row per trial: values[cell] lists (r_m, r_c) pairs."""
    rows = [f"ex2,6,3,4,{kappa},1.0,{t},{rm},{rc}\n"
            for kappa, pairs in zip((1e2, 1e4), values) for t, (rm, rc) in enumerate(pairs)]
    path.write_text("example,m,n,p,kappa,rho,trial,r_m,r_c\n" + "".join(rows))
    return str(path)


CELLS = [[(1.0, 2.0), (2.0, 2.5), (3.0, 3.0)], [(1.5, 0.5), (1.5, 1.5), (1.5, 1.0)]]


def test_cells_identical_means_pass(tmp_path, capsys):
    path = write_cells(tmp_path / "a.csv", CELLS)
    assert csv_drift.main([path, path, "--cells", "r_m,r_c"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kappa,rho,column,old_mean,new_mean,z"
    assert lines[1:] == ["100.0,1.0,r_m,2.000000e+00,2.000000e+00,0.000",
                         "100.0,1.0,r_c,2.500000e+00,2.500000e+00,0.000",
                         "10000.0,1.0,r_m,1.500000e+00,1.500000e+00,0.000",
                         "10000.0,1.0,r_c,1.000000e+00,1.000000e+00,0.000"]


def test_cells_z_is_welch_statistic(tmp_path):
    # old r_m of the first cell: 1, 2, 3 (mean 2, variance 1); new: 4, 5, 6
    # (mean 5, variance 1), so z = 3 / sqrt(1/3 + 1/3)
    old = write_cells(tmp_path / "old.csv", CELLS)
    shifted = [[(rm + 3.0, rc) for rm, rc in CELLS[0]], CELLS[1]]
    new = write_cells(tmp_path / "new.csv", shifted)
    got = {(k, c): z for k, _, c, _, _, z in csv_drift.cell_z(old, new, ["r_m", "r_c"])}
    assert got[("100.0", "r_m")] == pytest.approx(3.0 / (2.0 / 3.0) ** 0.5, rel=1e-14)
    assert got[("100.0", "r_c")] == 0.0 and got[("10000.0", "r_c")] == 0.0


def test_cells_fail_above_bound(tmp_path, capsys):
    old = write_cells(tmp_path / "old.csv", CELLS)
    # a shift of 5 in the first cell's r_m mean gives z = 5 / sqrt(2/3) = 6.1 > 4
    new = write_cells(tmp_path / "new.csv", [[(rm + 5.0, rc) for rm, rc in CELLS[0]], CELLS[1]])
    assert csv_drift.main([old, new, "--cells", "r_m"]) == 1
    assert "exceeds 4" in capsys.readouterr().err
    # a shift of 3 gives z = 3.67, inside the bound
    new = write_cells(tmp_path / "new.csv", [[(rm + 3.0, rc) for rm, rc in CELLS[0]], CELLS[1]])
    assert csv_drift.main([old, new, "--cells", "r_m"]) == 0


def test_cells_constant_column_moved_is_infinite_z(tmp_path):
    # the second cell's r_m is constant, so any move of its mean is z = inf
    old = write_cells(tmp_path / "old.csv", CELLS)
    new = write_cells(tmp_path / "new.csv", [CELLS[0], [(2.5, rc) for _, rc in CELLS[1]]])
    assert csv_drift.main([old, new, "--cells", "r_m"]) == 1


def test_cells_need_named_columns_and_equal_cells(tmp_path, capsys):
    old = write_cells(tmp_path / "old.csv", CELLS)
    assert csv_drift.main([old, old, "--cells", "r_x"]) == 1
    assert "no column(s) r_x" in capsys.readouterr().err
    one_cell = tmp_path / "one.csv"
    one_cell.write_text("".join((tmp_path / "old.csv").read_text().splitlines(True)[:4]))
    assert csv_drift.main([old, str(one_cell), "--cells", "r_m"]) == 1
    assert "cells differ" in capsys.readouterr().err


def test_cells_need_two_trials(tmp_path, capsys):
    path = write_cells(tmp_path / "a.csv", [CELLS[0][:1], CELLS[1]])
    assert csv_drift.main([path, path, "--cells", "r_m"]) == 1
    assert "at least two trials" in capsys.readouterr().err


def test_usage_states_z_bound(capsys):
    with pytest.raises(SystemExit):
        csv_drift.main(["--help"])
    assert "exit 1 if any z exceeds 4" in " ".join(capsys.readouterr().out.split())
