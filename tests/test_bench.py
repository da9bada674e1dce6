import io
import json

import numpy as np
import pytest

from ilscond import NotPositiveDefinite, NumericallySingular, load_problem, save_problem
from ilscond import bench
from ilscond.bench import (
    MAX_GENERATION_ATTEMPTS,
    ExperimentConfig,
    gen_example1,
    gen_example2,
    gen_example3,
    run_experiment,
    table1_config,
    table2_config,
    table3_config,
)
from ilscond.cli import main as cli_main

# the graded families deliberately reach the near-singular regime
pytestmark = pytest.mark.filterwarnings("ignore::ilscond.ils.IllConditionedWarning")


class TestGenerators:
    def test_example1_identity_spectrum(self, rng):
        prob, x, r = gen_example1(20, 8, 12, 0, 1.0, rng)
        sv = np.linalg.svd(prob.A, compute_uv=False)
        np.testing.assert_allclose(sv, 1.0, rtol=1e-12)

    def test_example1_condition_number(self, rng):
        for l in (1, 3):
            prob, _, _ = gen_example1(20, 8, 12, l, 1.0, rng)
            sv = np.linalg.svd(prob.A, compute_uv=False)
            assert sv[0] / sv[-1] == pytest.approx(8.0**l, rel=1e-8)

    def test_example1_planted_residual(self, rng):
        prob, x, r = gen_example1(20, 8, 12, 2, 0.37, rng)
        assert np.linalg.norm(prob.b - prob.A @ x) == pytest.approx(0.37, rel=1e-12)
        assert np.linalg.norm(r) == pytest.approx(0.37, rel=1e-12)

    def test_example1_shape_validation(self, rng):
        with pytest.raises(ValueError):
            gen_example1(20, 8, 6, 1, 1.0, rng)

    def test_example2_diagonal_range(self, rng):
        kappa = 1e6
        prob, _, _ = gen_example2(24, 10, 14, kappa, 1.0, rng)
        sv = np.linalg.svd(prob.A, compute_uv=False)
        assert sv[0] / sv[-1] == pytest.approx(kappa, rel=1e-6)

    def test_example2_always_definite(self, rng):
        for _ in range(100):
            gen_example2(12, 5, 7, 1e8, 1.0, rng)  # raises if Cholesky ever fails

    def test_example3_normal_matrix_identity(self, rng):
        prob, sparams, x, r = gen_example3(6, 1.0, rng)
        B = prob.A[:6]
        np.testing.assert_allclose(prob.M, 0.75 * (B.T @ B), rtol=1e-10)
        np.testing.assert_array_equal(prob.A[6:], 0.5 * B)

    def test_example3_structure_membership(self, rng):
        prob, sparams, _, _ = gen_example3(7, 1.0, rng)
        s1 = sparams.basisA.extract(prob.A)  # raises on mismatch
        assert s1.size == 2 * 7 - 1

    def test_example3_planted_residual(self, rng):
        prob, _, x, r = gen_example3(6, 2.5, rng)
        assert np.linalg.norm(prob.b - prob.A @ x) == pytest.approx(2.5, rel=1e-12)


class TestGenerationAttempts:
    """Numerically singular draws are not retried; the published full-size cells certify."""

    def _count_draws(self, monkeypatch):
        draws = []
        original = bench.IlsProblem

        def counted(*args, **kwargs):
            draws.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(bench, "IlsProblem", counted)
        return draws

    @pytest.mark.parametrize("exc, attempts", [
        (NumericallySingular("singular"), 1),
        (NotPositiveDefinite("indefinite"), MAX_GENERATION_ATTEMPTS),
    ])
    def test_first_definite_retries_only_indefinite_draws(self, exc, attempts):
        calls = []

        def draw():
            calls.append(1)
            raise exc

        with pytest.raises(type(exc)):
            bench._first_definite(draw)
        assert len(calls) == attempts

    def test_full_table1_n9_excluded_after_one_draw(self, monkeypatch):
        # cond(A) = 120^9 ~ 5e18 lies beyond 1/(max(m, n) eps) ~ 2e13
        draws = self._count_draws(monkeypatch)
        with pytest.raises(NumericallySingular, match=r"1/\(max\(m, n\) eps\)"):
            gen_example1(200, 120, 140, 9, 1.0, 0)
        assert len(draws) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_full_table1_n6_certifies_first_draw(self, seed, monkeypatch):
        draws = self._count_draws(monkeypatch)
        gen_example1(200, 120, 140, 6, 1.0, seed)
        assert len(draws) == 1

    @pytest.mark.parametrize("kappa", [1e10, 1e12])
    def test_full_table2_top_cells_certify_first_draw(self, kappa, monkeypatch):
        draws = self._count_draws(monkeypatch)
        for seed in range(5):
            gen_example2(120, 50, 70, kappa, 1.0, seed)
        assert len(draws) == 5

    def test_table_names_the_exclusion(self):
        result = run_experiment(table1_config(m=20, n=8, p=12, kappa_grid=(1, 18),
                                              rho_grid=(1.0,), trials=2))
        assert result.failures == {(18, 1.0): 2}
        assert len(result.records) == 2
        assert "excluded trials (not definite or numerically singular): 2" in \
            result.format_table()


class TestProblemFile:
    def test_roundtrip_bit_exact(self, rng, tmp_path):
        prob, _, _ = gen_example1(9, 4, 6, 1, 1.0, rng)
        path = tmp_path / "prob.txt"
        save_problem(path, prob)
        loaded, structure = load_problem(path)
        assert structure is None
        assert (loaded.A == prob.A).all()
        assert (loaded.b == prob.b).all()
        assert (loaded.p, loaded.q) == (prob.p, prob.q)

    def test_structure_token_preserved(self, rng, tmp_path):
        prob, sparams, _, _ = gen_example3(5, 1.0, rng)
        path = tmp_path / "prob.txt"
        save_problem(path, prob, structure="stacked_scaled:toeplitz:0.5")
        _, structure = load_problem(path)
        assert structure == "stacked_scaled:toeplitz:0.5"

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NOT_ILS 1 2 3\n")
        with pytest.raises(ValueError):
            load_problem(path)

    def test_nonpositive_dimension_named(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("ILS 3 0 2 1\n")
        with pytest.raises(ValueError, match="n=0 must be at least 1"):
            load_problem(path)

    def test_wrong_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("ILS 2 1 2 0\n1.0 2.0\n")
        with pytest.raises(ValueError, match="expected"):
            load_problem(path)


def tiny_config(example):
    if example == "ex1":
        return table1_config(m=14, n=6, p=9, trials=3, kappa_grid=(0, 2),
                             rho_grid=(1e-2, 1.0))
    if example == "ex2":
        return table2_config(m=14, n=6, p=9, trials=3, kappa_grid=(1e2, 1e6),
                             rho_grid=(1e-2, 1.0))
    return table3_config(n=6, trials=3, rho_grid=(1e-2, 1.0))


class TestRunExperiment:
    @pytest.mark.parametrize("example", ["ex1", "ex2", "ex3"])
    def test_tiny_grid_runs_and_ratios_positive(self, example):
        cfg = tiny_config(example)
        res = run_experiment(cfg)
        expected = len(cfg.cells()) * cfg.trials - sum(res.failures.values())
        assert len(res.records) == expected
        for rec in res.records:
            for v in rec.values.values():
                assert np.isfinite(v) and v > 0

    def test_deterministic_csv_bytes(self):
        cfg = tiny_config("ex1")
        bufs = []
        for _ in range(2):
            res = run_experiment(tiny_config("ex1"))
            buf = io.StringIO()
            res.to_csv(buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        assert "r_p" in bufs[0].splitlines()[0]

    def test_different_seed_changes_output(self):
        a = run_experiment(tiny_config("ex1"))
        cfg = tiny_config("ex1")
        cfg.seed = 99
        b = run_experiment(cfg)
        va = [r.values["kappa2_exact"] for r in a.records]
        vb = [r.values["kappa2_exact"] for r in b.records]
        assert va != vb

    def test_summary_recomputes_from_records(self):
        res = run_experiment(tiny_config("ex2"))
        stats = res.cell_stats(1e2, 1e-2)
        vals = [r.values["r_m"] for r in res.records
                if r.kappa_label == 1e2 and r.rho == 1e-2]
        assert stats["r_m"]["mean"] == pytest.approx(np.mean(vals))
        assert stats["r_m"]["max"] == pytest.approx(np.max(vals))
        if len(vals) > 1:
            assert stats["r_m"]["var"] == pytest.approx(np.var(vals, ddof=1))

    def test_json_mirrors_csv(self, tmp_path):
        res = run_experiment(tiny_config("ex3"))
        jpath = tmp_path / "out.json"
        res.to_json(jpath)
        payload = json.loads(jpath.read_text())
        assert len(payload["records"]) == len(res.records)
        assert payload["records"][0]["r_N"] == res.records[0].values["r_N"]

    def test_empty_grid(self):
        cfg = table1_config(trials=0)
        res = run_experiment(cfg)
        assert res.records == []
        buf = io.StringIO()
        res.to_csv(buf)
        assert len(buf.getvalue().splitlines()) == 1  # header only
        assert "nan" in res.format_table().lower() or res.format_table()

    def test_table_renders(self):
        res = run_experiment(tiny_config("ex1"))
        text = res.format_table()
        assert "r_p" in text and "r_s" in text and "total time" in text

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ExperimentConfig(example="ex9", n=4, m=8, p=5)
        with pytest.raises(ValueError):
            ExperimentConfig(example="ex1", n=6, m=8, p=3)


class TestCli:
    def test_gen_exact_estimate_compare(self, tmp_path, capsys):
        pfile = str(tmp_path / "p.txt")
        assert cli_main(["gen", "--example", "ex3", "--n", "6", "--seed", "4",
                         "--out", pfile]) == 0
        assert cli_main(["exact", pfile]) == 0
        out = capsys.readouterr().out
        assert "kappa_2" in out and "kappa_2^S" in out
        assert cli_main(["estimate", pfile, "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "probabilistic" in out and "small-sample" in out
        assert cli_main(["compare", pfile]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out

    def test_gen_ex1_and_exact(self, tmp_path, capsys):
        pfile = str(tmp_path / "p1.txt")
        assert cli_main(["gen", "--example", "ex1", "--m", "14", "--n", "6",
                         "--p", "9", "--l", "2", "--seed", "1",
                         "--out", pfile]) == 0
        assert cli_main(["exact", pfile]) == 0

    def test_table_subcommand_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "t.csv")
        rc = cli_main(["table3", "--n", "6", "--trials", "2", "--seed", "5",
                       "--out", out])
        assert rc == 0
        text = open(out).read()
        assert text.splitlines()[0].startswith("example,")
        assert "r_N" in text.splitlines()[0]

    def test_compare_requires_structure(self, tmp_path, capsys, rng):
        prob, _, _ = gen_example1(10, 4, 6, 1, 1.0, rng)
        pfile = str(tmp_path / "u.txt")
        save_problem(pfile, prob)
        assert cli_main(["compare", pfile]) == 1


class TestCliErrors:
    """Input errors end as one stderr line and exit code 1, not a traceback."""

    def _write(self, tmp_path, text):
        path = tmp_path / "p.txt"
        path.write_text(text)
        return str(path)

    def _one_line_error(self, capsys, argv, needle):
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert needle in err and "Traceback" not in err

    def test_nonpositive_header_dimension(self, tmp_path, capsys):
        pfile = self._write(tmp_path, "ILS -1 2 1 1\n")
        self._one_line_error(capsys, ["exact", pfile], "m=-1")

    def test_not_positive_definite(self, tmp_path, capsys):
        # A^T J A = [[0, -1], [-1, 0]] is indefinite
        pfile = self._write(tmp_path, "ILS 3 2 2 1\n1 0\n0 1\n1 1\n1 2 3\n")
        self._one_line_error(capsys, ["exact", pfile], "not positive definite")

    def test_structure_mismatch(self, tmp_path, capsys, rng):
        prob, _, _ = gen_example1(10, 4, 6, 1, 1.0, rng)
        pfile = str(tmp_path / "t.txt")
        save_problem(pfile, prob, structure="toeplitz")
        self._one_line_error(capsys, ["compare", pfile], "toeplitz-structured")

    def test_undefined_condition_number(self, tmp_path, capsys):
        # b = 0 gives x = 0, so the mixed condition number is undefined
        pfile = self._write(tmp_path, "ILS 3 2 3 0\n1 0\n0 1\n1 1\n0 0 0\n")
        assert cli_main(["exact", pfile]) == 1
        captured = capsys.readouterr()
        assert "kappa_2" in captured.out
        assert captured.err.splitlines() == [
            "ilscond exact: error: L^T x vanishes in the infinity norm"
        ]

    @pytest.mark.parametrize("command", ["exact", "estimate", "compare"])
    def test_missing_problem_file(self, tmp_path, capsys, command):
        missing = str(tmp_path / "absent.txt")
        self._one_line_error(capsys, [command, missing], missing)

    def test_table_out_in_missing_directory(self, tmp_path, capsys):
        out = str(tmp_path / "absent" / "t3.csv")
        argv = ["table3", "--n", "4", "--trials", "1", "--out", out]
        self._one_line_error(capsys, argv, out)

    def test_tls_not_generic(self, monkeypatch, capsys):
        import ilscond.cli
        from ilscond import TlsNotGeneric

        def raise_not_generic(args):
            raise TlsNotGeneric("singular value gap too small")

        monkeypatch.setattr(ilscond.cli, "_cmd_exact", raise_not_generic)
        self._one_line_error(capsys, ["exact", "unused.txt"], "gap too small")
