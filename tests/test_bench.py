import json
import os
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ilscond import (CondParams, ConditionReport, NumericallySingular, StructuredParams,
                     kappa_2ils, load_problem, make_basis, save_problem)
from ilscond import bench
from ilscond.bench import (
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
from ilscond.structured import basis_from_token

from conftest import signed_gram

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
        np.testing.assert_allclose(signed_gram(prob.A, prob.split), 0.75 * (B.T @ B),
                                   rtol=1e-10)
        np.testing.assert_array_equal(prob.A[6:], 0.5 * B)

    def test_example3_structure_membership(self, rng):
        prob, sparams, _, _ = gen_example3(7, 1.0, rng)
        s1 = sparams.basisA.extract(prob.A)  # raises on mismatch
        assert s1.size == 2 * 7 - 1

    def test_example3_planted_residual(self, rng):
        prob, _, x, r = gen_example3(6, 2.5, rng)
        assert np.linalg.norm(prob.b - prob.A @ x) == pytest.approx(2.5, rel=1e-12)


@st.composite
def generated_instances(draw):
    """(problem, spectrum) for a generator at a random shape, condition and seed.

    ``spectrum`` is the set the eigenvalues of the certificate C = I - W W^T
    must lie in.
    """
    example = draw(st.sampled_from(["ex1", "ex2", "ex3"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if example == "ex3":
        problem, _, _, _ = gen_example3(draw(st.integers(2, 12)), 1.0, seed)
        return problem, [0.75]
    n = draw(st.integers(2, 10))
    p = draw(st.integers(n, n + 8))
    # q < n is included
    m = p + draw(st.integers(1, n + 4))
    if example == "ex1":
        l = draw(st.integers(0, 3))
        return gen_example1(m, n, p, l, 1.0, seed)[0], [1.0]
    kappa = 10.0 ** draw(st.floats(0, 12))
    return gen_example2(m, n, p, kappa, 1.0, seed)[0], [0.75, 1.0]


@given(generated_instances())
def test_generators_are_definite_by_construction(instance):
    # C = R_p^{-T} M R_p^{-1} = I - W W^T (A_p = Q_p R_p, W = R_p^{-T} A_q^T)
    # is congruent to M = A^T J A; its spectrum is fixed by each generator's
    # structure, so its Cholesky cannot fail and one draw per instance
    # suffices.  C is formed from R_p: through a formed M it would carry an
    # error of order eps cond(A)^2.  Rounding A itself moves the eigenvalue
    # 0.75 of ex2 by O(eps cond(A)), up to about 4e-5 at cond(A) = 1e12
    problem, spectrum = instance
    p = problem.p
    R = np.linalg.qr(problem.A[:p], mode="r")
    W = np.linalg.solve(R.T, problem.A[p:].T)
    eig = np.linalg.eigvalsh(np.eye(problem.n) - W @ W.T)
    tol = 1e-12 + 10 * problem.n * np.finfo(float).eps * np.linalg.cond(problem.A)
    assert np.min(np.abs(eig[:, None] - np.array(spectrum)[None, :]), axis=1).max() <= tol


class TestGenerationAttempts:
    """Every generator builds its instance from one draw; the published full-size cells certify."""

    def _count_draws(self, monkeypatch):
        draws = []
        original = bench.IlsProblem

        def counted(*args, **kwargs):
            draws.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(bench, "IlsProblem", counted)
        return draws

    def test_full_table1_n9_excluded_without_a_draw(self, monkeypatch):
        # cond(A) = 120^9 ~ 5e18 lies beyond 1/(max(m, n) eps) ~ 2e13, which
        # the generator knows before it draws
        draws = self._count_draws(monkeypatch)
        with pytest.raises(NumericallySingular, match=r"1/\(max\(m, n\) eps\)"):
            gen_example1(200, 120, 140, 9, 1.0, 0)
        assert len(draws) == 0

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

    def test_deterministic_csv_bytes(self, tmp_path):
        paths = [tmp_path / f"t{i}.csv" for i in range(2)]
        for path in paths:
            run_experiment(tiny_config("ex1")).to_csv(path)
        texts = [path.read_bytes() for path in paths]
        assert texts[0] == texts[1]
        assert b"r_p" in texts[0].splitlines()[0]

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

    @pytest.mark.parametrize("example", ["ex1", "ex2", "ex3"])
    def test_json_config_round_trip(self, tmp_path, example):
        cfg = tiny_config(example)
        jpath = tmp_path / "out.json"
        run_experiment(cfg).to_json(jpath)
        config = json.loads(jpath.read_text())["config"]
        assert list(config) == [f.name for f in fields(ExperimentConfig)]
        config.update(kappa_grid=tuple(config["kappa_grid"]),
                      rho_grid=tuple(config["rho_grid"]))
        assert ExperimentConfig(**config) == cfg

    def test_empty_grid(self, tmp_path):
        cfg = table1_config(kappa_grid=())
        res = run_experiment(cfg)
        assert res.records == []
        path = tmp_path / "empty.csv"
        res.to_csv(path)
        assert len(path.read_text().splitlines()) == 1  # header only
        assert "nan" in res.format_table().lower() or res.format_table()

    def test_table_renders(self):
        res = run_experiment(tiny_config("ex1"))
        text = res.format_table()
        assert "r_p" in text and "r_s" in text and "total time" in text

    @pytest.mark.parametrize("field", ["trials", "k"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_nonpositive_count_named(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            table1_config(**{field: value})

    def test_ex1_k_above_n_named(self):
        # checked with the config, before any trial runs
        table1_config(k=36)
        with pytest.raises(ValueError, match="k must not exceed n"):
            table1_config(k=37)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ExperimentConfig(example="ex9", n=4, m=8, p=5)
        with pytest.raises(ValueError):
            ExperimentConfig(example="ex1", n=6, m=8, p=3)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def four_cpus(monkeypatch):
    """Four usable CPUs, so that an explicit jobs up to 4 is not capped."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})


def in_child_only(monkeypatch, act):
    """Patch _run_trial to call act() in forked workers and run normally here."""
    parent, original = os.getpid(), bench._run_trial

    def patched(*args):
        if os.getpid() != parent:
            act()
        return original(*args)

    monkeypatch.setattr(bench, "_run_trial", patched)


@pytest.mark.skipif(sys.platform != "linux",
                    reason="trials fork only on Linux")
class TestParallelTrials:
    @pytest.mark.parametrize("config", [
        # the exclusion config of test_table_names_the_exclusion, with a second
        # rho so that failures has two keys whose order is checked
        lambda: table1_config(m=20, n=8, p=12, kappa_grid=(1, 18),
                              rho_grid=(1e-2, 1.0), trials=2),
        lambda: tiny_config("ex2"),
        lambda: tiny_config("ex3"),
    ], ids=["ex1-excluded", "ex2", "ex3"])
    def test_outputs_do_not_depend_on_jobs(self, tmp_path, four_cpus, config):
        results = {}
        for jobs in (1, 2, 3):
            results[jobs] = res = run_experiment(config(), jobs=jobs)
            assert_no_child_left()
            assert res.processes == jobs
            res.to_csv(tmp_path / f"{jobs}.csv")
            res.to_json(tmp_path / f"{jobs}.json")
        base = results[1]
        if base.config.example == "ex1":
            assert list(base.failures.items()) == [((18, 1e-2), 2), ((18, 1.0), 2)]
        for jobs in (2, 3):
            res = results[jobs]
            assert res.records == base.records
            assert list(res.failures.items()) == list(base.failures.items())
            for suffix in ("csv", "json"):
                assert (tmp_path / f"{jobs}.{suffix}").read_bytes() == \
                    (tmp_path / f"1.{suffix}").read_bytes()
            table, base_table = res.format_table(), base.format_table()
            assert table.splitlines()[:-1] == base_table.splitlines()[:-1]
            assert table.splitlines()[-1].endswith(f" s ({jobs} processes)")
        assert base.format_table().splitlines()[-1].endswith(" s (1 process)")

    def test_worker_exception_reaches_parent(self, monkeypatch, four_cpus):
        def fail():
            raise RuntimeError("trial failed in a worker")

        in_child_only(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="trial failed in a worker"):
            run_experiment(tiny_config("ex1"), jobs=2)
        assert_no_child_left()

    def test_worker_warning_as_error_reaches_parent(self, monkeypatch, four_cpus):
        in_child_only(monkeypatch, lambda: warnings.warn("overflow in a worker", RuntimeWarning))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow in a worker"):
                run_experiment(tiny_config("ex2"), jobs=2)
        assert_no_child_left()

    # a filter may also name the module that warns, here this one
    @pytest.mark.parametrize("module", ["", __name__], ids=["any-module", "this-module"])
    def test_worker_warnings_recorded_once_per_trial(self, monkeypatch, four_cpus, module):
        original = bench._run_trial

        def patched(config, kappa_label, rho, rng):
            # the spawn key of a trial's seed is its index in the grid
            warnings.warn(f"trial {rng.bit_generator.seed_seq.spawn_key[0]}", UserWarning)
            return original(config, kappa_label, rho, rng)

        monkeypatch.setattr(bench, "_run_trial", patched)
        for jobs in (1, 2, 3):
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("ignore")
                warnings.filterwarnings("always", module=module)
                run_experiment(table3_config(n=6, trials=2, rho_grid=(1.0,)), jobs=jobs)
            assert_no_child_left()
            assert all(w.category is UserWarning for w in log)
            assert [str(w.message) for w in log] == ["trial 0", "trial 1"]

    @pytest.mark.parametrize("env, cpus, ntasks, expected", [
        ({}, 2, 100, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 100, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 3, 3),
        ({"OMP_NUM_THREADS": "2"}, 8, 100, 4),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 100, 2),
        ({"OPENBLAS_NUM_THREADS": "4"}, 2, 100, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 0, 1),
    ])
    def test_default_job_count(self, monkeypatch, env, cpus, ntasks, expected):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert bench._job_count(None, ntasks) == expected

    def test_explicit_job_count_capped(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert bench._job_count(1, 100) == 1
        assert bench._job_count(64, 100) == 2
        assert bench._job_count(64, 1) == 1

    def test_one_process_off_linux(self, monkeypatch, four_cpus):
        monkeypatch.setattr(bench.sys, "platform", "darwin")
        assert bench._job_count(None, 100) == 1
        assert bench._job_count(4, 100) == 1


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
        out = tmp_path / "t.csv"
        rc = cli_main(["table3", "--n", "6", "--trials", "2", "--seed", "5",
                       "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.splitlines()[0].startswith("example,")
        assert "r_N" in text.splitlines()[0]

    def test_table_without_jobs_passes_the_config_alone(self, monkeypatch, capsys):
        # callers may wrap run_experiment in a one-argument function
        original = bench.run_experiment
        monkeypatch.setattr(bench, "run_experiment", lambda config: original(config))
        assert cli_main(["table3", "--n", "6", "--trials", "1"]) == 0

    def test_compare_requires_structure(self, tmp_path, capsys, rng):
        prob, _, _ = gen_example1(10, 4, 6, 1, 1.0, rng)
        pfile = str(tmp_path / "u.txt")
        save_problem(pfile, prob)
        assert cli_main(["compare", pfile]) == 1


class TestCliStdout:
    """The full stdout of exact and compare, line by line, from report values."""

    @staticmethod
    def _gen(tmp_path, capsys, argv):
        pfile = str(tmp_path / "p.txt")
        assert cli_main(["gen", *argv, "--out", pfile]) == 0
        capsys.readouterr()
        problem, structure = load_problem(pfile)
        sparams = None
        if structure:
            sparams = StructuredParams(basis_from_token(structure, problem.m, problem.n),
                                       make_basis("full", problem.m))
        return pfile, problem, structure, ConditionReport(problem, CondParams(), sparams)

    @staticmethod
    def _stdout(capsys, argv):
        assert cli_main(argv) == 0
        return capsys.readouterr().out.splitlines()

    def test_exact_ex1(self, tmp_path, capsys):
        pfile, problem, _, rep = self._gen(
            tmp_path, capsys, ["--example", "ex1", "--m", "14", "--n", "6", "--p", "9",
                               "--l", "2", "--seed", "1"])
        assert self._stdout(capsys, ["exact", pfile]) == [
            f"problem: m={problem.m} n={problem.n} p={problem.p} q={problem.q}",
            f"kappa_2    = {kappa_2ils(problem):.6e}",
            f"kappa_mixed = {rep.mixed:.6e}",
            f"kappa_comp  = {rep.componentwise:.6e}",
        ]

    def test_exact_and_compare_ex3(self, tmp_path, capsys):
        pfile, problem, structure, rep = self._gen(
            tmp_path, capsys, ["--example", "ex3", "--n", "6", "--seed", "4"])
        k2, k2s = kappa_2ils(problem), rep.structured_2
        km, kms = rep.mixed, rep.structured_mixed
        kc, kcs = rep.componentwise, rep.structured_componentwise
        assert self._stdout(capsys, ["exact", pfile]) == [
            f"problem: m={problem.m} n={problem.n} p={problem.p} q={problem.q}",
            f"kappa_2    = {k2:.6e}",
            f"kappa_mixed = {km:.6e}",
            f"kappa_comp  = {kc:.6e}",
            f"kappa_2^S    = {k2s:.6e}",
            f"kappa_mixed^S = {kms:.6e}",
            f"kappa_comp^S  = {kcs:.6e}",
        ]
        assert self._stdout(capsys, ["compare", pfile]) == [
            f"structure: {structure}",
            f"kappa_2    = {k2:.6e}  structured = {k2s:.6e}  ratio = {k2 / k2s:.4f}",
            f"kappa_mixed = {km:.6e}  structured = {kms:.6e}  ratio = {km / kms:.4f}",
            f"kappa_comp  = {kc:.6e}  structured = {kcs:.6e}  ratio = {kc / kcs:.4f}",
        ]


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

    @pytest.mark.parametrize("table", ["table1", "table2", "table3"])
    @pytest.mark.parametrize("flag, value", [("--trials", "-1"), ("--trials", "0"), ("--k", "0"),
                                             ("--jobs", "0"), ("--jobs", "-1")])
    def test_table_rejects_nonpositive_count(self, capsys, table, flag, value):
        self._one_line_error(capsys, [table, flag, value], f"{flag[2:]} must be at least 1")

    def test_estimate_rejects_bad_k_before_any_value(self, tmp_path, capsys):
        pfile = self._write(tmp_path, "ILS 3 2 3 0\n1 0\n0 1\n1 1\n1 2 3\n")
        assert cli_main(["estimate", pfile, "--k", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["ilscond estimate: error: k must be at least 1"]

    def test_estimate_rejects_k_above_n_before_any_value(self, tmp_path, capsys):
        pfile = str(tmp_path / "p1.txt")
        assert cli_main(["gen", "--example", "ex1", "--m", "14", "--n", "6", "--p", "9",
                         "--out", pfile]) == 0
        capsys.readouterr()
        assert cli_main(["estimate", pfile, "--k", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "ilscond estimate: error: sample count k must not exceed n"]

    def test_table2_rejects_k_above_data_dimension(self, capsys):
        # the mixed estimator draws in m(n+1) = 18 dimensions; checked with
        # the config, before any trial runs
        argv = ["table2", "--m", "6", "--n", "2", "--p", "4", "--k", "40", "--trials", "1"]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "ilscond table2: error: k must not exceed m(n+1)"]

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
