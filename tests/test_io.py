import os
from pathlib import Path

import numpy as np
import pytest

import sepqn
from sepqn import cli
from sepqn.baselines import BaselineConfig
from sepqn.cli import RunSpec, main, run
from sepqn.solver import SolverConfig
from sepqn.data import DatasetHandle, ParseError, read_libsvm, synth_dataset, write_libsvm


def test_parse_two_line_file(tmp_path):
    path = tmp_path / "toy.svm"
    path.write_text("+1 1:1 3:2\n-1 2:5\n")
    handle = read_libsvm(path)
    assert handle.n == 2
    assert handle.p == 3
    assert handle.nnz == 3
    assert np.array_equal(handle.labels, [1.0, -1.0])
    dense = handle.matrix.toarray()
    assert np.array_equal(dense, [[1.0, 0.0, 2.0], [0.0, 5.0, 0.0]])


def test_parse_tolerates_comments_and_blanks(tmp_path):
    path = tmp_path / "toy.svm"
    path.write_text("# header comment\n\n+1 1:2.5  # trailing\n\n-1 1:1\n")
    handle = read_libsvm(path)
    assert handle.n == 2
    assert handle.nnz == 2


def test_parse_empty_file_errors(tmp_path):
    path = tmp_path / "empty.svm"
    path.write_text("# nothing\n\n")
    with pytest.raises(ParseError, match="empty"):
        read_libsvm(path)


def test_parse_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.svm"
    path.write_text("+1 1:1\n-1 2:not-a-number\n")
    with pytest.raises(ParseError) as exc:
        read_libsvm(path)
    assert exc.value.line_number == 2
    assert ":2:" in str(exc.value)


def test_parse_bad_label_reports_line_number(tmp_path):
    path = tmp_path / "bad.svm"
    path.write_text("oops 1:1\n")
    with pytest.raises(ParseError) as exc:
        read_libsvm(path)
    assert exc.value.line_number == 1


@pytest.mark.parametrize("text, line", [
    ("+1 1:1\n1 1:nan 2:inf\n", 2),
    ("-1 1:1 2:-inf\n", 1),
    ("+1 1:1\n-1 2:1\nnan 1:1\n", 3),
    ("inf 1:2\n", 1),
])
def test_parse_rejects_non_finite_with_line_number(tmp_path, text, line):
    path = tmp_path / "bad.svm"
    path.write_text(text)
    with pytest.raises(ParseError, match="not finite") as exc:
        read_libsvm(path)
    assert exc.value.line_number == line


def test_parse_non_monotone_indices_error(tmp_path):
    path = tmp_path / "bad.svm"
    path.write_text("+1 3:1 2:4\n")
    with pytest.raises(ParseError, match="strictly increasing"):
        read_libsvm(path)


def test_parse_rejects_zero_based_index(tmp_path):
    path = tmp_path / "bad.svm"
    path.write_text("+1 0:1\n")
    with pytest.raises(ParseError, match="1-based"):
        read_libsvm(path)


def test_labels_01_normalized(tmp_path):
    path = tmp_path / "toy.svm"
    path.write_text("1 1:1\n0 1:2\n1 2:1\n")
    handle = read_libsvm(path)
    assert set(handle.labels.tolist()) == {-1.0, 1.0}


def test_multiclass_labels_preserved(tmp_path):
    path = tmp_path / "toy.svm"
    path.write_text("0 1:1\n1 1:2\n2 2:1\n")
    handle = read_libsvm(path)
    assert set(handle.labels.tolist()) == {0.0, 1.0, 2.0}


def test_num_features_override(tmp_path):
    path = tmp_path / "toy.svm"
    path.write_text("+1 1:1\n-1 2:1\n")
    handle = read_libsvm(path, num_features=10)
    assert handle.p == 10
    with pytest.raises(ValueError):
        read_libsvm(path, num_features=1)


@pytest.mark.parametrize("bad", [10.7, 10.0])
def test_num_features_must_be_an_integer(tmp_path, bad):
    # a float is refused, not truncated
    path = tmp_path / "toy.svm"
    path.write_text("+1 1:1\n-1 2:1\n")
    with pytest.raises(ValueError, match="num_features"):
        read_libsvm(path, num_features=bad)
    assert read_libsvm(path, num_features=np.int64(10)).p == 10


@pytest.mark.parametrize("name, bad", [("n", 10.0), ("p", 3.0), ("p", 3.5), ("n", 0)])
def test_synth_sizes_must_be_integers(name, bad):
    sizes = {"n": 10, "p": 3, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
        synth_dataset(seed=0, **sizes)


def test_roundtrip_exact(tmp_path):
    handle, _ = synth_dataset(seed=13, n=25, p=9, sparsity=0.3)
    path = tmp_path / "round.svm"
    write_libsvm(handle, path)
    back = read_libsvm(path)
    assert back.n == handle.n
    assert back.p == handle.p
    assert back.nnz == handle.nnz
    assert np.array_equal(back.labels, handle.labels)
    assert np.array_equal(back.matrix.toarray(), handle.matrix.toarray())


def test_synth_deterministic():
    a, ra = synth_dataset(seed=77, n=30, p=12, sparsity=0.4)
    b, rb = synth_dataset(seed=77, n=30, p=12, sparsity=0.4)
    assert np.array_equal(a.matrix.toarray(), b.matrix.toarray())
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(ra["x_true"], rb["x_true"])


def test_synth_zero_sparsity_dense_truth():
    _, record = synth_dataset(seed=5, n=10, p=40, sparsity=0.0)
    x = record["x_true"]
    # every segment drawn: no interior zeros at all (measure-zero event)
    assert np.all(x != 0.0)


def test_synth_least_squares_labels():
    handle, record = synth_dataset(seed=6, n=50, p=8, sparsity=0.5,
                                   model="least-squares", noise=0.0)
    want = handle.matrix @ record["x_true"]
    assert np.allclose(handle.labels, want)


def test_fused_model_ties_more_differences_than_lasso():
    # fused-penalty solutions have more near-zero consecutive differences
    # than the plain lasso solution on the same piecewise-constant data
    handle, _ = sepqn.synth_dataset(seed=2, n=2000, p=200, sparsity=0.5)
    lam = 2.0 / handle.n
    fused = sepqn.make_builtin("fused-sparse-logistic", handle.matrix,
                               handle.labels, lam=lam, fused_weight=lam)
    lasso = sepqn.make_builtin("l1-logistic", handle.matrix, handle.labels,
                               lam=lam)
    f_sol = sepqn.solve(fused, sepqn.SolverConfig(max_outer=100,
                                                  ))
    l_sol = sepqn.fista_solve(lasso, sepqn.BaselineConfig(tolerance=1e-12,
                                                          max_iterations=30000))
    frac_fused = np.mean(np.abs(np.diff(f_sol.x)) <= 1e-8)
    frac_lasso = np.mean(np.abs(np.diff(l_sol.x)) <= 1e-8)
    assert frac_fused >= frac_lasso


class TestCli:
    def test_solve_writes_artifacts(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(["solve", "--model", "l1-logistic", "--lambda", "0.01",
                   "--synth-n", "60", "--synth-p", "12", "--out", out])
        assert rc == 0
        for name in ("solution.txt", "trace.csv", "summary.txt"):
            assert os.path.exists(os.path.join(out, name))
        header = Path(out, "trace.csv").read_text().splitlines()[0].strip()
        assert header == "iter,objective,step,inner_iters,epochs,seconds,sigma,beta"

    def test_solve_reads_libsvm(self, tmp_path):
        data = tmp_path / "toy.svm"
        handle, _ = synth_dataset(seed=8, n=50, p=10)
        write_libsvm(handle, data)
        out = str(tmp_path / "run")
        rc = main(["solve", "--data", str(data), "--lambda", "0.02",
                   "--out", out])
        assert rc == 0
        summary = Path(out, "summary.txt").read_text()
        assert "n: 50" in summary and "p: 10" in summary

    def test_missing_data_file_is_exit_2(self, tmp_path):
        rc = main(["solve", "--data", str(tmp_path / "nope.svm"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("flags", [
        ["--model", "sparse-group-logistic", "--num-groups", "0"],
        ["--synth-n", "0"],
    ])
    def test_bad_problem_makes_no_directory(self, tmp_path, capsys, flags):
        out = tmp_path / "o"
        assert main(["solve", *flags, "--out", str(out)]) == 2
        assert "bad-problem" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path", ["", "nope.svm"])
    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_unreadable_data_path_is_a_bad_problem(self, tmp_path, capsys, command, path):
        # a directory once escaped as an IsADirectoryError traceback (exit 1),
        # and a missing file was reported as bad-arguments
        out = tmp_path / "o"
        assert main([command, "--data", str(tmp_path / path), "--out", str(out)]) == 2
        assert "bad-problem" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_writes_consensus(self, tmp_path):
        out = str(tmp_path / "cmp")
        rc = main(["compare", "--solvers", "sepqn,fista,admm",
                   "--model", "l1-logistic", "--lambda", "0.01",
                   "--synth-n", "80", "--synth-p", "15", "--out", out,
                   "--baseline-tol", "1e-11"])
        assert rc == 0
        consensus = Path(out, "consensus.txt").read_text()
        assert "sepqn vs fista" in consensus
        worst = [ln for ln in consensus.splitlines() if "worst" in ln][0]
        assert float(worst.split(":")[1]) <= 1e-6
        for solver in ("sepqn", "fista", "admm"):
            assert os.path.exists(os.path.join(out, f"{solver}_trace.csv"))

    def test_run_deterministic_traces(self, tmp_path):
        spec = dict(model="l1-logistic", solvers=("sepqn",), lam=0.01,
                    seed=3, synth_n=60, synth_p=12)
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        assert run(RunSpec(out_dir=a, **spec)) == 0
        assert run(RunSpec(out_dir=b, **spec)) == 0
        for name in ("trace.csv", "solution.txt", "summary.txt"):
            assert Path(a, name).read_bytes() == Path(b, name).read_bytes()

    def test_trace_rows_match_summary_iterations(self, tmp_path):
        out = str(tmp_path / "run")
        assert run(RunSpec(out_dir=out, lam=0.01, synth_n=60, synth_p=12)) == 0
        rows = Path(out, "trace.csv").read_text().strip().splitlines()
        summary = Path(out, "summary.txt").read_text()
        iters = int([ln for ln in summary.splitlines()
                     if ln.startswith("iterations:")][0].split(":")[1])
        assert len(rows) - 1 == iters
        objectives = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b <= a for a, b in zip(objectives, objectives[1:]))

    def test_summary_counts_unconverged_inner_solves(self, tmp_path, monkeypatch):
        # a budget of 10 inner iterations leaves some surrogates, not all,
        # short of their gap; baselines have no inner solve and no such line
        solved = {}
        for name, attr in (("sepqn", "solve"), ("scd-direct", "scd_direct_solve")):
            def spy(*args, _real=getattr(cli, attr), _name=name, **kwargs):
                solved[_name] = _real(*args, **kwargs)
                return solved[_name]
            monkeypatch.setattr(cli, attr, spy)
        out = str(tmp_path / "cmp")
        assert main(["compare", "--solvers", "sepqn,scd-direct,admm",
                     "--model", "sparse-group-logistic", "--lambda", "0.01",
                     "--synth-n", "80", "--synth-p", "15", "--max-inner", "10",
                     "--out", out]) == 0
        for name, sol in solved.items():
            summary = Path(out, f"{name}_summary.txt").read_text()
            count = sum(not r.inner_converged for r in sol.trace.rows)
            assert 0 < count < sol.trace.iterations
            assert f"inner_unconverged: {count}\n" in summary
        admm = Path(out, "admm_summary.txt").read_text()
        assert "inner_unconverged" not in admm

    def test_summary_names_the_stop_reason(self, tmp_path, monkeypatch):
        # sepqn and scd-direct write which exit fired; the baselines do not
        solved = {}
        for name, attr in (("sepqn", "solve"), ("scd-direct", "scd_direct_solve")):
            def spy(*args, _real=getattr(cli, attr), _name=name, **kwargs):
                solved[_name] = _real(*args, **kwargs)
                return solved[_name]
            monkeypatch.setattr(cli, attr, spy)
        out = str(tmp_path / "cmp")
        assert main(["compare", "--solvers", "sepqn,scd-direct,fista",
                     "--model", "l1-logistic", "--lambda", "0.01",
                     "--synth-n", "80", "--synth-p", "15", "--out", out]) == 0
        for name, sol in solved.items():
            summary = Path(out, f"{name}_summary.txt").read_text()
            assert sol.trace.stop_reason in ("gamma", "stall")
            assert f"stop_reason: {sol.trace.stop_reason}\n" in summary
        fista = Path(out, "fista_summary.txt").read_text()
        assert "stop_reason" not in fista

    def test_synth_subcommand(self, tmp_path):
        out = str(tmp_path / "data.svm")
        rc = main(["synth", "--n", "40", "--p", "8", "--seed", "2",
                   "--out", out])
        assert rc == 0
        handle = read_libsvm(out)
        assert handle.n == 40 and handle.p == 8
        assert os.path.exists(out + ".truth")

    @pytest.mark.parametrize("argv, made", [
        (["synth", "--n", "20", "--p", "4"], "directory"),
        (["solve", "--synth-n", "20", "--synth-p", "4"], "file"),
    ], ids=["synth-out-is-a-directory", "solve-out-is-a-file"])
    def test_unwritable_output_path_is_exit_2(self, tmp_path, capsys, argv, made):
        # both once escaped as tracebacks: IsADirectoryError from writing the
        # dataset, FileExistsError from making the run directory
        out = tmp_path / "taken"
        if made == "directory":
            out.mkdir()
        else:
            out.write_text("kept\n")
        assert main(argv + ["--out", str(out)]) == 2
        assert "error: bad-output" in capsys.readouterr().err
        if made == "file":
            assert out.read_text() == "kept\n"

    def test_bench_axis_p(self, tmp_path):
        out = str(tmp_path / "bench")
        rc = main(["bench", "--axis", "p", "--out", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "bench.csv"))

    @pytest.mark.parametrize("doublings", ["0", "-1"])
    def test_bench_needs_a_doubling(self, tmp_path, capsys, doublings):
        # 0 once printed "cost ratios [] within [1.7, 2.3]" and exited 0
        out = tmp_path / "bench"
        assert main(["bench", "--doublings", doublings, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad-arguments" in err and "doublings must be an integer >= 1" in err
        assert not out.exists()

    def test_env_var_default_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEPQN_OUT_DIR", str(tmp_path / "envout"))
        rc = main(["solve", "--lambda", "0.01", "--synth-n", "50",
                   "--synth-p", "10"])
        assert rc == 0
        assert os.path.exists(str(tmp_path / "envout" / "trace.csv"))

    def test_unknown_solver_rejected(self, tmp_path):
        rc = main(["compare", "--solvers", "sepqn,magic",
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_flags_absent_build_default_configs(self, monkeypatch):
        specs = []
        monkeypatch.setattr(cli, "run", lambda spec: specs.append(spec) or 0)
        assert main(["solve"]) == 0
        assert main(["compare"]) == 0
        for spec in specs:
            assert spec == RunSpec(solvers=spec.solvers)
            assert spec.solver_config == SolverConfig()
            assert spec.baseline_config == BaselineConfig()

    def test_flags_set_config_fields(self, monkeypatch):
        specs = []
        monkeypatch.setattr(cli, "run", lambda spec: specs.append(spec) or 0)
        assert main(["compare", "--max-outer", "7", "--outer-tol", "1e-6",
                     "--inner-tol", "1e-9", "--max-inner", "30",
                     "--memory", "4", "--baseline-iters", "50",
                     "--baseline-tol", "1e-7", "--rho", "2.5"]) == 0
        (spec,) = specs
        assert spec.solver_config == SolverConfig(
            max_outer=7, outer_tolerance=1e-6, inner_tolerance=1e-9, max_inner=30,
            lbfgs_memory=4)
        assert spec.baseline_config == BaselineConfig(
            max_iterations=50, tolerance=1e-7, rho=2.5)

    @pytest.mark.parametrize("argv", [
        ["solve", "--max-inner", "0"],
        ["compare", "--solvers", "sepqn,admm", "--rho", "0"],
    ])
    def test_bad_setting_is_exit_2_before_any_solve(self, tmp_path, monkeypatch,
                                                    capsys, argv):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(cli, "solve", no_solve)
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == 2
        assert "bad-arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, rule", [
        (["solve", "--lambda", "0"], "lam must be finite and > 0, got 0.0"),
        (["solve", "--lambda", "nan"], "lam must be finite and > 0"),
        (["solve", "--group-weight", "nan"], "group_weight must be None or finite and > 0"),
        (["solve", "--ridge", "nan"], "ridge must be finite and >= 0"),
        (["solve", "--ridge", "-1"], "ridge must be finite and >= 0, got -1.0"),
        (["compare", "--solvers", ","], "solvers must be distinct names"),
        (["compare", "--solvers", "sepqn,sepqn"], "solvers must be distinct names"),
    ])
    def test_bad_weight_or_solver_list_is_exit_2_before_any_directory(
            self, tmp_path, capsys, argv, rule):
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad-arguments" in err and rule in err
        assert not out.exists()

    def test_zero_ridge_runs(self, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", "--ridge", "0", "--synth-n", "60", "--synth-p", "12",
                     "--out", str(out)]) == 0
        assert (out / "solution.txt").exists()

    def test_scd_direct_honours_solver_flags(self, tmp_path, monkeypatch):
        out = str(tmp_path / "run")
        assert main(["solve", "--solver", "scd-direct", "--max-outer", "5",
                     "--synth-n", "150", "--synth-p", "30", "--out", out]) == 0
        rows = Path(out, "trace.csv").read_text().strip().splitlines()
        assert 1 <= len(rows) - 1 <= 5
        # an absent flag keeps scd-direct's own setting
        specs = []
        monkeypatch.setattr(cli, "run", lambda spec: specs.append(spec) or 0)
        assert main(["solve", "--solver", "scd-direct", "--max-inner", "50"]) == 0
        assert specs[0].scd_direct_config == SolverConfig(
            **{**cli.SCD_DIRECT_SETTINGS, "max_inner": 50})

    def test_memory_is_refused_for_scd_direct(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["solve", "--solver", "scd-direct", "--memory", "5",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad-arguments" in err and "--memory" in err
        assert not out.exists()

    def test_compare_memory_sets_sepqn_config_only(self, monkeypatch, capsys):
        specs = []
        monkeypatch.setattr(cli, "run", lambda spec: specs.append(spec) or 0)
        assert main(["compare", "--solvers", "sepqn,scd-direct", "--memory", "4",
                     "--max-inner", "30"]) == 0
        (spec,) = specs
        assert spec.solver_config == SolverConfig(lbfgs_memory=4, max_inner=30)
        assert spec.scd_direct_config == SolverConfig(
            **{**cli.SCD_DIRECT_SETTINGS, "max_inner": 30})
        assert spec.scd_direct_config.lbfgs_memory == 0
        with pytest.raises(SystemExit):
            main(["compare", "--help"])
        assert "lbfgs_memory for sepqn only" in " ".join(capsys.readouterr().out.split())

    def test_timing_flag_writes_nonzero_seconds(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(["solve", "--lambda", "0.01", "--synth-n", "60",
                   "--synth-p", "12", "--out", out, "--timing"])
        assert rc == 0
        rows = Path(out, "trace.csv").read_text().strip().splitlines()
        seconds = [float(r.split(",")[5]) for r in rows[1:]]
        assert seconds[-1] > 0.0
