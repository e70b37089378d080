import os

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
        header = open(os.path.join(out, "trace.csv")).readline().strip()
        assert header == "iter,objective,step,inner_iters,epochs,seconds,sigma,beta"

    def test_solve_reads_libsvm(self, tmp_path):
        data = tmp_path / "toy.svm"
        handle, _ = synth_dataset(seed=8, n=50, p=10)
        write_libsvm(handle, data)
        out = str(tmp_path / "run")
        rc = main(["solve", "--data", str(data), "--lambda", "0.02",
                   "--out", out])
        assert rc == 0
        summary = open(os.path.join(out, "summary.txt")).read()
        assert "n: 50" in summary and "p: 10" in summary

    def test_missing_data_file_is_exit_2(self, tmp_path):
        rc = main(["solve", "--data", str(tmp_path / "nope.svm"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_compare_writes_consensus(self, tmp_path):
        out = str(tmp_path / "cmp")
        rc = main(["compare", "--solvers", "sepqn,fista,admm",
                   "--model", "l1-logistic", "--lambda", "0.01",
                   "--synth-n", "80", "--synth-p", "15", "--out", out,
                   "--baseline-tol", "1e-11"])
        assert rc == 0
        consensus = open(os.path.join(out, "consensus.txt")).read()
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
            assert open(os.path.join(a, name), "rb").read() == \
                open(os.path.join(b, name), "rb").read()

    def test_trace_rows_match_summary_iterations(self, tmp_path):
        out = str(tmp_path / "run")
        assert run(RunSpec(out_dir=out, lam=0.01, synth_n=60, synth_p=12)) == 0
        rows = open(os.path.join(out, "trace.csv")).read().strip().splitlines()
        summary = open(os.path.join(out, "summary.txt")).read()
        iters = int([ln for ln in summary.splitlines()
                     if ln.startswith("iterations:")][0].split(":")[1])
        assert len(rows) - 1 == iters
        objectives = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b <= a for a, b in zip(objectives, objectives[1:]))

    def test_synth_subcommand(self, tmp_path):
        out = str(tmp_path / "data.svm")
        rc = main(["synth", "--n", "40", "--p", "8", "--seed", "2",
                   "--out", out])
        assert rc == 0
        handle = read_libsvm(out)
        assert handle.n == 40 and handle.p == 8
        assert os.path.exists(out + ".truth")

    def test_bench_axis_p(self, tmp_path):
        out = str(tmp_path / "bench")
        rc = main(["bench", "--axis", "p", "--out", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "bench.csv"))

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
                     "--inner-tol", "1e-9", "--max-inner", "30", "--restarts", "2",
                     "--memory", "4", "--baseline-iters", "50",
                     "--baseline-tol", "1e-7", "--rho", "2.5"]) == 0
        (spec,) = specs
        assert spec.solver_config == SolverConfig(
            max_outer=7, outer_tolerance=1e-6, inner_tolerance=1e-9, max_inner=30,
            continuation_restarts=2, lbfgs_memory=4)
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

    def test_timing_flag_writes_nonzero_seconds(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(["solve", "--lambda", "0.01", "--synth-n", "60",
                   "--synth-p", "12", "--out", out, "--timing"])
        assert rc == 0
        rows = open(os.path.join(out, "trace.csv")).read().strip().splitlines()
        seconds = [float(r.split(",")[5]) for r in rows[1:]]
        assert seconds[-1] > 0.0
