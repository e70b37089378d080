"""Tests of the benchmark itself: its correctness gate, its tracing
reconciliation, its seeded inputs and its output contract.

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gate  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from sepqn import scd, solver  # noqa: E402

F_STAR = 0.4321


def _record(final, rows=None):
    rows = rows if rows is not None else [[0.1, F_STAR * 1.5], [0.2, final]]
    return {"label": "l1", "seconds": 0.2, "error": None, "status": "converged",
            "objective": final, "rows": rows}


def test_gate_accepts_a_solve_within_tolerance():
    assert gate.judge(_record(F_STAR * (1 + 5e-9)), F_STAR) == (None, False, 0.2)


def test_gate_rejects_objective_perturbed_by_2e6_relative():
    reason, wrong, tts = gate.judge(_record(F_STAR * (1 + 2e-6)), F_STAR)
    assert "above f*" in reason and wrong and tts is None


def test_gate_rejects_a_stop_short_of_1e8():
    # the default stop can land a few 1e-8 above the optimum: a failed solve,
    # though its output still agrees with the reference to 1e-6
    reason, wrong, tts = gate.judge(_record(F_STAR * (1 + 4e-8)), F_STAR)
    assert "never came within" in reason and not wrong and tts is None


@pytest.mark.parametrize("change", [{"status": "max_outer"},
                                    {"error": "SolverError: boom"}])
def test_gate_rejects_unconverged_or_raised(change):
    rec = dict(_record(F_STAR), **change)
    reason, wrong, _ = gate.judge(rec, F_STAR)
    assert reason is not None and wrong


def test_f_star_takes_the_best_objective_seen():
    better = F_STAR * (1 - 1e-9)
    assert gate.f_star(F_STAR, [_record(better)]) == better
    assert gate.f_star(F_STAR, [_record(F_STAR * 2)]) == F_STAR


def _tiny():
    return workloads.trio(n=200, p=20)


def _traced_pass(skip=()):
    measured = worker.measure(_tiny(), seed=0, seconds=0.0, trace=1, skip=skip)
    return next(p for p in measured["passes"] if p["traced"])["layers"]


def test_traced_pass_reconciles_and_restores_the_originals():
    originals = (solver.continuation_solve, scd._PROJECT_RAW.copy())
    layers = _traced_pass()
    assert gate.reconcile(layers, _tiny().layers) == []
    assert layers["problems.value_grad.calls"] + layers["problems.value.calls"] \
        == layers["solver.epochs"] > 0
    assert solver.continuation_solve is originals[0]
    assert scd._PROJECT_RAW == originals[1]


@pytest.mark.parametrize("removed", ["problems.value", "scd.continuation",
                                     "operators.GroupSelector.transpose"])
def test_reconciliation_fails_when_a_wrapper_is_removed(removed):
    problems = gate.reconcile(_traced_pass(skip={removed}), _tiny().layers)
    assert problems, f"removing the {removed} wrapper went unnoticed"


SMALL = [workloads.trio(n=200, p=20), workloads.tall_dense(n=500, p=10),
         workloads.wide_sparse(n=300, p=300, nnz_per_row=5)]


def _input_bytes(workload, seed):
    matrix, labels = workloads.generate(workload, seed)
    return b"".join(a.tobytes() for a in
                    (matrix.data, matrix.indices, matrix.indptr, labels))


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_seed_gives_identical_inputs_and_another_seed_other_inputs(workload):
    assert _input_bytes(workload, 7) == _input_bytes(workload, 7)
    assert _input_bytes(workload, 7) != _input_bytes(workload, 8)


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_seed_leaves_the_objective_unchanged(workload):
    values = []
    for seed in (7, 8):
        for _, problem in workloads.build(workload, *workloads.generate(workload, seed)):
            x = np.linspace(-1.0, 1.0, problem.dim)
            values.append(problem.objective(x))
    half = len(values) // 2
    assert np.allclose(values[:half], values[half:], rtol=1e-12, atol=0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured = worker.measure(_tiny(), seed=0, seconds=0.0, trace=0)
    refs = {label: {"objective": min(r["objective"] for r in measured["passes"][0]["solves"]
                                     if r["label"] == label)}
            for label, _, _ in _tiny().models}
    failures, _, tts, _ = run.judge_run(measured, refs)
    attempted = sum(len(p["solves"]) for p in measured["passes"])
    metrics, _ = run.end_to_end(measured, tts, failures, attempted)
    assert [(k, v["unit"]) for k, v in metrics.items()] == \
        [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    traced = worker.measure(_tiny(), seed=0, seconds=0.0, trace=1)
    metrics, problems = run.per_layer(traced, _tiny())
    assert problems == []
    assert [(k, v["unit"]) for k, v in metrics.items()] == \
        [(m["name"], m["unit"]) for m in spec["per_layer"]]


def test_refuses_to_run_without_solver_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", "trio", "--seed", "0", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
