import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import sepqn
from sepqn import baselines
from sepqn.baselines import (
    ABS_TOLERANCE,
    SCD_DIRECT_SETTINGS,
    BaselineConfig,
    UnsupportedStructure,
    admm_solve,
    fista_solve,
    scd_direct_solve,
)
from sepqn.lbfgs import SIGMA_FLOOR
from sepqn.operators import ExplicitSparse, FirstDifference, Identity
from sepqn.problems import (
    CompositeProblem,
    LeastSquaresLoss,
    LogisticLoss,
    NormKind,
    RegularizerTerm,
    make_builtin,
)
from sepqn.solver import SolverConfig, SolverError, solve


def lasso_toy(rng, n=40, p=12, lam=0.05):
    a = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    loss = LeastSquaresLoss(a, y)
    prob = CompositeProblem(loss, (RegularizerTerm(NormKind.L1, lam, Identity(p)),))
    return prob, a, y, lam


def coordinate_descent_lasso(a, y, lam, iters=6000):
    """Cyclic coordinate descent on (1/n)||Ax-y||^2 + lam ||x||_1."""
    n, p = a.shape
    x = np.zeros(p)
    col_sq = (a * a).sum(axis=0)
    r = y - a @ x
    for _ in range(iters):
        for j in range(p):
            r += a[:, j] * x[j]
            rho = 2.0 * float(a[:, j] @ r) / n
            denom = 2.0 * col_sq[j] / n
            x[j] = np.sign(rho) * max(abs(rho) - lam, 0.0) / denom
            r -= a[:, j] * x[j]
    return x


def test_fista_matches_coordinate_descent_oracle(rng):
    prob, a, y, lam = lasso_toy(rng)
    oracle_x = coordinate_descent_lasso(a, y, lam)
    oracle_obj = prob.objective(oracle_x)
    sol = fista_solve(prob, BaselineConfig(tolerance=1e-14, max_iterations=60000))
    assert abs(sol.objective - oracle_obj) <= 1e-8


def test_fista_zero_weight_reaches_least_squares_optimum(rng):
    p = 6
    a = rng.standard_normal((30, p))
    y = rng.standard_normal(30)
    loss = LeastSquaresLoss(a, y)
    prob = CompositeProblem(loss, (RegularizerTerm(NormKind.L1, 0.0, Identity(p)),))
    sol = fista_solve(prob, BaselineConfig(tolerance=1e-14, max_iterations=60000))
    x_star = np.linalg.solve(a.T @ a, a.T @ y)
    assert np.linalg.norm(sol.x - x_star) <= 1e-5


def test_fista_first_iteration_is_prox_step(rng):
    prob, a, y, lam = lasso_toy(rng)
    sol = fista_solve(prob, BaselineConfig(max_iterations=1))
    _, g0 = prob.loss.value_grad(np.zeros(prob.dim))
    step = sol.trace.rows[0].step  # 1 / curvature after backtracking
    want = np.sign(-step * g0) * np.maximum(np.abs(step * g0) - step * lam, 0.0)
    assert np.allclose(sol.x, want, atol=1e-12)


def test_fista_requires_single_identity_term(rng):
    handle, _ = sepqn.synth_dataset(seed=0, n=30, p=8)
    fused = make_builtin("fused-sparse-logistic", handle.matrix, handle.labels,
                         lam=0.1, fused_weight=0.1)
    with pytest.raises(UnsupportedStructure):
        fista_solve(fused)
    p = 8
    loss = fused.loss
    linf = CompositeProblem(loss, (RegularizerTerm(NormKind.LINF, 0.1, Identity(p)),))
    with pytest.raises(UnsupportedStructure):
        fista_solve(linf)
    tv_only = CompositeProblem(
        loss, (RegularizerTerm(NormKind.L1, 0.1, FirstDifference(p)),)
    )
    with pytest.raises(UnsupportedStructure):
        fista_solve(tv_only)


@pytest.mark.parametrize("solver", [solve, fista_solve, admm_solve])
def test_start_point_is_checked_before_any_iteration(rng, solver):
    # fista once ran all its iterations from a nan start, and admm failed
    # inside numpy or scipy
    prob, *_ = lasso_toy(rng)
    with pytest.raises(ValueError, match="x0 must have length"):
        solver(prob, x0=np.zeros(prob.dim - 1))
    with pytest.raises(SolverError, match="not finite at the starting point"):
        solver(prob, x0=np.full(prob.dim, np.nan))


def test_fista_trace_monotone(rng):
    prob, *_ = lasso_toy(rng, n=60, p=20)
    sol = fista_solve(prob, BaselineConfig(tolerance=1e-12, max_iterations=5000))
    objs = np.concatenate([[sol.trace.initial_objective], sol.trace.objectives()])
    assert np.all(np.diff(objs) <= 0)


def test_admm_matches_fista_on_lasso(rng):
    prob, *_ = lasso_toy(rng, n=50, p=15, lam=0.08)
    f_sol = fista_solve(prob, BaselineConfig(tolerance=1e-13, max_iterations=60000))
    a_sol = admm_solve(prob, BaselineConfig(kind="admm", tolerance=1e-10,
                                            max_iterations=20000))
    assert abs(f_sol.objective - a_sol.objective) <= 1e-7


def test_admm_single_quadratic_one_step(rng):
    # no penalty terms: the first x-update solves the normal equations
    p = 7
    a = rng.standard_normal((25, p))
    y = rng.standard_normal(25)
    loss = LeastSquaresLoss(a, y)
    prob = CompositeProblem(loss, ())
    sol = admm_solve(prob, BaselineConfig(kind="admm"))
    x_star = np.linalg.solve(a.T @ a, a.T @ y)
    assert np.linalg.norm(sol.x - x_star) <= 1e-9
    assert sol.trace.iterations == 1
    assert sol.trace.status == "converged"


def test_admm_fused_logistic_consensus_with_sepqn():
    handle, _ = sepqn.synth_dataset(seed=3, n=300, p=40)
    lam = 2.0 / handle.n
    prob = make_builtin("fused-sparse-logistic", handle.matrix, handle.labels,
                        lam=lam, fused_weight=lam)
    s_sol = solve(prob, SolverConfig(max_outer=100))
    a_sol = admm_solve(prob, BaselineConfig(kind="admm", tolerance=1e-9,
                                            max_iterations=20000))
    rel = abs(s_sol.objective - a_sol.objective) / max(abs(s_sol.objective), 1e-30)
    assert rel <= 1e-6
    # objective settles monotonically after burn-in
    objs = a_sol.trace.objectives()
    tail = objs[len(objs) // 2:]
    assert np.all(np.diff(tail) <= 1e-9)


def test_admm_residuals_below_tolerance_at_stop(rng):
    prob, *_ = lasso_toy(rng, n=40, p=10, lam=0.05)
    cfg = BaselineConfig(kind="admm", tolerance=1e-9, max_iterations=20000)
    sol = admm_solve(prob, cfg)
    assert sol.trace.status == "converged"
    last = sol.trace.rows[-1]
    # sigma/beta columns carry the primal/dual residual norms for admm
    images = [t.image(sol.x) for t in prob.terms]
    norm_img = np.sqrt(sum(float(v @ v) for v in images))
    assert last.sigma <= np.sqrt(sum(t.op.output_dim for t in prob.terms)) \
        * ABS_TOLERANCE + cfg.tolerance * max(norm_img, 1.0) + 1e-12


@pytest.mark.parametrize("setting", [
    {"rho": 0.0}, {"rho": -1.0}, {"rho": float("nan")}, {"rho": float("inf")},
    {"tolerance": -1e-9}, {"tolerance": float("nan")}, {"max_iterations": 0},
    {"max_iterations": 2.5},
])
def test_config_rejects_bad_settings(setting):
    (name,) = setting
    with pytest.raises(ValueError, match=name):
        BaselineConfig(kind="admm", **setting)


def test_admm_guard_rejects_huge_p():
    a = np.zeros((2, 5001))
    a[0, 0] = 1.0
    loss = LeastSquaresLoss(a, np.zeros(2))
    prob = CompositeProblem(loss, ())
    with pytest.raises(UnsupportedStructure, match="5000"):
        admm_solve(prob)


def test_admm_with_no_terms_stops_at_the_losss_minimum():
    # with no terms both residuals once read 0, so admm stopped after one
    # x-update, 0.9% above the minimum; the dual residual now carries the
    # majorizer's error, and the ridge logistic loss has a unique minimum
    h, _ = sepqn.synth_dataset(seed=1, n=200, p=10)
    prob = CompositeProblem(LogisticLoss(h.matrix, h.labels, ridge=0.1), ())
    sol, ref = admm_solve(prob), solve(prob)
    assert sol.trace.status == "converged"
    assert abs(sol.objective - ref.objective) <= 1e-8 * abs(ref.objective)


def test_admm_handles_linf_terms(rng):
    # prox of the sup-norm via Moreau: v minus the l1-ball projection
    p = 6
    a = rng.standard_normal((30, p))
    y = rng.standard_normal(30)
    loss = LeastSquaresLoss(a, y)
    prob = CompositeProblem(
        loss, (RegularizerTerm(NormKind.LINF, 0.05, Identity(p)),)
    )
    sol = admm_solve(prob, BaselineConfig(kind="admm", tolerance=1e-10,
                                          max_iterations=30000))
    ref = solve(prob, SolverConfig(max_outer=200))
    assert abs(sol.objective - ref.objective) <= 1e-6


def test_scd_direct_agrees_on_l1_logistic():
    handle, _ = sepqn.synth_dataset(seed=4, n=200, p=30)
    prob = make_builtin("l1-logistic", handle.matrix, handle.labels,
                        lam=2.0 / handle.n)
    direct = scd_direct_solve(prob, SolverConfig(outer_tolerance=1e-11,
                                                 max_outer=20000,
                                                 max_inner=200))
    ref = fista_solve(prob, BaselineConfig(tolerance=1e-13, max_iterations=60000))
    rel = abs(direct.objective - ref.objective) / max(abs(ref.objective), 1e-30)
    assert rel <= 1e-6


def test_scd_direct_never_stores_pairs():
    handle, _ = sepqn.synth_dataset(seed=5, n=100, p=15)
    prob = make_builtin("l1-logistic", handle.matrix, handle.labels, lam=0.01)
    sol = scd_direct_solve(prob, SolverConfig(max_outer=50))
    sigmas = {r.sigma for r in sol.trace.rows}
    assert len(sigmas) == 1  # metric frozen at the Lipschitz bound
    betas = {r.beta for r in sol.trace.rows}
    assert betas == {2.0}


def test_admm_same_run_from_full_csr_and_dense_storage():
    # synth data is a full Gaussian stored as CSR, which the loss stores dense
    handle, _ = sepqn.synth_dataset(seed=2, n=200, p=20)
    lam = 2.0 / handle.n
    cfg = BaselineConfig(kind="admm", tolerance=1e-9, max_iterations=20000)
    sols = [
        admm_solve(make_builtin("sparse-group-logistic", data, handle.labels,
                                lam=lam, group_weight=lam, groups=4), cfg)
        for data in (handle.matrix, handle.matrix.toarray())
    ]
    assert sols[0].trace.iterations == sols[1].trace.iterations
    assert np.array_equal(sols[0].x, sols[1].x)


@pytest.mark.parametrize("model, kwargs", [
    ("sparse-group-logistic", {"groups": 5}),
    ("multitask-dirty-logistic", {}),
])
def test_admm_fused_group_terms_match_explicit_operators(model, kwargs):
    # admm runs on the dual loop's term blocks; ExplicitSparse terms are
    # never fused, so they give the per-term run
    handle, _ = sepqn.synth_dataset(seed=3, n=150, p=10)
    labels = np.arange(handle.n) % 3.0 if model.startswith("multitask") else handle.labels
    lam = 2.0 / handle.n
    prob = make_builtin(model, handle.matrix, labels, lam=lam, group_weight=lam,
                        **kwargs)
    plain = CompositeProblem(prob.loss, tuple(
        RegularizerTerm(t.kind, t.weight, ExplicitSparse(t.op.to_sparse()), t.offset)
        for t in prob.terms))
    cfg = BaselineConfig(kind="admm", tolerance=1e-9, max_iterations=20000)
    fused, ref = admm_solve(prob, cfg), admm_solve(plain, cfg)
    assert fused.trace.status == ref.trace.status == "converged"
    assert fused.trace.iterations == ref.trace.iterations
    assert fused.objective == pytest.approx(ref.objective, rel=1e-12)
    assert np.allclose(fused.x, ref.x, rtol=0.0, atol=1e-10)


def test_admm_objective_is_the_problems_objective():
    # admm's objective is g + problem.penalty at its x, with no copy of its own
    handle, _ = sepqn.synth_dataset(seed=3, n=150, p=10)
    lam = 2.0 / handle.n
    prob = make_builtin("fused-sparse-group-logistic", handle.matrix, handle.labels,
                        lam=lam, fused_weight=lam, group_weight=lam, groups=5)
    sol = admm_solve(prob, BaselineConfig(kind="admm", max_iterations=200))
    assert sol.objective == prob.objective(sol.x)


def test_scd_direct_without_config_runs_under_its_settings(monkeypatch, rng):
    prob = lasso_toy(rng)[0]
    configs = []
    monkeypatch.setattr(baselines, "solve",
                        lambda problem, config, x0=None: configs.append(config))
    scd_direct_solve(prob)
    scd_direct_solve(prob, SolverConfig(max_outer=7))
    sigma = max(prob.loss.lipschitz_bound(), SIGMA_FLOOR)
    assert configs == [SolverConfig(**{**SCD_DIRECT_SETTINGS, "sigma0": sigma}),
                       SolverConfig(max_outer=7, lbfgs_memory=0, sigma0=sigma)]


def test_only_admm_loads_scipy_linalg():
    # a fresh interpreter: importing the package leaves scipy.linalg out, and
    # ADMM's first factorization brings it in
    script = """
import json, sys
import numpy as np
import sepqn
after_import = "scipy.linalg" in sys.modules
rng = np.random.default_rng(0)
a, y = rng.standard_normal((40, 12)), rng.standard_normal(40)
prob = sepqn.CompositeProblem(sepqn.LeastSquaresLoss(a, y), (
    sepqn.RegularizerTerm(sepqn.NormKind.L1, 0.05, sepqn.Identity(12)),))
before_admm = "scipy.linalg" in sys.modules
sol = sepqn.admm_solve(prob)
print(json.dumps([after_import, before_admm, "scipy.linalg" in sys.modules,
                  sol.trace.status]))
"""
    src = str(Path(sepqn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False, False, True, "converged"]
