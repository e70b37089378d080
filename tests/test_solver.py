import numpy as np
import pytest

import sepqn
from sepqn.lbfgs import LbfgsMetric
from sepqn.operators import Identity
from sepqn.problems import (
    CompositeProblem,
    LeastSquaresLoss,
    LogisticLoss,
    NormKind,
    RegularizerTerm,
    make_builtin,
)
from sepqn.scd import continuation_solve
from sepqn.solver import (
    ARMIJO,
    BACKTRACK_FACTOR,
    LineSearchFailure,
    SolverConfig,
    SolverError,
    gamma,
    line_search,
    solve,
    unit_step_tail,
)


def logistic_toy(seed=0, n=200, p=50, lam=None):
    handle, _ = sepqn.synth_dataset(seed=seed, n=n, p=p, sparsity=0.5)
    lam = lam if lam is not None else 2.0 / n
    return make_builtin("l1-logistic", handle.matrix, handle.labels, lam=lam)


def test_config_validates_alpha():
    # the sufficient-descent constant is a module constant, not a setting
    assert 0.0 < ARMIJO < 0.5
    assert 0.0 < BACKTRACK_FACTOR < 1.0
    with pytest.raises(TypeError):
        SolverConfig(alpha=0.4999)


@pytest.mark.parametrize("setting", [
    {"max_inner": 0}, {"inner_tolerance": -1e-9}, {"inner_tolerance": float("nan")},
    {"lbfgs_memory": -1}, {"sigma0": float("nan")}, {"sigma0": float("inf")},
    {"sigma0": 0.0}, {"stall_iterations": 0}, {"max_outer": 0},
    {"continuation_restarts": 0}, {"outer_tolerance": float("nan")},
])
def test_config_rejects_bad_settings(setting):
    (name,) = setting
    with pytest.raises(ValueError, match=name):
        SolverConfig(**setting)


def test_config_accepts_boundary_settings():
    SolverConfig(max_inner=1, inner_tolerance=0.0, lbfgs_memory=0,
                 stall_iterations=1, outer_tolerance=0.0)


def test_gamma_zero_direction(rng):
    prob = logistic_toy()
    x = rng.standard_normal(prob.dim)
    _, grad = prob.loss.value_grad(x)
    assert gamma(prob, x, np.zeros(prob.dim), grad) == 0.0


def test_gamma_unregularized_newton_direction(rng):
    # quadratic loss, vacuous penalty: gamma = -g' H^{-1} g < 0
    p = 6
    a = rng.standard_normal((12, p))
    y = rng.standard_normal(12)
    loss = LeastSquaresLoss(a, y)
    prob = CompositeProblem(loss, (RegularizerTerm(NormKind.L1, 0.0, Identity(p)),))
    x = rng.standard_normal(p)
    _, grad = loss.value_grad(x)
    metric = LbfgsMetric(p, sigma=2.0)
    delta = -metric.inv_apply(grad)
    got = gamma(prob, x, delta, grad)
    assert got == pytest.approx(-float(grad @ metric.inv_apply(grad)), rel=1e-12)
    assert got < 0


def test_gamma_satisfies_descent_bound_on_lasso_toy(rng):
    prob = logistic_toy(seed=3, n=100, p=20)
    x = rng.standard_normal(prob.dim) * 0.2
    _, grad = prob.loss.value_grad(x)
    metric = LbfgsMetric(prob.dim, sigma=0.8)
    inner = continuation_solve(metric, x, grad, prob.terms, tolerance=1e-9,
                               max_inner=4000, restarts=2)
    delta = inner.direction
    g = gamma(prob, x, delta, grad)
    dhd = float(delta @ metric.apply(delta))
    assert g <= -dhd + 1e-8


def test_line_search_accepts_unit_step_with_exact_hessian(rng):
    # quadratic objective whose Hessian equals the metric: t = 1
    p = 5
    a = rng.standard_normal((30, p))
    y = rng.standard_normal(30)
    loss = LeastSquaresLoss(a, y)
    prob = CompositeProblem(loss, (RegularizerTerm(NormKind.L1, 0.0, Identity(p)),))
    hess = 2.0 * a.T @ a / 30
    x = rng.standard_normal(p)
    f, grad = loss.value_grad(x)
    delta = -np.linalg.solve(hess, grad)
    g = gamma(prob, x, delta, grad)
    t, f_new, probes = line_search(prob, x, delta, g, f_value=f)
    assert t == 1.0
    assert probes == 1
    assert f_new <= f + 1e-4 * g


def test_line_search_trivial_zero_direction(rng):
    prob = logistic_toy(seed=1, n=50, p=10)
    x = rng.standard_normal(prob.dim) * 0.1
    f = prob.objective(x)
    t, f_new, _ = line_search(prob, x, np.zeros(prob.dim), 0.0, f_value=f)
    assert t == 1.0
    assert f_new == f


def test_line_search_rejects_positive_gamma(rng):
    prob = logistic_toy(seed=1, n=50, p=10)
    with pytest.raises(ValueError):
        line_search(prob, np.zeros(prob.dim), np.ones(prob.dim), 0.5)


def test_line_search_underflow_raises():
    # an ascent direction with a tiny claimed decrease forces underflow
    p = 4
    a = np.eye(p)
    loss = LeastSquaresLoss(a, np.zeros(p))
    prob = CompositeProblem(loss, (RegularizerTerm(NormKind.L1, 0.0, Identity(p)),))
    x = np.ones(p)
    _, grad = loss.value_grad(x)
    with pytest.raises(LineSearchFailure) as exc:
        line_search(prob, x, grad, -1e-18)
    assert exc.value.step < 1e-12
    assert exc.value.probes > 30


@pytest.mark.parametrize("bad_gamma", [-np.inf, np.nan])
def test_line_search_rejects_non_finite_gamma(bad_gamma):
    prob = logistic_toy(seed=1, n=50, p=10)
    with pytest.raises(SolverError, match="gamma is not finite"):
        line_search(prob, np.zeros(prob.dim), -np.ones(prob.dim), bad_gamma)


def test_overflowing_feature_raises_solver_error():
    # a 1e300 feature overflows the margins, so gamma comes out -inf; no step
    # length can mend that, so the solve stops with SolverError instead of
    # backtracking to an underflow
    handle, _ = sepqn.synth_dataset(seed=0, n=200, p=20, sparsity=0.5)
    a = handle.matrix.toarray()
    a[:, 3] = 1e300
    prob = make_builtin("l1-logistic", a, handle.labels, lam=0.01)
    with np.errstate(all="ignore"), pytest.raises(SolverError, match="gamma"):
        solve(prob, SolverConfig(max_outer=50))


def test_zero_memory_keeps_metric_fixed_at_sigma0():
    prob = logistic_toy(seed=4, n=120, p=15)
    sol = solve(prob, SolverConfig(max_outer=30, lbfgs_memory=0, sigma0=3.5))
    assert sol.trace.iterations > 1
    assert any(r.step == 1.0 for r in sol.trace.rows)
    for r in sol.trace.rows:
        assert r.sigma == 3.5
        assert r.beta == 2.0
        assert not r.curvature_accepted


def test_shrunken_metric_forces_fractional_step_then_sigma_increase(rng):
    # scripted scenario: a deliberately tiny seed makes the unit step fail,
    # and the adaptation then raises sigma for the next iteration
    prob = logistic_toy(seed=5, n=150, p=25)
    p = prob.dim
    x = np.zeros(p)
    f = prob.objective(x)
    _, grad = prob.loss.value_grad(x)
    lips = prob.loss.lipschitz_bound()
    metric = LbfgsMetric(p, sigma=1e-3 * lips)
    inner = continuation_solve(metric, x, grad, prob.terms, tolerance=1e-10,
                               max_inner=4000, restarts=2)
    g = gamma(prob, x, inner.direction, grad)
    t, f_new, _ = line_search(prob, x, inner.direction, g, f_value=f)
    assert t < 1.0
    x_new = x + t * inner.direction
    _, grad_new = prob.loss.value_grad(x_new)
    s, yv = x_new - x, grad_new - grad
    sigma_before = metric.sigma
    assert float(s @ yv) > 0
    metric.push_pair(s, yv)
    metric.adapt_h0(t, s, yv)
    assert metric.sigma > sigma_before


def test_solve_least_squares_matches_normal_equations(rng):
    p = 8
    a = rng.standard_normal((40, p))
    y = rng.standard_normal(40)
    loss = LeastSquaresLoss(a, y)
    prob = CompositeProblem(loss, (RegularizerTerm(NormKind.L1, 0.0, Identity(p)),))
    sol = solve(prob, SolverConfig(max_outer=100, outer_tolerance=1e-12))
    x_star = np.linalg.solve(a.T @ a, a.T @ y)
    assert np.linalg.norm(sol.x - x_star) <= 1e-6
    assert sol.trace.status == "converged"


def test_solve_matches_fista_objective():
    prob = logistic_toy(seed=0, n=200, p=50)
    sol = solve(prob, SolverConfig(max_outer=100))
    ref = sepqn.fista_solve(prob, sepqn.BaselineConfig(tolerance=1e-13,
                                                       max_iterations=40000))
    assert abs(sol.objective - ref.objective) <= 1e-6


def test_huge_lambda_returns_zero_fast():
    prob = logistic_toy(seed=2, n=80, p=15, lam=10.0)  # lambda >> grad sup norm
    sol = solve(prob, SolverConfig(max_outer=50))
    assert np.allclose(sol.x, 0.0, atol=1e-9)
    assert sol.trace.iterations <= 2


def test_monotone_descent_trace():
    prob = logistic_toy(seed=4, n=250, p=40)
    sol = solve(prob, SolverConfig(max_outer=100))
    objs = np.concatenate([[sol.trace.initial_objective], sol.trace.objectives()])
    assert np.all(np.diff(objs) <= 0)


def test_objective_matches_reevaluation():
    prob = logistic_toy(seed=6, n=100, p=20)
    sol = solve(prob, SolverConfig(max_outer=60))
    assert sol.objective == prob.objective(sol.x)


def test_curvature_guard_leaves_metric_unchanged(rng):
    # rejected pairs must not touch sigma, beta, or the history
    m = LbfgsMetric(4, sigma=1.5)
    s = np.array([1.0, 0.0, 0.0, 0.0])
    sigma0, beta0 = m.sigma, m.beta
    assert not m.push_pair(s, -s)
    assert m.sigma == sigma0 and m.beta == beta0 and m.pair_count == 0


def test_global_convergence_from_random_starts(rng):
    prob = logistic_toy(seed=8, n=150, p=25)
    ref = sepqn.fista_solve(prob, sepqn.BaselineConfig(tolerance=1e-13,
                                                       max_iterations=40000))
    for _ in range(5):
        x0 = rng.standard_normal(prob.dim) * 2.0
        sol = solve(prob, SolverConfig(max_outer=150), x0=x0)
        rel = abs(sol.objective - ref.objective) / max(1.0, abs(ref.objective))
        assert rel <= 1e-6


def test_unit_step_tail_reports():
    from sepqn.solver import SolveTrace, TraceRow

    def row(i, t):
        return TraceRow(iteration=i, objective=1.0, step=t, gamma=-1.0,
                        inner_iterations=1, epochs=i, seconds=0.0, sigma=1.0,
                        beta=1.0, work=0.0, gap_estimate=0.0, dir_h_dir=0.0,
                        dual_shift=0.0, curvature_accepted=True,
                        inner_converged=True)

    clean = SolveTrace(rows=[row(i, 1.0) for i in range(8)])
    assert unit_step_tail(clean)
    dirty = SolveTrace(rows=[row(i, 1.0) for i in range(7)] + [row(7, 0.5)])
    assert not unit_step_tail(dirty)
    early_frac = SolveTrace(rows=[row(0, 0.25)] + [row(i, 1.0) for i in range(1, 8)])
    assert unit_step_tail(early_frac)
    assert not unit_step_tail(SolveTrace(rows=[]))


def test_epoch_accounting():
    # one pass per gradient plus one per probe: with unit steps throughout,
    # each iteration adds exactly two passes on top of the initial gradient
    prob = logistic_toy(seed=9, n=100, p=15)
    sol = solve(prob, SolverConfig(max_outer=40))
    rows = sol.trace.rows
    assert rows[0].epochs >= 3
    if unit_step_tail(sol.trace) and all(r.step == 1.0 for r in rows):
        assert rows[-1].epochs == 1 + 2 * len(rows)


@pytest.mark.parametrize("seed, backtracks", [(0, False), (9, True)])
def test_accepted_step_reuses_probe_margins(matvec_calls, seed, backtracks):
    # the gradient at the accepted point takes A x from the line search's
    # last probe, so each outer iteration saves one data product, whether
    # that probe was the unit step or a backtracked one
    prob = logistic_toy(seed=seed, n=100, p=15)
    sol = solve(prob, SolverConfig(max_outer=40))
    assert any(r.step < 1.0 for r in sol.trace.rows) == backtracks
    assert len(matvec_calls) == sol.trace.epochs - sol.trace.iterations


def test_non_finite_objective_raises():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = LeastSquaresLoss(a, np.array([1.0, -1.0]))
    prob = CompositeProblem(loss, (RegularizerTerm(NormKind.L1, 0.1, Identity(2)),))
    with pytest.raises(SolverError, match="not finite"):
        solve(prob, SolverConfig(), x0=np.array([np.nan, 0.0]))


def test_solution_carries_duals_for_warm_start():
    prob = logistic_toy(seed=10, n=80, p=12)
    sol = solve(prob, SolverConfig(max_outer=40))
    assert sol.duals is not None
    assert len(sol.duals.blocks) == prob.n_terms


def test_trace_records_sigma_beta_and_work():
    prob = logistic_toy(seed=11, n=80, p=12)
    sol = solve(prob, SolverConfig(max_outer=40))
    for r in sol.trace.rows:
        assert r.sigma > 0
        assert r.beta >= 1.0
        assert r.work > 0
        assert r.epochs > 0


def test_line_search_failure_triggers_tighter_retry(monkeypatch):
    # a failed line search must trigger exactly one retry of the inner solve
    # at a hundredfold tighter tolerance before the step is re-searched
    import sepqn.solver as solver_mod
    from sepqn.solver import line_search as real_line_search

    prob = logistic_toy(seed=12, n=80, p=10)
    state = {"searches": 0, "tols": []}
    real_continuation = solver_mod.continuation_solve

    def spying_continuation(*args, **kwargs):
        state["tols"].append(kwargs.get("tolerance"))
        return real_continuation(*args, **kwargs)

    def failing_once(problem, x_k, delta, gamma_k, f_value=None):
        state["searches"] += 1
        if state["searches"] == 1:
            raise LineSearchFailure(1e-13, gamma_k, f_value or 0.0, 40)
        return real_line_search(problem, x_k, delta, gamma_k, f_value=f_value)

    monkeypatch.setattr(solver_mod, "continuation_solve", spying_continuation)
    monkeypatch.setattr(solver_mod, "line_search", failing_once)
    sol = solve(prob, SolverConfig(max_outer=30))
    assert sol.trace.status == "converged"
    assert state["searches"] >= 2
    assert state["tols"][1] == pytest.approx(state["tols"][0] * 0.01)


def test_solve_fused_sparse_group_model():
    handle, _ = sepqn.synth_dataset(seed=13, n=400, p=48)
    lam = 2.0 / handle.n
    prob = make_builtin("fused-sparse-group-logistic", handle.matrix,
                        handle.labels, lam=lam, fused_weight=lam,
                        group_weight=lam, groups=6)
    assert prob.n_terms == 2 + 6
    sol = solve(prob, SolverConfig(max_outer=100))
    ref = sepqn.admm_solve(prob, sepqn.BaselineConfig(kind="admm",
                                                      tolerance=1e-9,
                                                      max_iterations=20000))
    rel = abs(sol.objective - ref.objective) / max(abs(ref.objective), 1e-30)
    assert rel <= 1e-6


def test_solve_multitask_model(rng):
    n, p, r = 120, 12, 3
    a = rng.standard_normal((n, p))
    labels = rng.integers(0, r, size=n).astype(float)
    prob = make_builtin("multitask-dirty-logistic", a, labels,
                        lam=0.02, group_weight=0.02)
    sol = solve(prob, SolverConfig(max_outer=100))
    assert sol.trace.status == "converged"
    ref = sepqn.admm_solve(prob, sepqn.BaselineConfig(kind="admm",
                                                      tolerance=1e-9,
                                                      max_iterations=30000))
    rel = abs(sol.objective - ref.objective) / max(abs(ref.objective), 1e-30)
    assert rel <= 1e-6


def test_solve_bitwise_deterministic():
    prob = logistic_toy(seed=14, n=120, p=20)
    a = solve(prob, SolverConfig(max_outer=60))
    b = solve(prob, SolverConfig(max_outer=60))
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective
    assert [r.objective for r in a.trace.rows] == [r.objective for r in b.trace.rows]
    assert [r.inner_iterations for r in a.trace.rows] == \
        [r.inner_iterations for r in b.trace.rows]
