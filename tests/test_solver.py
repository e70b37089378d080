import numpy as np
import pytest

import sepqn
from sepqn import scd
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
from sepqn.scd import solve_surrogate, step_delta_cap
from sepqn.solver import (
    ARMIJO,
    BACKTRACK_FACTOR,
    FORCING,
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


def test_one_continuation_round_by_default(monkeypatch):
    # the benchmark's tracer wraps solver.continuation_solve and counts each
    # result's rounds: the global is the dual loop itself, one round per call,
    # on the full loop and on working sets alike
    import sepqn.solver as solver_mod

    assert solver_mod.continuation_solve is scd.solve_surrogate
    real, results = solver_mod.continuation_solve, []

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(solver_mod, "continuation_solve", spy)
    solve(logistic_toy(seed=0, n=100, p=15), SolverConfig(max_outer=40))
    solve(logistic_toy(seed=0, n=100, p=15, lam=0.05), SolverConfig(max_outer=40))
    assert len(results) > 10
    assert all(r.rounds == ((r.gap_estimate, r.inner_iterations),) for r in results)


@pytest.mark.parametrize("setting", [
    {"max_inner": 0}, {"inner_tolerance": -1e-9}, {"inner_tolerance": float("nan")},
    {"lbfgs_memory": -1}, {"sigma0": float("nan")}, {"sigma0": float("inf")},
    {"sigma0": 0.0}, {"stall_iterations": 0}, {"max_outer": 0},
    {"outer_tolerance": -1.0}, {"outer_tolerance": float("nan")},
    {"max_outer": 2.5}, {"max_inner": 3.5}, {"lbfgs_memory": 2.5},
    {"stall_iterations": 1.5},
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
    inner = solve_surrogate(metric, x, grad, prob.terms, tolerance=1e-9,
                            max_inner=4000)
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
        line_search(prob, np.zeros(prob.dim), np.ones(prob.dim), 0.5,
                    f_value=prob.objective(np.zeros(prob.dim)))


def test_line_search_underflow_raises():
    # an ascent direction with a tiny claimed decrease forces underflow
    p = 4
    a = np.eye(p)
    loss = LeastSquaresLoss(a, np.zeros(p))
    prob = CompositeProblem(loss, (RegularizerTerm(NormKind.L1, 0.0, Identity(p)),))
    x = np.ones(p)
    _, grad = loss.value_grad(x)
    with pytest.raises(LineSearchFailure) as exc:
        line_search(prob, x, grad, -1e-18, f_value=prob.objective(x))
    assert exc.value.step < 1e-12
    assert exc.value.probes > 30


@pytest.mark.parametrize("bad_gamma", [-np.inf, np.nan])
def test_line_search_rejects_non_finite_gamma(bad_gamma):
    prob = logistic_toy(seed=1, n=50, p=10)
    with pytest.raises(SolverError, match="gamma is not finite"):
        line_search(prob, np.zeros(prob.dim), -np.ones(prob.dim), bad_gamma,
                    f_value=prob.objective(np.zeros(prob.dim)))


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
    inner = solve_surrogate(metric, x, grad, prob.terms, tolerance=1e-10,
                            max_inner=4000)
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
                        beta=1.0, gap_estimate=0.0, dir_h_dir=0.0,
                        curvature_accepted=True, inner_converged=True)

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
    # that probe was the unit step or a backtracked one; a seed scale far
    # below the loss's curvature makes the first unit step fail, and a fixed
    # metric at the loss's Lipschitz bound majorizes it, so every unit step
    # meets the Armijo test
    prob = logistic_toy(seed=seed, n=100, p=15)
    settings = ({"sigma0": 1e-3} if backtracks
                else {"lbfgs_memory": 0, "sigma0": prob.loss.lipschitz_bound()})
    matvec_calls.clear()   # the bound's power iteration is not the solve's
    sol = solve(prob, SolverConfig(max_outer=40, **settings))
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
    assert len(sol.duals) == prob.n_terms


def test_trace_records_sigma_beta_and_work(monkeypatch):
    # each row records the counts of the surrogate solves made for it, from
    # which the benchmark models the row's work
    calls = _row_solves(monkeypatch)
    prob = logistic_toy(seed=11, n=80, p=12)
    sol = solve(prob, SolverConfig(max_outer=40))
    for r in sol.trace.rows:
        assert r.sigma > 0
        assert r.beta >= 1.0
        assert r.surrogate_solves >= 1
        assert r.epochs > 0
    _assert_rows_count_every_solve(sol, calls)


@pytest.mark.parametrize("model, extra", [
    ("l1-logistic", {}), ("sparse-group-logistic", {"groups": 4}),
])
def test_gradients_are_taken_at_the_start_and_at_each_accepted_point(
        monkeypatch, model, extra):
    # one value_grad at the start point, then one per row, right after the
    # line-search probe that accepted the row's point; criterion 3 reads a
    # solve's iterates from these calls
    handle, _ = sepqn.synth_dataset(seed=7, n=120, p=20, sparsity=0.5)
    prob = make_builtin(model, handle.matrix, handle.labels, lam=0.02, **extra)
    loss = prob.loss
    calls = []
    for name in ("value", "value_grad"):
        def spy(x, _real=getattr(loss, name), _name=name):
            calls.append((_name, x.copy()))
            return _real(x)
        monkeypatch.setattr(loss, name, spy)
    x0 = np.full(prob.dim, 0.01)
    sol = solve(prob, SolverConfig(), x0=x0)
    grads = [i for i, (name, _) in enumerate(calls) if name == "value_grad"]
    assert sol.trace.iterations > 3
    assert len(grads) == 1 + sol.trace.iterations
    assert grads[0] == 0 and np.array_equal(calls[0][1], x0)
    for row, i in zip(sol.trace.rows, grads[1:]):
        name, x = calls[i - 1]
        assert name == "value" and np.array_equal(x, calls[i][1])
        assert prob.objective(x) == row.objective
    assert np.array_equal(calls[grads[-1]][1], sol.x)


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

    def failing_once(problem, x_k, delta, gamma_k, f_value):
        state["searches"] += 1
        if state["searches"] == 1:
            raise LineSearchFailure(1e-13, gamma_k, f_value, 40)
        return real_line_search(problem, x_k, delta, gamma_k, f_value=f_value)

    monkeypatch.setattr(solver_mod, "continuation_solve", spying_continuation)
    monkeypatch.setattr(solver_mod, "line_search", failing_once)
    sol = solve(prob, SolverConfig(max_outer=30))
    assert sol.trace.status == "converged"
    assert state["searches"] >= 2
    assert state["tols"][1] == pytest.approx(state["tols"][0] * 0.01)


def _spy_continuation(monkeypatch):
    """Record (step_delta handed in, cap of the metric at the call, result)
    for every continuation_solve call solve makes."""
    import sepqn.solver as solver_mod

    calls = []
    real = solver_mod.continuation_solve

    def spy(metric, x_k, grad_k, terms, **kwargs):
        cap = step_delta_cap(metric, terms)
        result = real(metric, x_k, grad_k, terms, **kwargs)
        calls.append((kwargs.get("step_delta"), cap, result))
        return result

    monkeypatch.setattr(solver_mod, "continuation_solve", spy)
    return calls


@pytest.mark.parametrize("model, families", [
    ("l1-logistic", {}),
    ("fused-sparse-logistic", {"fused_weight": None}),
    ("sparse-group-logistic", {"group_weight": None, "groups": 6}),
])
def test_dual_step_is_carried_capped_into_the_next_surrogate(monkeypatch, model,
                                                             families):
    # the first surrogate starts at initial_step_delta; every later one is
    # handed the step its predecessor ended with, unchanged, and the dual
    # loop caps it by the updated metric's step_delta_cap, which binds on
    # some carried steps and not on others
    calls = _spy_continuation(monkeypatch)
    handle, _ = sepqn.synth_dataset(seed=3, n=200, p=30, sparsity=0.5)
    lam = 2.0 / handle.n
    kw = {k: (lam if v is None else v) for k, v in families.items()}
    prob = make_builtin(model, handle.matrix, handle.labels, lam=lam, **kw)
    assert solve(prob, SolverConfig(max_outer=100)).trace.status == "converged"
    assert calls[0][0] is None
    capped = 0
    for (_, _, before), (step, cap, _) in zip(calls, calls[1:]):
        assert step == before.step_delta
        capped += cap < step
    assert 0 < capped < len(calls) - 1


def test_line_search_retry_keeps_the_carried_step(monkeypatch):
    # the tighter retry after a failed line search starts from the same
    # carried step as the solve it replaces
    import sepqn.solver as solver_mod
    from sepqn.solver import line_search as real_line_search

    calls = _spy_continuation(monkeypatch)
    searches = []

    def failing_second(problem, x_k, delta, gamma_k, f_value):
        searches.append(len(calls))
        if len(searches) == 2:
            raise LineSearchFailure(1e-13, gamma_k, f_value, 40)
        return real_line_search(problem, x_k, delta, gamma_k, f_value=f_value)

    monkeypatch.setattr(solver_mod, "line_search", failing_second)
    sol = solve(logistic_toy(seed=12, n=80, p=10), SolverConfig(max_outer=30))
    assert sol.trace.status == "converged"
    retry = searches[1]
    assert calls[retry - 1][0] is not None
    assert calls[retry][0] == calls[retry - 1][0]
    assert calls[retry][1] == calls[retry - 1][1]


def test_default_inner_tolerance_is_a_hundredth_of_the_outer():
    assert SolverConfig().resolved_inner_tolerance() == 1e-10
    assert SolverConfig(outer_tolerance=1e-6).resolved_inner_tolerance() == 1e-8
    assert SolverConfig(outer_tolerance=1e-14).resolved_inner_tolerance() == 1e-10
    explicit = SolverConfig(inner_tolerance=3e-9)
    assert explicit.resolved_inner_tolerance() == 3e-9
    assert SolverConfig(inner_tolerance=0.0).resolved_inner_tolerance() == 0.0


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


def _spy_tolerances(monkeypatch):
    """Record (tolerance, x handed in) for every continuation_solve call."""
    import sepqn.solver as solver_mod

    calls = []
    real = solver_mod.continuation_solve

    def spy(metric, x_k, grad_k, terms, **kwargs):
        calls.append((kwargs["tolerance"], x_k))
        return real(metric, x_k, grad_k, terms, **kwargs)

    monkeypatch.setattr(solver_mod, "continuation_solve", spy)
    return calls


def test_default_inner_tolerance_follows_the_forcing_rule(monkeypatch):
    # surrogate 1 at the floor, surrogate k at max(eps, eta_k |gamma_{k-1}|)
    # with eta_k = min(FORCING, |gamma_{k-1}| / max(1, |f_k|)); the surrogate
    # the solve stops on is solved at the floor
    calls = _spy_tolerances(monkeypatch)
    cfg = SolverConfig(max_outer=100)
    eps = cfg.resolved_inner_tolerance()
    sol = solve(logistic_toy(seed=0, n=200, p=50), cfg)
    rows = sol.trace.rows
    assert sol.trace.stop_reason in ("gamma", "stall")
    assert rows[0].inner_tolerance == eps
    for before, row in zip(rows, rows[1:]):
        eta = min(FORCING, abs(before.gamma) / max(1.0, abs(before.objective)))
        assert row.inner_tolerance == max(eps, eta * abs(before.gamma))
    assert max(r.inner_tolerance for r in rows) > 1e3 * eps
    assert calls[-1][0] == eps
    assert [tol for tol, _ in calls[:len(rows)]] == [r.inner_tolerance for r in rows]


def test_loose_gamma_stop_is_resolved_at_the_floor(monkeypatch):
    # on this l1 toy the gamma test fires on the loose third surrogate; the
    # guard re-solves it at the floor from the same point, the solve goes on,
    # and it ends where a solve at a fixed 1e-10 does
    calls = _spy_tolerances(monkeypatch)
    prob = logistic_toy(seed=6, n=100, p=20)
    cfg = SolverConfig(max_outer=100)
    eps = cfg.resolved_inner_tolerance()
    sol = solve(prob, cfg)
    resolved = [i for i in range(1, len(calls)) if calls[i][1] is calls[i - 1][1]]
    assert resolved == [3]
    assert calls[2][0] > eps and calls[3][0] == eps
    assert sol.trace.rows[2].inner_tolerance == eps
    assert sol.trace.iterations > 3
    assert calls[-1][0] == eps
    fixed = solve(prob, SolverConfig(max_outer=100, inner_tolerance=1e-10))
    assert abs(sol.objective - fixed.objective) <= 1e-9 * abs(fixed.objective)
    assert sol.trace.rows[2].objective - fixed.objective > 1e-6


def _row_solves(monkeypatch):
    """Record (x handed in, result) for every continuation_solve call."""
    import sepqn.solver as solver_mod

    calls = []
    real = solver_mod.continuation_solve

    def spy(metric, x_k, grad_k, terms, **kwargs):
        result = real(metric, x_k, grad_k, terms, **kwargs)
        calls.append((x_k, result))
        return result

    monkeypatch.setattr(solver_mod, "continuation_solve", spy)
    return calls


def _assert_rows_count_every_solve(sol, calls):
    # the calls made from one point belong to one row, but those of a
    # gamma or retry stop, which makes none; a row counts them and sums
    # their inner iterations, backtracks and failed stop checks
    points = [x for i, (x, _) in enumerate(calls)
              if i == 0 or x is not calls[i - 1][0]]
    stopped = sol.trace.stop_reason in ("gamma", "retry")
    assert len(points) == len(sol.trace.rows) + stopped
    for row, x in zip(sol.trace.rows, points):
        mine = [r for y, r in calls if y is x]
        assert row.surrogate_solves == len(mine)
        assert row.inner_iterations == sum(r.inner_iterations for r in mine)
        assert row.dual_backtracks == sum(r.backtracks for r in mine)
        assert row.failed_checks == sum(r.failed_checks for r in mine)
        assert row.gap_estimate == mine[-1].gap_estimate


def test_a_resolved_row_counts_the_loose_solve(monkeypatch):
    # the guard toy's third surrogate is solved at its loose tolerance and
    # again at the floor; its row counts both solves
    tolerances = _spy_tolerances(monkeypatch)
    calls = _row_solves(monkeypatch)
    prob = logistic_toy(seed=6, n=100, p=20)
    cfg = SolverConfig(max_outer=100)
    sol = solve(prob, cfg)
    eps = cfg.resolved_inner_tolerance()
    loose, floor = [i for i, c in enumerate(calls) if c[0] is calls[2][0]]
    assert tolerances[loose][0] > eps
    assert tolerances[floor][0] == eps
    assert sol.trace.rows[2].inner_iterations == (
        calls[loose][1].inner_iterations + calls[floor][1].inner_iterations)
    assert sol.trace.rows[2].surrogate_solves == 2
    _assert_rows_count_every_solve(sol, calls)


def test_a_retried_row_counts_the_failed_solve(monkeypatch):
    import sepqn.solver as solver_mod
    from sepqn.solver import line_search as real_line_search

    searches = []

    def failing_once(problem, x_k, delta, gamma_k, f_value):
        searches.append(1)
        if len(searches) == 1:
            raise LineSearchFailure(1e-13, gamma_k, f_value, 40)
        return real_line_search(problem, x_k, delta, gamma_k, f_value=f_value)

    calls = _row_solves(monkeypatch)
    monkeypatch.setattr(solver_mod, "line_search", failing_once)
    prob = logistic_toy(seed=12, n=80, p=10)
    sol = solve(prob, SolverConfig(max_outer=30))
    assert calls[0][0] is calls[1][0]
    assert sol.trace.rows[0].inner_iterations == (
        calls[0][1].inner_iterations + calls[1][1].inner_iterations)
    assert sol.trace.rows[0].surrogate_solves == 2
    _assert_rows_count_every_solve(sol, calls)


def _spy_loss_evaluations(monkeypatch):
    """The points of every LogisticLoss.value and value_grad call, in order."""
    evaluations = []
    for name in ("value", "value_grad"):
        def spy(loss, x, _real=getattr(LogisticLoss, name)):
            evaluations.append(x)
            return _real(loss, x)
        monkeypatch.setattr(LogisticLoss, name, spy)
    return evaluations


def test_a_failed_line_search_counts_its_probes_in_epochs(monkeypatch):
    # a first search run at gamma * 1e30 backtracks until it fails; its
    # probes are loss evaluations like any other, so the value and value_grad
    # calls add up to the trace's epochs, the identity the benchmark's traced
    # pass reconciles
    import sepqn.solver as solver_mod
    from sepqn.solver import line_search as real_line_search

    searches, evaluations = [], _spy_loss_evaluations(monkeypatch)

    def inflated_once(problem, x_k, delta, gamma_k, f_value):
        searches.append(gamma_k)
        scale = 1e30 if len(searches) == 1 else 1.0
        return real_line_search(problem, x_k, delta, scale * gamma_k, f_value=f_value)

    monkeypatch.setattr(solver_mod, "line_search", inflated_once)
    sol = solve(logistic_toy(seed=12, n=80, p=10), SolverConfig(max_outer=1))
    assert len(searches) == 2 and sol.trace.iterations == 1
    assert len(evaluations) == sol.trace.epochs > 40


@pytest.mark.parametrize("stop", ["gamma", "retry"])
def test_trace_epochs_count_a_solve_that_stops_before_its_first_row(monkeypatch, stop):
    # a solve can stop before it appends a row: at its first surrogate, when
    # the penalty pins x at 0, or by the retry after a failed search; its
    # epochs are still every loss evaluation it made, the identity the
    # benchmark's traced pass reconciles
    import sepqn.solver as solver_mod
    from sepqn.solver import line_search as real_line_search

    evaluations, searches = _spy_loss_evaluations(monkeypatch), []
    if stop == "gamma":
        sol = solve(logistic_toy(seed=12, n=80, p=10, lam=10.0), SolverConfig())
    else:
        # the first search runs at gamma * 1e30 and fails; the retry's
        # surrogate then reads gamma = 0, so the solve stops without a row
        def inflated(problem, x_k, delta, gamma_k, f_value):
            searches.append(gamma_k)
            return real_line_search(problem, x_k, delta, 1e30 * gamma_k, f_value=f_value)

        def zero_after_search(problem, x_k, delta, grad_k, _real=solver_mod.gamma):
            return 0.0 if searches else _real(problem, x_k, delta, grad_k)

        monkeypatch.setattr(solver_mod, "line_search", inflated)
        monkeypatch.setattr(solver_mod, "gamma", zero_after_search)
        sol = solve(logistic_toy(seed=12, n=80, p=10), SolverConfig(max_outer=5))
    assert sol.trace.stop_reason == stop and sol.trace.iterations == 0
    assert len(evaluations) == sol.trace.epochs


@pytest.mark.parametrize("model, seed", [
    ("fused-sparse-group-logistic", 0),
    ("fused-sparse-logistic", 3),
])
def test_fused_default_solves_certify_every_surrogate(model, seed):
    # at the 1e-10 floor, where a step test on -D values stalls the dual loop
    # of these fused solves, every surrogate certifies its gap, and quickly
    handle, _ = sepqn.synth_dataset(seed=seed, n=300, p=30, sparsity=0.5)
    prob = make_builtin(model, handle.matrix, handle.labels, lam=0.01, groups=10)
    rows = solve(prob, SolverConfig()).trace.rows
    assert all(r.inner_converged for r in rows)
    assert sum(r.inner_iterations for r in rows) < 1000


def test_stall_on_a_loose_surrogate_is_checked_at_the_floor():
    # with one stall iteration and a loose outer tolerance, the third step
    # stalls on a loose surrogate; the next is solved at the floor, and only
    # its stall stops the solve
    cfg = SolverConfig(max_outer=100, outer_tolerance=1e-2, stall_iterations=1)
    eps = cfg.resolved_inner_tolerance()
    sol = solve(logistic_toy(seed=0, n=100, p=20), cfg)
    tols = [r.inner_tolerance for r in sol.trace.rows]
    assert len(tols) == 4 and tols[2] > eps
    assert tols[3] == eps
    assert sol.trace.stop_reason == "stall"


@pytest.mark.parametrize("tolerance", [3e-9, 1e-12])
def test_explicit_inner_tolerance_holds_on_every_row(monkeypatch, tolerance):
    calls = _spy_tolerances(monkeypatch)
    sol = solve(logistic_toy(seed=0, n=200, p=50),
                SolverConfig(max_outer=100, inner_tolerance=tolerance))
    assert sol.trace.iterations > 3
    assert all(r.inner_tolerance == tolerance for r in sol.trace.rows)
    assert all(tol == tolerance for tol, _ in calls)


def test_stop_reason_names_the_exit(monkeypatch):
    import dataclasses

    import sepqn.solver as solver_mod

    prob = logistic_toy(seed=0, n=200, p=50)
    capped = solve(prob, SolverConfig(max_outer=2))
    assert (capped.trace.status, capped.trace.stop_reason) == ("max_outer", "max_outer")
    huge = solve(logistic_toy(seed=2, n=80, p=15, lam=10.0), SolverConfig())
    assert (huge.trace.status, huge.trace.stop_reason) == ("converged", "gamma")
    stalled = solve(prob, SolverConfig(outer_tolerance=1e-2, stall_iterations=1))
    assert (stalled.trace.status, stalled.trace.stop_reason) == ("converged", "stall")

    # a line search that fails, and a tighter retry that finds no decrease
    real = solver_mod.continuation_solve

    def null_retry(*args, **kwargs):
        result = real(*args, **kwargs)
        if kwargs["tolerance"] < SolverConfig().resolved_inner_tolerance():
            result = dataclasses.replace(result, direction=0.0 * result.direction)
        return result

    def failing(problem, x_k, delta, gamma_k, f_value):
        raise LineSearchFailure(1e-13, gamma_k, f_value, 40)

    monkeypatch.setattr(solver_mod, "continuation_solve", null_retry)
    monkeypatch.setattr(solver_mod, "line_search", failing)
    retried = solve(prob, SolverConfig())
    assert (retried.trace.status, retried.trace.stop_reason) == ("converged", "retry")
    assert retried.trace.iterations == 0


def _sparse_toy(seed):
    # supports of 41 of 100 and 7 of 40 coordinates, below half
    n, p, lam = {4: (400, 100, 0.02), 5: (200, 40, 0.03)}[seed]
    handle, _ = sepqn.synth_dataset(seed=seed, n=n, p=p, sparsity=0.5)
    return make_builtin("l1-logistic", handle.matrix, handle.labels, lam=lam)


def _spy_working_sets(monkeypatch):
    """Record (x, J, result) for every working-set surrogate, J being the
    set its last restricted round was solved over."""
    import sepqn.solver as solver_mod

    sets, solved = [], []
    real_view, real_solve = LbfgsMetric.restricted, solver_mod._working_set_surrogate

    def view(metric, idx):
        sets.append(np.array(idx))
        return real_view(metric, idx)

    def working_set(metric, x, *args):
        out = real_solve(metric, x, *args)
        if out is not None:
            solved.append((x, sets[-1], out))
            assert out.working_set == sets[-1].size
        return out

    monkeypatch.setattr(LbfgsMetric, "restricted", view)
    monkeypatch.setattr(solver_mod, "_working_set_surrogate", working_set)
    return solved


@pytest.mark.parametrize("seed", [4, 5])
def test_working_set_solve_agrees_with_fista_and_pins_zeros(monkeypatch, seed):
    # supports below half: the default solve runs working sets, ends where
    # FISTA does, and each direction leaves x + d exactly 0 off its set
    solved = _spy_working_sets(monkeypatch)
    prob = _sparse_toy(seed)
    sol = solve(prob, SolverConfig(max_outer=200))
    ref = sepqn.fista_solve(prob, sepqn.BaselineConfig(tolerance=1e-12,
                                                       max_iterations=60000))
    assert abs(sol.objective - ref.objective) <= 1e-9 * abs(ref.objective)
    assert len(solved) >= sol.trace.iterations - 2
    for x, idx, inner in solved:
        off = np.ones(prob.dim, dtype=bool)
        off[idx] = False
        assert np.all((x + inner.direction)[off] == 0.0)
        assert inner.duals[0].shape == (prob.dim,)
    rows = sol.trace.rows
    assert [r.working_set for r in rows][-1] == solved[-1][1].size < prob.dim / 2
    assert np.count_nonzero(sol.x) == np.count_nonzero(ref.x)


@pytest.mark.parametrize("seed", [4, 5])
def test_working_set_rows_certify_their_full_gap(seed):
    # a converged restricted row's gap is the full surrogate's, within its
    # tolerance and never negative
    prob = _sparse_toy(seed)
    rows = solve(prob, SolverConfig(max_outer=200)).trace.rows
    restricted = [r for r in rows if r.working_set < prob.dim]
    assert restricted and all(r.inner_converged for r in restricted)
    for r in restricted:
        assert 0.0 <= r.gap_estimate <= r.inner_tolerance


def test_a_coordinate_missed_by_the_working_set_joins_by_the_kkt_check(monkeypatch):
    # H = I + s s' with s = e_0 - e_1 couples coordinates 0 and 1: the first
    # set is {0}, and the step on 0 pushes q_1 = 0.9 + 1 past the weight, so
    # coordinate 1 joins and a second restricted solve runs from the same x
    import sepqn.solver as solver_mod

    calls = []
    real = solver_mod.continuation_solve

    def spy(metric, x_k, grad_k, terms, **kwargs):
        calls.append((metric.dim, x_k, grad_k))
        return real(metric, x_k, grad_k, terms, **kwargs)

    monkeypatch.setattr(solver_mod, "continuation_solve", spy)
    p = 6
    metric = LbfgsMetric(p, capacity=2, sigma=1.0)
    s = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    metric.push_pair(s, 3.0 * s)
    x = np.zeros(p)
    grad = np.array([3.0, 0.9, 0.0, 0.1, 0.2, -0.3])
    terms = (RegularizerTerm(NormKind.L1, 1.0, Identity(p)),)
    inner = solver_mod._working_set_surrogate(
        metric, x, grad, terms[0], None, 1e-12, 2000, None)
    assert [dim for dim, _, _ in calls] == [1, 2] and inner.working_set == 2
    assert np.array_equal(inner.h_direction, metric.apply(inner.direction))
    assert np.array_equal(calls[0][1], x[[0]]) and np.array_equal(calls[1][1], x[:2])
    assert inner.converged and 0.0 <= inner.gap_estimate <= 1e-12
    assert np.all(inner.direction[2:] == 0.0)
    full = scd.solve_surrogate(metric, x, grad, terms, tolerance=1e-14)
    assert np.abs(inner.direction - full.direction).max() <= 1e-10


def test_dense_support_keeps_the_full_loop(monkeypatch):
    # 40 of 50 coordinates nonzero: no working set holds half, so every
    # surrogate runs over all p coordinates
    calls = _spy_tolerances(monkeypatch)
    dims = []
    import sepqn.solver as solver_mod

    spied = solver_mod.continuation_solve

    def record(metric, *args, **kwargs):
        dims.append(metric.dim)
        return spied(metric, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "continuation_solve", record)
    prob = logistic_toy(seed=0, n=200, p=50)
    sol = solve(prob, SolverConfig(max_outer=100))
    assert len(dims) == len(calls) >= sol.trace.iterations
    assert set(dims) == {prob.dim}
    assert all(r.working_set == prob.dim for r in sol.trace.rows)


def test_a_working_set_row_charges_its_restricted_solves(monkeypatch):
    # a working-set surrogate counts as one solve whose inner iterations,
    # backtracks and failed stop checks sum its restricted rounds'; a row
    # counts its solves, full or restricted
    import sepqn.solver as solver_mod

    solves, rounds, inside = [], [], []   # (x, result) per solve; result per round
    real_solve, real_ws = solver_mod.continuation_solve, solver_mod._working_set_surrogate

    def spy(metric, x_k, grad_k, terms, **kwargs):
        result = real_solve(metric, x_k, grad_k, terms, **kwargs)
        (rounds.append(result) if inside else solves.append((x_k, result)))
        return result

    def working_set(metric, x, grad, term, *args):
        start = len(rounds)
        inside.append(1)
        try:
            out = real_ws(metric, x, grad, term, *args)
        finally:
            inside.pop()
        if out is not None:
            mine = rounds[start:]
            assert mine and out.working_set == mine[-1].working_set
            for name in ("inner_iterations", "backtracks", "failed_checks"):
                assert getattr(out, name) == sum(getattr(r, name) for r in mine)
            solves.append((x, out))
        return out

    monkeypatch.setattr(solver_mod, "continuation_solve", spy)
    monkeypatch.setattr(solver_mod, "_working_set_surrogate", working_set)
    prob = _sparse_toy(4)
    sol = solve(prob, SolverConfig(max_outer=200))
    assert any(r.working_set < prob.dim for r in sol.trace.rows)
    _assert_rows_count_every_solve(sol, solves)


@pytest.mark.parametrize("seed", [4, 5])
def test_a_working_set_row_reuses_its_kkt_product_for_dir_h_dir(monkeypatch, seed):
    # the last KKT check's H d is the product a fresh apply gives: a
    # restricted row's dir_h_dir is bitwise d' H d, with no apply of its own
    import sepqn.solver as solver_mod

    calls, real = [], solver_mod._working_set_surrogate

    def working_set(metric, x, *args):
        out = real(metric, x, *args)
        d = None if out is None else out.direction
        calls.append((x, None if d is None else float(d @ metric.apply(d))))
        return out

    monkeypatch.setattr(solver_mod, "_working_set_surrogate", working_set)
    sol = solve(_sparse_toy(seed), SolverConfig(max_outer=200))
    points = [x for i, (x, _) in enumerate(calls) if i == 0 or x is not calls[i - 1][0]]
    checked = 0
    for row, x in zip(sol.trace.rows, points):
        last = [want for y, want in calls if y is x][-1]
        if last is not None:
            assert row.dir_h_dir == last
            checked += 1
    assert checked >= sol.trace.iterations - 2


def test_a_working_set_row_never_computes_the_full_spectrum(monkeypatch):
    # the step cap is closed form, so a default solve asks for a spectrum
    # only in the first surrogate's initial_step_delta, at zero pairs, where
    # it is 1 / sigma with no eigensolve: not on the working-set toy, whose
    # rows are restricted, nor on the full loop of a fused and a sparse-group
    # toy
    import sepqn.solver as solver_mod

    rows = [[]]   # per metric state: the sizes solved over
    computed = []   # the pair count at each inv_spectrum call
    real_spectrum, real_update = LbfgsMetric.inv_spectrum, LbfgsMetric.update
    real_solve = solver_mod.continuation_solve

    def spectrum(metric):
        computed.append(metric.pair_count)
        return real_spectrum(metric)

    def update(metric, *args):
        rows.append([])
        return real_update(metric, *args)

    def record(metric, *args, **kwargs):
        rows[-1].append(metric.dim)
        return real_solve(metric, *args, **kwargs)

    monkeypatch.setattr(LbfgsMetric, "inv_spectrum", spectrum)
    monkeypatch.setattr(LbfgsMetric, "update", update)
    monkeypatch.setattr(solver_mod, "continuation_solve", record)
    prob = _sparse_toy(4)
    sol = solve(prob, SolverConfig(max_outer=200))
    restricted = [r for r in rows if r and prob.dim not in r]
    assert len(restricted) >= sol.trace.iterations - 2
    assert computed == [0]

    handle, _ = sepqn.synth_dataset(seed=3, n=200, p=30, sparsity=0.5)
    lam = 2.0 / handle.n
    for model, kw in (("fused-sparse-logistic", {"fused_weight": lam}),
                      ("sparse-group-logistic", {"group_weight": lam, "groups": 6})):
        prob = make_builtin(model, handle.matrix, handle.labels, lam=lam, **kw)
        rows[:], computed[:] = [[]], []
        sol = solve(prob, SolverConfig(max_outer=100))
        assert sol.trace.status == "converged"
        assert sum(r.curvature_accepted for r in sol.trace.rows) > 1
        assert all(size == prob.dim for r in rows for size in r)
        assert computed == [0]


def test_solution_duals_are_the_last_surrogates(monkeypatch):
    # a gamma stop returns the duals of the surrogate that certified it, and
    # a solve started at its own optimum returns its one surrogate's duals
    import sepqn.solver as solver_mod

    results, real = [], solver_mod.continuation_solve

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(solver_mod, "continuation_solve", spy)
    handle, _ = sepqn.synth_dataset(seed=3, n=200, p=30, sparsity=0.5)
    prob = make_builtin("fused-sparse-logistic", handle.matrix, handle.labels,
                        lam=0.01)
    sol = solve(prob, SolverConfig(max_outer=100))
    assert sol.trace.stop_reason == "gamma"
    assert sol.duals is results[-1].duals
    results.clear()
    again = solve(prob, SolverConfig(max_outer=100), x0=sol.x)
    assert (again.trace.iterations, again.trace.stop_reason) == (0, "gamma")
    assert len(results) == 1 and again.duals is results[0].duals
    assert len(again.duals) == prob.n_terms


class _KernelsOnly(sepqn.LinearOperator):
    """A map given by its dims and its two kernels alone."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.output_dim, self.input_dim = matrix.shape

    def _apply(self, x):
        return self.matrix @ x

    def _apply_transpose(self, u):
        return self.matrix.T @ u


@pytest.mark.parametrize("solver", [solve, sepqn.scd_direct_solve, sepqn.admm_solve])
def test_an_operator_with_only_its_kernels_solves(solver):
    # dims, _apply and _apply_transpose are all a term's map must supply to
    # any solver: it converges where the same map as an ExplicitSparse does
    handle, _ = sepqn.synth_dataset(seed=2, n=120, p=15, sparsity=0.5)
    w = np.random.default_rng(2).standard_normal((8, 15))
    loss = LogisticLoss(handle.matrix, handle.labels)

    def problem(op):
        return CompositeProblem(loss, (RegularizerTerm(NormKind.L1, 0.02, Identity(15)),
                                       RegularizerTerm(NormKind.L2, 0.01, op)))

    sols = [solver(problem(op)) for op in (_KernelsOnly(w), sepqn.ExplicitSparse(w))]
    assert [s.trace.status for s in sols] == ["converged", "converged"]
    assert abs(sols[0].objective - sols[1].objective) <= 1e-9 * abs(sols[1].objective)
    assert np.abs(sols[0].x - sols[1].x).max() <= 1e-9
