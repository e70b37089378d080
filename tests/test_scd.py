import warnings

import numpy as np
import pytest

import sepqn
from sepqn import scd
from sepqn.lbfgs import LbfgsMetric
from sepqn.operators import ExplicitSparse, FirstDifference, GroupSelector, Identity
from sepqn.problems import NormKind, RegularizerTerm, make_builtin
from sepqn.projections import KERNELS, projection_cost
from sepqn.scd import (
    dual_objective,
    initial_step_delta,
    recover_primal,
    solve_surrogate,
)


def l1_terms(p, lam):
    return (RegularizerTerm(NormKind.L1, lam, Identity(p)),)


def soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def metric_with_pairs(rng, p, sigma, count):
    m = LbfgsMetric(p, capacity=max(count, 1), sigma=sigma)
    made = 0
    while made < count:
        s = rng.standard_normal(p)
        y = s + 0.4 * rng.standard_normal(p)
        if m.push_pair(s, y):
            made += 1
    return m


def test_recover_primal_stationary_without_forces():
    p = 4
    metric = LbfgsMetric(p, sigma=2.0)
    x = np.arange(1.0, 5.0)
    out = recover_primal(metric, x, np.zeros(p), l1_terms(p, 0.5),
                         [np.zeros(p)])
    assert np.allclose(out, x)


def test_recover_primal_identity_metric_substitution(rng):
    p = 5
    metric = LbfgsMetric(p, sigma=1.0)
    grad = rng.standard_normal(p)
    z = rng.standard_normal(p) * 0.1
    out = recover_primal(metric, np.zeros(p), grad, l1_terms(p, 1.0), [z])
    assert np.allclose(out, z - grad)


def test_recover_primal_minimizes_reduced_lagrangian(rng):
    p = 7
    metric = metric_with_pairs(rng, p, 1.4, 3)
    x = rng.standard_normal(p)
    grad = rng.standard_normal(p)
    terms = (RegularizerTerm(NormKind.L1, 0.3, Identity(p)),
             RegularizerTerm(NormKind.L1, 0.2, FirstDifference(p)))
    zs = [rng.uniform(-0.3, 0.3, t.op.output_dim) for t in terms]
    xhat = recover_primal(metric, x, grad, terms, zs)
    pull = grad - sum(t.op.apply_transpose(z) for t, z in zip(terms, zs))
    resid = metric.apply(xhat - x) + pull
    assert np.linalg.norm(resid) <= 1e-9


def test_dual_objective_at_zero_duals(rng):
    p = 6
    metric = metric_with_pairs(rng, p, 2.0, 2)
    x = rng.standard_normal(p)
    grad = rng.standard_normal(p)
    g_val = 1.23
    got = dual_objective(metric, x, grad, l1_terms(p, 0.4), [np.zeros(p)]) - g_val
    want = -(g_val - 0.5 * float(grad @ metric.inv_apply(grad)))
    assert got == pytest.approx(want, rel=1e-12)


def test_dual_objective_gradient_matches_finite_differences(rng):
    p = 5
    metric = metric_with_pairs(rng, p, 1.2, 2)
    x = rng.standard_normal(p)
    grad = rng.standard_normal(p)
    terms = (RegularizerTerm(NormKind.L1, 0.5, Identity(p)),
             RegularizerTerm(NormKind.L2, 0.3, FirstDifference(p),
                             offset=rng.standard_normal(p - 1) * 0.1))
    sizes = [t.op.output_dim for t in terms]
    z0 = [rng.uniform(-0.2, 0.2, q) for q in sizes]

    def value(flat):
        zs = np.split(flat, np.cumsum(sizes)[:-1])
        return dual_objective(metric, x, grad, terms, list(zs))

    flat0 = np.concatenate(z0)
    # analytic gradient: stacked images of the recovered primal
    xhat = recover_primal(metric, x, grad, terms, z0)
    analytic = np.concatenate([t.op.apply(xhat) + t.offset for t in terms])
    h = 1e-6
    for j in range(flat0.size):
        e = np.zeros_like(flat0)
        e[j] = h
        fd = (value(flat0 + e) - value(flat0 - e)) / (2 * h)
        assert abs(fd - analytic[j]) <= 1e-6 * max(1.0, abs(analytic[j]))


def test_dual_objective_midpoint_convex(rng):
    p = 5
    metric = metric_with_pairs(rng, p, 1.0, 2)
    x = rng.standard_normal(p)
    grad = rng.standard_normal(p)
    terms = l1_terms(p, 0.5)
    for _ in range(50):
        za = [rng.uniform(-0.5, 0.5, p)]
        zb = [rng.uniform(-0.5, 0.5, p)]
        mid = [0.5 * (za[0] + zb[0])]
        f_mid = dual_objective(metric, x, grad, terms, mid)
        f_avg = 0.5 * (dual_objective(metric, x, grad, terms, za)
                       + dual_objective(metric, x, grad, terms, zb))
        assert f_mid <= f_avg + 1e-10


def test_initial_step_delta_identity_cases(rng):
    p = 4
    terms = l1_terms(p, 1.0)
    assert initial_step_delta(LbfgsMetric(p, sigma=1.0), terms) == pytest.approx(
        1.0, rel=1e-9
    )
    assert initial_step_delta(LbfgsMetric(p, sigma=4.0), terms) == pytest.approx(
        4.0, rel=1e-9
    )


def test_surrogate_matches_soft_threshold_oracle(rng):
    for trial in range(10):
        p = int(rng.integers(3, 30))
        lam = 0.1 + rng.random()
        sigma = 0.5 + 2 * rng.random()
        metric = LbfgsMetric(p, capacity=0, sigma=sigma)
        x = rng.standard_normal(p)
        grad = rng.standard_normal(p)
        res = solve_surrogate(metric, x, grad, l1_terms(p, lam),
                              tolerance=1e-10, max_inner=8000)
        want = soft_threshold(x - grad / sigma, lam / sigma) - x
        assert res.converged
        assert np.linalg.norm(res.direction - want) <= 1e-8


def test_surrogate_zero_weight_gives_quasi_newton_step(rng):
    p = 6
    metric = metric_with_pairs(rng, p, 1.5, 3)
    x = rng.standard_normal(p)
    grad = rng.standard_normal(p)
    terms = (RegularizerTerm(NormKind.L1, 0.0, Identity(p)),)
    res = solve_surrogate(metric, x, grad, terms, tolerance=1e-12, max_inner=50)
    assert np.allclose(res.direction, -metric.inv_apply(grad), atol=1e-10)


def test_surrogate_no_terms_is_newton_step(rng):
    p = 5
    metric = metric_with_pairs(rng, p, 2.0, 2)
    x = rng.standard_normal(p)
    grad = rng.standard_normal(p)
    res = solve_surrogate(metric, x, grad, (), tolerance=1e-12)
    assert res.converged and res.gap_estimate == 0.0
    assert np.allclose(res.direction, -metric.inv_apply(grad), atol=1e-12)


def test_surrogate_fused_toy_matches_dual_grid_oracle(rng):
    # single difference penalty over p = 3: the dual box is 2-dimensional,
    # so brute-force grid search over it is an independent oracle
    p = 3
    sigma = 1.3
    lam = 0.4
    metric = LbfgsMetric(p, capacity=0, sigma=sigma)
    x = np.array([0.6, -0.2, 0.9])
    grad = np.array([0.3, -0.8, 0.5])
    term = RegularizerTerm(NormKind.L1, lam, FirstDifference(p))

    w_t = term.op.to_sparse().toarray().T  # p x 2

    def grid_search(center, half_width):
        ga = np.clip(center[0] + np.linspace(-half_width, half_width, 241),
                     -lam, lam)
        gb = np.clip(center[1] + np.linspace(-half_width, half_width, 241),
                     -lam, lam)
        za, zb = np.meshgrid(ga, gb, indexing="ij")
        flat = np.stack([za.ravel(), zb.ravel()])      # 2 x G
        xhat = x[:, None] - (grad[:, None] - w_t @ flat) / sigma
        d = xhat - x[:, None]
        model = (grad @ d) + 0.5 * sigma * np.sum(d * d, axis=0)
        prim = model + lam * np.abs(np.diff(xhat, axis=0)).sum(axis=0)
        best = int(np.argmin(prim))
        return flat[:, best]

    z_best = np.zeros(2)
    width = lam
    for _ in range(4):  # refine the exhaustive search to ~1e-7 spacing
        z_best = grid_search(z_best, width)
        width /= 60.0
    oracle_dir = -(grad - w_t @ z_best) / sigma

    res = solve_surrogate(metric, x, grad, (term,), tolerance=1e-12,
                          max_inner=20000)
    assert np.linalg.norm(res.direction - oracle_dir) <= 1e-4
    assert res.momentum_resets > 0


def test_theta_sequence_bound():
    theta = 1.0
    for j in range(2000):
        assert theta <= 2.0 / (j + 2) + 1e-15
        theta = scd._next_theta(theta)


def test_duals_feasible_throughout(rng):
    p = 8
    metric = metric_with_pairs(rng, p, 1.0, 3)
    x = rng.standard_normal(p)
    grad = rng.standard_normal(p)
    terms = (RegularizerTerm(NormKind.L1, 0.2, Identity(p)),
             RegularizerTerm(NormKind.L2, 0.3, FirstDifference(p)),
             RegularizerTerm(NormKind.LINF, 0.25, Identity(p)))
    for cap in (1, 3, 10, 50):
        res = solve_surrogate(metric, x, grad, terms, tolerance=0.0,
                              max_inner=cap)
        for t, v in zip(terms, res.duals):
            assert KERNELS[t.kind].dual_norm(v) <= t.weight + 1e-12


def test_descent_bound_against_metric_curvature(rng):
    # gamma <= -d'Hd + gap for directions from an approximately solved model
    p = 10
    metric = metric_with_pairs(rng, p, 1.0, 4)
    x = rng.standard_normal(p)
    grad = rng.standard_normal(p)
    lam = 0.2
    terms = l1_terms(p, lam)
    res = solve_surrogate(metric, x, grad, terms, tolerance=1e-9,
                          max_inner=8000)
    d = res.direction
    psi_new = terms[0].value(x + d)
    psi_old = terms[0].value(x)
    gam = float(grad @ d) + psi_new - psi_old
    dhd = float(d @ metric.apply(d))
    assert gam <= -dhd + res.gap_estimate + 1e-12


def test_gap_estimate_nonnegative(rng):
    p = 5
    metric = metric_with_pairs(rng, p, 1.0, 2)
    for _ in range(10):
        x = rng.standard_normal(p)
        grad = rng.standard_normal(p)
        res = solve_surrogate(metric, x, grad, l1_terms(p, 0.3),
                              tolerance=0.0, max_inner=7)
        assert res.gap_estimate >= -1e-10


def test_momentum_restart_keeps_sparse_group_surrogate_short():
    # without the restart this surrogate is still short of 1e-10 after 2000
    # inner iterations; with it, it converges in 46
    handle, _ = sepqn.synth_dataset(seed=0, n=200, p=40)
    prob = make_builtin("sparse-group-logistic", handle.matrix, handle.labels,
                        lam=0.01, group_weight=0.01, groups=8)
    x = np.zeros(40)
    _, grad = prob.loss.value_grad(x)
    metric = LbfgsMetric(40, capacity=0, sigma=0.25)
    res = solve_surrogate(metric, x, grad, prob.terms, tolerance=1e-10,
                          max_inner=2000)
    assert res.converged
    assert res.inner_iterations <= 100


@pytest.mark.parametrize("seed", range(4))
def test_dual_step_regrowth_stays_below_its_bound(seed):
    # the step regrows by 1.1 on every accepted step; on this slowly
    # converging surrogate it used to reach 1e150 and overflow the l2 kernels
    handle, _ = sepqn.synth_dataset(seed=4, n=90, p=12)
    prob = make_builtin("sparse-group-logistic", handle.matrix, handle.labels,
                        lam=0.02, group_weight=0.05, groups=6)
    rng = np.random.default_rng(seed)
    metric = metric_with_pairs(rng, 12, 0.8, 4)
    x = rng.standard_normal(12)
    grad = rng.standard_normal(12)
    # lambda_max(H) / max ||W_i||^2, every W_i here of norm 1
    bound = np.linalg.eigvalsh(metric.materialize_dense()).max()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = solve_surrogate(metric, x, grad, prob.terms, tolerance=1e-10,
                              max_inner=5000)
    assert res.step_delta <= bound * (1.0 + 1e-9)


def test_warm_start_reduces_total_inner_iterations():
    # along a proximal-gradient path (metric fixed at the Lipschitz bound, so
    # every unit step descends), each surrogate started from the previous
    # surrogate's duals takes fewer dual iterations in total than from zero
    handle, _ = sepqn.synth_dataset(seed=11, n=300, p=60)
    lam = 2.0 / handle.n
    prob = make_builtin("fused-sparse-logistic", handle.matrix, handle.labels,
                        lam=lam, fused_weight=lam)
    metric = LbfgsMetric(prob.dim, capacity=0, sigma=prob.loss.lipschitz_bound())
    x = np.zeros(prob.dim)
    duals = None
    warm_total = cold_total = 0
    for _ in range(12):
        _, grad = prob.loss.value_grad(x)
        warm = solve_surrogate(metric, x, grad, prob.terms, warm_duals=duals,
                               tolerance=1e-9, max_inner=2000)
        cold = solve_surrogate(metric, x, grad, prob.terms, tolerance=1e-9,
                               max_inner=2000)
        assert warm.converged and cold.converged
        warm_total += warm.inner_iterations
        cold_total += cold.inner_iterations
        duals = warm.duals
        x = x + warm.direction
    assert warm_total < cold_total


def test_step_delta_backtracks_into_curvature_window():
    # quadratic dual with exactly known curvature: H = sigma I and one
    # identity-map term make the dual Lipschitz constant L = 1/sigma, and the
    # quadratic-bound test accepts exactly the deltas <= 1/L
    rng = np.random.default_rng(3)
    p = 25
    sigma = 0.37
    lips = 1.0 / sigma
    metric = LbfgsMetric(p, capacity=0, sigma=sigma)
    x = rng.standard_normal(p)
    grad = rng.standard_normal(p)
    terms = l1_terms(p, 0.15)
    res = solve_surrogate(metric, x, grad, terms, tolerance=1e-11,
                          max_inner=4000, step_delta=64.0 / lips)
    assert res.backtracks > 0
    assert 1.0 / (2.0 * lips) <= res.step_delta <= 1.1 / lips * (1 + 1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_step_test_rejects_a_long_step_at_the_optimum(seed):
    # from duals already converged, -D barely moves along any step, so a
    # test on its values accepts 3/L within their rounding; the product form
    # sees the curvature and backtracks below 1/L
    rng = np.random.default_rng(seed)
    p = 25
    sigma = 0.37
    metric = LbfgsMetric(p, capacity=0, sigma=sigma)
    x = rng.standard_normal(p)
    grad = rng.standard_normal(p)
    terms = l1_terms(p, 0.15)
    warm = solve_surrogate(metric, x, grad, terms, tolerance=1e-9)
    res = solve_surrogate(metric, x, grad, terms, warm_duals=warm.duals,
                          max_inner=5, step_delta=3.0 * sigma)
    assert res.backtracks >= 1
    assert res.converged


def _four_pair_toy(rng, p=12):
    """A 4-pair metric, a point, a gradient and an l1 and a fused term."""
    metric = metric_with_pairs(rng, p, 0.7, 4)
    x = rng.standard_normal(p)
    grad = rng.standard_normal(p)
    terms = (RegularizerTerm(NormKind.L1, 0.3, Identity(p)),
             RegularizerTerm(NormKind.L1, 0.2, FirstDifference(p)))
    return metric, x, grad, terms


def test_step_test_is_the_duals_exact_quadratic_form(rng):
    # -D is quadratic with gradient u(z), the stacked images at xhat(z), so
    # -D(v) - (-D(y)) - u_y'(v - y) = 1/2 (u_v - u_y)'(v - y) holds exactly
    p = 12
    metric, x, grad, terms = _four_pair_toy(rng, p)
    sizes = np.cumsum([t.op.output_dim for t in terms])[:-1]

    def images(z):
        xhat = recover_primal(metric, x, grad, terms, np.split(z, sizes))
        return np.concatenate([t.op.apply(xhat) + t.offset for t in terms])

    for _ in range(20):
        y, v = rng.uniform(-0.5, 0.5, (2, 2 * p - 1))
        u_y = images(y)
        lhs = (dual_objective(metric, x, grad, terms, np.split(v, sizes))
               - dual_objective(metric, x, grad, terms, np.split(y, sizes))
               - float(u_y @ (v - y)))
        rhs = 0.5 * float((images(v) - u_y) @ (v - y))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_a_converged_solve_recovers_once_per_step_attempt(monkeypatch, rng):
    # the images at y and v_new are combinations of the carried ones, so a
    # solve recovers once per step attempt, at entry and at its stop check
    metric, x, grad, terms = _four_pair_toy(rng)
    recoveries = []
    make_recovery = scd._recovery

    def counting_recovery(*args):
        recover = make_recovery(*args)
        return lambda z: recoveries.append(1) or recover(z)

    monkeypatch.setattr(scd, "_recovery", counting_recovery)
    res = solve_surrogate(metric, x, grad, terms, tolerance=1e-10)
    assert res.converged
    assert len(recoveries) == res.inner_iterations + res.backtracks + 2


@pytest.mark.parametrize("max_inner", [2000, 5])
def test_gap_estimate_is_the_certificate_at_the_returned_duals(rng, max_inner):
    # carried images only propose a stop or a best iterate: the returned gap
    # and direction come from an exact recovery at the returned duals
    metric, x, grad, terms = _four_pair_toy(rng)
    res = solve_surrogate(metric, x, grad, terms, tolerance=1e-10,
                          max_inner=max_inner)
    assert res.converged == (max_inner > 5)
    xhat = recover_primal(metric, x, grad, terms, res.duals)
    gap = 0.0
    for t, z in zip(terms, res.duals):
        u = t.op.apply(xhat) + t.offset
        gap += t.weight * KERNELS[t.kind].norm(u) + float(z @ u)
    assert res.gap_estimate == pytest.approx(gap, rel=1e-12)
    np.testing.assert_array_equal(res.direction, xhat - x)


def test_non_converged_result_flagged(rng):
    p = 40
    metric = LbfgsMetric(p, capacity=0, sigma=1.0)
    x = rng.standard_normal(p)
    grad = rng.standard_normal(p)
    terms = (RegularizerTerm(NormKind.L1, 0.3, FirstDifference(p)),)
    res = solve_surrogate(metric, x, grad, terms, tolerance=1e-14, max_inner=3)
    assert not res.converged
    assert res.inner_iterations == 3


def test_hot_loop_tables_hold_the_kernel_table_entries():
    # the benchmark tracer wraps the hot loop's tables; they must hold the
    # very kernels of the shared table, and NormKind must have one identity
    import sepqn.problems
    import sepqn.projections
    from sepqn import scd
    from sepqn.projections import KERNELS

    assert sepqn.problems.NormKind is sepqn.projections.NormKind
    assert set(KERNELS) == set(NormKind)
    for kind in NormKind:
        assert scd._PROJECT_RAW[kind] is KERNELS[kind].project
        assert scd._NORM_RAW[kind] is KERNELS[kind].norm


def _instrumented_surrogate(monkeypatch, metric, x, grad, terms, **kwargs):
    """One solve_surrogate run that also reports the gap of each certified
    image that a recovery returned and the number of metric.apply calls it
    made. Single L1 term only."""
    from sepqn import scd

    (term,) = terms
    recovered = []   # (z, u) per recovery
    certified = []   # u per gap certificate
    make_recovery = scd._recovery

    def recording_recovery(*args):
        recover = make_recovery(*args)

        def wrapped(z):
            out = recover(z)
            recovered.append((z, out[1]))
            return out

        return wrapped

    norm = scd._NORM_RAW[NormKind.L1]

    def recording_norm(u):
        certified.append(u if u.base is None else u.base)
        return norm(u)

    applies = []
    apply = metric.apply

    def counting_apply(v):
        applies.append(1)
        return apply(v)

    monkeypatch.setattr(scd, "_recovery", recording_recovery)
    monkeypatch.setitem(scd._NORM_RAW, NormKind.L1, recording_norm)
    monkeypatch.setattr(metric, "apply", counting_apply)
    res = solve_surrogate(metric, x, grad, terms, **kwargs)
    monkeypatch.undo()
    # the certificates that read carried images match no recovery
    exact = [(z, u) for u in certified for z, seen in recovered if seen is u]
    gaps = [term.weight * norm(u) + float(z @ u) for z, u in exact]
    # one carried certificate per iteration, plus the exact ones; the entry
    # recovery seeds the carried images and certifies nothing
    assert len(certified) == res.inner_iterations + len(gaps)
    assert any(seen is certified[-1] for _, seen in recovered)
    return res, gaps, len(applies)


@pytest.mark.parametrize("tolerance, max_inner, converges", [
    (1e-9, 8000, True),
    (1e-14, 8000, True),
    (1e-14, 10, False),
])
def test_dual_loop_makes_no_metric_apply(monkeypatch, rng, tolerance, max_inner,
                                         converges):
    # the gap alone certifies a surrogate: the loop stops at the first exact
    # gap that meets the tolerance, its last certificate is exact, and it
    # never applies H itself
    p = 10
    metric = metric_with_pairs(rng, p, 1.0, 4)
    x = rng.standard_normal(p)
    grad = rng.standard_normal(p)
    terms = l1_terms(p, 0.2)
    res, gaps, applies = _instrumented_surrogate(
        monkeypatch, metric, x, grad, terms, tolerance=tolerance, max_inner=max_inner)
    assert res.converged == converges
    assert applies == 0
    met = [gap <= tolerance for gap in gaps]
    assert met == [False] * (len(gaps) - 1) + [converges]


@pytest.mark.parametrize("tolerance, max_inner", [(1e-9, 8000), (1e-14, 5)])
def test_converged_means_gap_within_tolerance(rng, tolerance, max_inner):
    p = 12
    metric = metric_with_pairs(rng, p, 0.9, 3)
    x = rng.standard_normal(p)
    grad = rng.standard_normal(p)
    terms = (RegularizerTerm(NormKind.L1, 0.2, Identity(p)),
             RegularizerTerm(NormKind.L1, 0.1, FirstDifference(p)))
    res = solve_surrogate(metric, x, grad, terms, tolerance=tolerance,
                          max_inner=max_inner)
    assert res.converged == (res.gap_estimate <= tolerance)
    assert res.converged == (max_inner > 5)


@pytest.mark.parametrize("setting", [
    {"tolerance": -1e-9}, {"tolerance": float("nan")}, {"max_inner": 0},
    {"max_inner": 3.5}, {"step_delta": float("nan")}, {"step_delta": 0.0},
    {"step_delta": -1.0}, {"step_delta": float("inf")},
])
def test_solve_surrogate_rejects_bad_settings(setting):
    # a nan tolerance would run all of max_inner and never certify a stop; a
    # nan step would backtrack forever, and a zero one never moves
    (name,) = setting
    p = 5
    with pytest.raises(ValueError, match=name):
        solve_surrogate(LbfgsMetric(p), np.zeros(p), np.ones(p), l1_terms(p, 0.3),
                        **setting)


def _assert_work_charges_events(monkeypatch, rng, **kwargs):
    """Count recoveries (one per step attempt, one at entry, one at the last
    stop check, one per failed check) and projections (one per step attempt,
    one of the warm duals) in one solve_surrogate run, and check the work
    model's formula over its counts against them. Returns the result."""
    p = 15
    metric = metric_with_pairs(rng, p, 0.5, 3)
    x = rng.standard_normal(p)
    grad = rng.standard_normal(p)
    terms = (RegularizerTerm(NormKind.L1, 0.2, Identity(p)),
             RegularizerTerm(NormKind.L1, 0.1, FirstDifference(p)))
    recoveries, projections = [], []
    make_recovery = scd._recovery
    project = scd._PROJECT_RAW[NormKind.L1]

    def counting_recovery(*args):
        recover = make_recovery(*args)
        return lambda z: recoveries.append(1) or recover(z)

    monkeypatch.setattr(scd, "_recovery", counting_recovery)
    monkeypatch.setitem(scd._PROJECT_RAW, NormKind.L1,
                        lambda *args: projections.append(1) or project(*args))
    res = solve_surrogate(metric, x, grad, terms, max_inner=4000, **kwargs)
    monkeypatch.undo()
    assert len(recoveries) == res.inner_iterations + res.backtracks + 2 + res.failed_checks
    attempts = len(projections) // len(terms) - 1
    assert attempts == res.inner_iterations + res.backtracks
    stack_len = sum(t.op.output_dim for t in terms)
    recover = (metric.product_cost(p, p) + sum(2 * t.op.apply_cost for t in terms)
               + p + stack_len)
    proj = sum(projection_cost(t.kind, t.op.output_dim) for t in terms)
    # two carried image combinations and one restart dot product over the
    # stack per iteration
    want = (len(recoveries) * recover + (attempts + 1) * proj
            + 3 * res.inner_iterations * stack_len)
    assert scd.surrogate_work(metric, terms, res.inner_iterations,
                              res.backtracks, res.failed_checks) == want
    # the solve carries its own account, at the size it was solved at
    assert res.work == want
    assert res.working_set == metric.dim and res.h_direction is None
    return res


@pytest.mark.parametrize("step_delta", [None, 64.0])
def test_surrogate_work_charges_the_loops_events(monkeypatch, rng, step_delta):
    res = _assert_work_charges_events(monkeypatch, rng, tolerance=1e-10,
                                      step_delta=step_delta)
    assert (res.backtracks > 0) == (step_delta is not None)


def test_surrogate_work_charges_failed_stop_checks(monkeypatch):
    # at tolerance 0 a carried gap <= 0 can hide an exact gap just above it:
    # each such check costs one more recovery, and the work model charges it
    res = _assert_work_charges_events(monkeypatch, np.random.default_rng(0),
                                      tolerance=0.0, step_delta=64.0)
    assert res.converged and res.failed_checks > 0


def _explicit(terms):
    """The same terms over ExplicitSparse operators, which are never fused."""
    return tuple(RegularizerTerm(t.kind, t.weight, ExplicitSparse(t.op.to_sparse()),
                                 t.offset) for t in terms)


def _assert_same_surrogate(terms, blocks, seed=0):
    """The fused terms give the direction and gap of their unfused copy."""
    assert [len(b.terms) for b in scd._term_blocks(terms)] == blocks
    rng = np.random.default_rng(seed)
    p = terms[0].op.input_dim
    metric = metric_with_pairs(rng, p, 0.8, 4)
    x = rng.standard_normal(p)
    grad = rng.standard_normal(p)
    # a fixed budget: the segmented kernels round differently, and a stop
    # test would decide at the tolerance's noise floor
    fused = solve_surrogate(metric, x, grad, terms, tolerance=0.0, max_inner=300)
    plain = solve_surrogate(metric, x, grad, _explicit(terms), tolerance=0.0,
                            max_inner=300)
    scale = 1.0 + np.linalg.norm(plain.direction)
    assert np.linalg.norm(fused.direction - plain.direction) <= 1e-9 * scale
    assert fused.gap_estimate == pytest.approx(plain.gap_estimate, rel=1e-6)
    assert len(fused.duals) == len(terms)
    for t, v in zip(terms, fused.duals):
        assert v.shape == (t.op.output_dim,)
        assert KERNELS[t.kind].dual_norm(v) <= t.weight + 1e-12


@pytest.mark.parametrize("model, kwargs, blocks", [
    ("sparse-group-logistic", {"groups": 6}, [1, 6]),
    ("multitask-dirty-logistic", {}, [1, 12]),
])
def test_fused_group_terms_match_explicit_operators(model, kwargs, blocks):
    handle, _ = sepqn.synth_dataset(seed=4, n=90, p=12)
    labels = handle.labels
    if model.startswith("multitask"):
        labels = np.arange(handle.n) % 3.0
    prob = make_builtin(model, handle.matrix, labels, lam=0.02, group_weight=0.05,
                        **kwargs)
    _assert_same_surrogate(prob.terms, blocks)


def test_only_fusable_runs_are_fused():
    p = 14

    def group(kind, weight, idx):
        return RegularizerTerm(kind, weight, GroupSelector(idx, p))

    terms = (
        RegularizerTerm(NormKind.L1, 0.1, Identity(p)),
        group(NormKind.L2, 0.2, range(0, 4)),
        group(NormKind.L2, 0.2, range(4, 8)),
        group(NormKind.L2, 0.2, range(6, 10)),    # overlaps the last: new run
        group(NormKind.L2, 0.3, range(10, 14)),   # another weight: new run
        group(NormKind.L2, 0.3, [0, 13]),         # overlaps index 13
        group(NormKind.L1, 0.3, range(1, 5)),     # another kind
        group(NormKind.L1, 0.3, range(5, 9)),
        group(NormKind.LINF, 0.2, range(0, 3)),   # sup-norm runs are not fused
        group(NormKind.LINF, 0.2, range(3, 6)),
    )
    _assert_same_surrogate(terms, [1, 2, 1, 1, 1, 2, 1, 1], seed=1)


def test_operator_norm_is_estimated_once(monkeypatch, rng):
    calls = []
    real = sepqn.LinearOperator.norm_estimate

    def counting(op):
        calls.append(op)
        return real(op)

    monkeypatch.setattr(sepqn.LinearOperator, "norm_estimate", counting)
    p = 9
    terms = (RegularizerTerm(NormKind.L1, 0.1, Identity(p)),
             RegularizerTerm(NormKind.L1, 0.1, FirstDifference(p)))
    metric = metric_with_pairs(rng, p, 1.0, 2)
    grad = rng.standard_normal(p)
    for _ in range(2):
        solve_surrogate(metric, np.zeros(p), grad, terms, max_inner=30)
    assert [id(op) for op in calls] == [id(t.op) for t in terms]
    assert terms[1].op.spectral_norm == real(terms[1].op)


def test_solve_uses_the_problems_blocks(monkeypatch):
    # the dual loop takes problem.blocks from solve and builds none itself,
    # and the blocks handed in give the direction built from the terms
    handle, _ = sepqn.synth_dataset(seed=4, n=90, p=12)
    prob = make_builtin("sparse-group-logistic", handle.matrix, handle.labels,
                        lam=0.02, group_weight=0.05, groups=6)
    rng = np.random.default_rng(5)
    metric = metric_with_pairs(rng, prob.dim, 0.8, 4)
    x, grad = rng.standard_normal(prob.dim), rng.standard_normal(prob.dim)
    built = solve_surrogate(metric, x, grad, prob.terms, tolerance=1e-10, max_inner=300)
    calls = []
    real = scd._term_blocks
    monkeypatch.setattr(scd, "_term_blocks", lambda terms: calls.append(1) or real(terms))
    given = solve_surrogate(metric, x, grad, prob.terms, tolerance=1e-10, max_inner=300,
                            blocks=prob.blocks)
    assert np.array_equal(given.direction, built.direction)
    assert given.inner_iterations == built.inner_iterations
    sol = sepqn.solve(prob, sepqn.SolverConfig(max_outer=20))
    assert sol.trace.iterations > 0 and calls == []
