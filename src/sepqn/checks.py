"""Fast self-checks of the library's core invariants, one line per property.

These are smaller, quicker versions of the test suite's property checks,
runnable in the field via `sepqn check` to validate an installation.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .baselines import BaselineConfig, fista_solve
from .data import synth_dataset
from .lbfgs import LbfgsMetric
from .operators import ExplicitSparse, FirstDifference, GroupSelector, Identity, as_csr
from .problems import (
    _BLOCK_BYTES, LogisticLoss, NormKind, RegularizerTerm, make_builtin, term_blocks,
)
from .projections import KERNELS
from .scd import _next_theta, solve_surrogate
from .solver import SolverConfig, solve

__all__ = ["run_all", "CHECKS"]


def _operators_pool(rng, p=23):
    mat = rng.standard_normal((9, p))
    return [
        Identity(p),
        FirstDifference(p),
        GroupSelector(sorted(rng.choice(p, size=6, replace=False)), p),
        ExplicitSparse(mat * (rng.random((9, p)) < 0.4)),
    ]


def check_adjoint_identity():
    rng = np.random.default_rng(0)
    for op in _operators_pool(rng):
        for _ in range(20):
            u = rng.standard_normal(op.input_dim)
            v = rng.standard_normal(op.output_dim)
            lhs = float(op.apply(u) @ v)
            rhs = float(u @ op.apply_transpose(v))
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-12 * scale, f"{op!r}: {lhs} vs {rhs}"


def check_sparse_matvec_oracle():
    rng = np.random.default_rng(1)
    dense = rng.standard_normal((20, 30)) * (rng.random((20, 30)) < 0.3)
    op = ExplicitSparse(dense)
    for _ in range(20):
        x = rng.standard_normal(30)
        got = op.apply(x)
        want = dense @ x
        assert np.allclose(got, want, rtol=1e-13, atol=1e-14)
    # a dense design's loss walks row blocks: its value and gradient agree
    # with the CSR products of the same matrix across every block seam
    p = 50
    n = 3 * _BLOCK_BYTES // (8 * p) + 11
    dense = rng.standard_normal((n, p))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    loss = LogisticLoss(dense, y)
    assert len(loss._row_blocks) > 3, f"{len(loss._row_blocks)} row blocks"
    csr = sp.csr_matrix(dense)
    x = 0.1 * rng.standard_normal(p)
    t = y * (csr @ x)
    v, g = loss.value_grad(x)
    v_csr = float(loss.weights @ np.logaddexp(0.0, -t))
    g_csr = csr.T @ (-loss.weights * y * expit(-t))
    assert abs(v - v_csr) <= 1e-14, f"value off by {abs(v - v_csr)}"
    scale = np.abs(g_csr).max()
    assert np.abs(g - g_csr).max() <= 1e-13 * scale, \
        f"gradient off by {np.abs(g - g_csr).max() / scale:.2e} relative"


def check_gradient_finite_difference():
    rng = np.random.default_rng(2)
    handle, _ = synth_dataset(seed=5, n=40, p=12)
    loss = LogisticLoss(handle.matrix, handle.labels)
    x = rng.standard_normal(12) * 0.5
    _, g = loss.value_grad(x)
    h = 1e-6
    for j in range(12):
        e = np.zeros(12)
        e[j] = h
        fd = (loss.value(x + e) - loss.value(x - e)) / (2 * h)
        assert abs(fd - g[j]) <= 1e-6 * max(1.0, abs(g[j]))


def check_loss_storage_and_margins():
    # a dense design packs into the CSR scipy builds, byte for byte; a full
    # CSR design is stored dense and agrees with the CSR's own products; a
    # gradient after a value at an equal x is a fresh loss's, bit for bit,
    # and evaluates the per-sample losses only once
    handle, _ = synth_dataset(seed=6, n=50, p=9)
    dense = handle.matrix.toarray()
    got, want = as_csr(dense), sp.csr_matrix(dense, dtype=np.float64)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f"CSR {name} differs"
    loss = LogisticLoss(handle.matrix, handle.labels)
    assert isinstance(loss.data, np.ndarray), type(loss.data)
    x = np.random.default_rng(12).standard_normal(9)
    t = handle.labels * (handle.matrix @ x)
    (v, g), v_csr = loss.value_grad(x), float(loss.weights @ np.logaddexp(0.0, -t))
    g_csr = handle.matrix.T @ (-loss.weights * handle.labels * expit(-t))
    assert abs(v - v_csr) <= 1e-14, f"value off by {abs(v - v_csr)}"
    assert np.abs(g - g_csr).max() <= 1e-14, f"gradient off by {np.abs(g - g_csr).max()}"
    evaluations = []
    real = loss._sample_losses
    loss._sample_losses = lambda ax: evaluations.append(1) or real(ax)
    x = 0.5 * x  # a point this loss has not evaluated
    loss.value(x)
    v_memo, g_memo = loss.value_grad(x.copy())
    assert len(evaluations) == 1, f"{len(evaluations)} per-sample evaluations"
    v_fresh, g_fresh = LogisticLoss(handle.matrix, handle.labels).value_grad(x)
    assert v_memo == v_fresh and np.array_equal(g_memo, g_fresh)


def check_dual_projections():
    rng = np.random.default_rng(3)
    # a projected step from the origin lands in the ball, and projecting
    # again changes nothing
    for kind in NormKind:
        kernels = KERNELS[kind]
        for _ in range(10):
            stepped = kernels.project(-0.9 * rng.standard_normal(7), 0.5)
            assert kernels.dual_norm(stepped) <= 0.5 + 1e-12
            again = kernels.project(stepped, 0.5)
            assert np.allclose(again, stepped, atol=1e-15)


def check_lbfgs_roundtrip():
    rng = np.random.default_rng(4)
    metric = LbfgsMetric(10, capacity=10, sigma=2.0)
    for _ in range(6):
        s = rng.standard_normal(10)
        y = s + 0.3 * rng.standard_normal(10)
        metric.push_pair(s, y)
    for _ in range(20):
        v = rng.standard_normal(10)
        w = metric.apply(metric.inv_apply(v))
        assert np.linalg.norm(w - v) <= 1e-9 * np.linalg.norm(v)


def _pair_cases(rng):
    """(p, metric) with p > 2m, p <= 2m, and rank-deficient pairs y = c s."""
    for p, count, curved in ((15, 4, False), (6, 5, False), (5, 3, True)):
        metric = LbfgsMetric(p, capacity=count, sigma=0.7)
        while metric.pair_count < count:
            s = rng.standard_normal(p)
            metric.push_pair(s, (2.0 + rng.random()) * s if curved
                             else s + 0.3 * rng.standard_normal(p))
        yield p, metric


def check_spectral_bound():
    # the exact top eigenvalue of H^{-1}, and the closed-form upper bound on
    # lambda_max(H) that caps the dual loop's step
    for p, metric in _pair_cases(np.random.default_rng(10)):
        dense = metric.materialize_dense()
        want = np.linalg.eigvalsh(np.linalg.inv(dense)).max()
        got = metric.inv_norm_estimate()
        assert abs(got - want) <= 1e-9 * want, f"p={p}: {got} vs {want}"
        top, bound = np.linalg.eigvalsh(dense).max(), metric.top_bound()
        assert bound >= top, f"p={p}: bound {bound} below lambda_max(H) {top}"


def check_restricted_submatrix():
    # H[J, J] as its own metric: the principal submatrix, its exact inverse
    # (which is not H^{-1}[J, J]), the top eigenvalue of that inverse and
    # the upper bound on lambda_max(H_JJ); and the working set's two other
    # products, the cross block H[J, off] and the form of H^{-1}[J, J]
    rng = np.random.default_rng(14)
    for p, metric in _pair_cases(rng):
        full = metric.materialize_dense()
        full_inv = np.column_stack([metric.inv_apply(e) for e in np.eye(p)])
        for size in (1, (p + 1) // 2, p - 1):
            idx = np.sort(rng.choice(p, size=size, replace=False))
            view = metric.restricted(idx)
            sub = full[np.ix_(idx, idx)]
            got = view.materialize_dense()
            err = np.abs(got - sub).max()
            assert err <= 1e-12 * np.abs(sub).max(), f"p={p}, J={idx}: H_JJ off by {err}"
            inv = np.column_stack([view.inv_apply(e) for e in np.eye(size)])
            err = np.abs(inv @ sub - np.eye(size)).max()
            assert err <= 1e-9, f"p={p}, J={idx}: inverse off by {err}"
            want = np.linalg.eigvalsh(np.linalg.inv(sub)).max()
            top = view.inv_norm_estimate()
            assert abs(top - want) <= 1e-9 * want, f"p={p}, J={idx}: {top} vs {want}"
            top, bound = np.linalg.eigvalsh(sub).max(), view.top_bound()
            assert bound >= top, f"p={p}, J={idx}: bound {bound} below {top}"
            off = np.setdiff1d(np.arange(p), idx)
            v = rng.standard_normal(off.size)
            want = full[np.ix_(idx, off)] @ v
            err = np.abs(metric.cross_apply(view, off, v) - want).max()
            assert err <= 1e-12 * np.abs(want).max(), f"p={p}, J={idx}: H[J, off] off by {err}"
            u = rng.standard_normal(size)
            want = float(u @ full_inv[np.ix_(idx, idx)] @ u)
            got = metric.inv_form(view, u)
            assert abs(got - want) <= 1e-12 * want, f"p={p}, J={idx}: form {got} vs {want}"


def check_seed_ordering():
    rng = np.random.default_rng(5)
    p = 8
    for _ in range(20):
        a = LbfgsMetric(p, capacity=p, sigma=2.0)
        b = LbfgsMetric(p, capacity=p, sigma=1.0)
        for _ in range(p):
            s = rng.standard_normal(p)
            y = s + 0.4 * rng.standard_normal(p)
            if float(s @ y) > 0:
                a.push_pair(s, y)
                b.push_pair(s, y)
        diff = a.materialize_dense() - b.materialize_dense()
        w = np.linalg.eigvalsh(diff)
        assert w.min() > -1e-10, f"ordering violated: {w.min()}"


def check_theta_recursion_bound():
    theta = 1.0
    for j in range(500):
        assert theta <= 2.0 / (j + 2) + 1e-15
        theta = _next_theta(theta)


def check_surrogate_prox_oracle():
    rng = np.random.default_rng(6)
    for _ in range(5):
        p = 12
        lam = 0.3
        sigma = 1.0 + rng.random()
        metric = LbfgsMetric(p, capacity=0, sigma=sigma)
        x = rng.standard_normal(p)
        g = rng.standard_normal(p)
        terms = (RegularizerTerm(NormKind.L1, lam, Identity(p)),)
        res = solve_surrogate(metric, x, g, terms, tolerance=1e-12, max_inner=5000)
        cand = x - g / sigma
        want = np.sign(cand) * np.maximum(np.abs(cand) - lam / sigma, 0.0) - x
        assert np.linalg.norm(res.direction - want) <= 1e-8


def check_surrogate_stationarity():
    # the dual loop stops on its gap alone: H d + r vanishes at the point it
    # returns, d = xhat - x_k and r = grad - sum W_i' v_i, to rounding
    rng = np.random.default_rng(13)
    metric = LbfgsMetric(12, capacity=4, sigma=0.8)
    while metric.pair_count < 4:
        s = rng.standard_normal(12)
        metric.push_pair(s, s + 0.4 * rng.standard_normal(12))
    terms = (RegularizerTerm(NormKind.L1, 0.2, Identity(12)),
             RegularizerTerm(NormKind.L2, 0.3, FirstDifference(12)))
    x, g = rng.standard_normal(12), rng.standard_normal(12)
    res = solve_surrogate(metric, x, g, terms, tolerance=1e-10, max_inner=5000)
    assert res.converged, f"gap {res.gap_estimate} after {res.inner_iterations}"
    r = g - sum(t.op.apply_transpose(v) for t, v in zip(terms, res.duals))
    resid = np.linalg.norm(metric.apply(res.direction) + r)
    allowed = 1e-12 * (1.0 + np.linalg.norm(r))
    assert resid <= allowed, f"||H d + r|| = {resid} > {allowed}"


def check_term_blocks():
    # the dirty multitask model's row groups run fused, as one block; the same
    # terms over ExplicitSparse operators run one by one
    handle, _ = synth_dataset(seed=7, n=60, p=8)
    prob = make_builtin("multitask-dirty-logistic", handle.matrix,
                        np.arange(60) % 3.0, lam=0.02, group_weight=0.05)
    plain = tuple(RegularizerTerm(t.kind, t.weight, ExplicitSparse(t.op.to_sparse()))
                  for t in prob.terms)
    assert [len(b.terms) for b in prob.blocks] == [1, 8]
    assert len(term_blocks(plain)) == len(plain)
    rng = np.random.default_rng(11)
    p = prob.dim
    metric = LbfgsMetric(p, capacity=3, sigma=0.8)
    while metric.pair_count < 3:
        s = rng.standard_normal(p)
        metric.push_pair(s, s + 0.4 * rng.standard_normal(p))
    x, g = rng.standard_normal(p), rng.standard_normal(p)
    # the penalty walks the blocks, and is the per-term sum up to rounding
    got, want = prob.penalty(x), sum(t.value(x) for t in prob.terms)
    assert abs(got - want) <= 1e-15 * want, f"penalty {got} != per-term sum {want}"
    fused, ref = (solve_surrogate(metric, x, g, terms, tolerance=0.0, max_inner=300)
                  for terms in (prob.terms, plain))
    err = np.linalg.norm(fused.direction - ref.direction)
    assert err <= 1e-9 * (1.0 + np.linalg.norm(ref.direction)), f"direction off by {err}"
    assert abs(fused.gap_estimate - ref.gap_estimate) <= 1e-6 * ref.gap_estimate


def check_solver_monotone_trace():
    handle, _ = synth_dataset(seed=9, n=120, p=30)
    prob = make_builtin("l1-logistic", handle.matrix, handle.labels, lam=2.0 / handle.n)
    sol = solve(prob, SolverConfig(max_outer=60))
    objs = sol.trace.objectives()
    assert np.all(np.diff(objs) <= 1e-15)
    fsol = fista_solve(prob, BaselineConfig(tolerance=1e-12, max_iterations=20000))
    rel = abs(sol.objective - fsol.objective) / max(abs(fsol.objective), 1e-30)
    assert rel <= 1e-6, f"solver/fista disagree: {rel}"


def check_default_stop_at_floor():
    # the forcing rule loosens the early surrogates of a default solve, but
    # the solve stops on one solved at the floor tolerance
    handle, _ = synth_dataset(seed=6, n=100, p=20)
    prob = make_builtin("l1-logistic", handle.matrix, handle.labels, lam=2.0 / handle.n)
    cfg = SolverConfig()
    floor = cfg.resolved_inner_tolerance()
    rows = solve(prob, cfg).trace.rows
    assert max(r.inner_tolerance for r in rows) > floor, "no surrogate was loosened"
    assert rows[-1].inner_tolerance == floor, (
        f"last surrogate solved to {rows[-1].inner_tolerance}, floor {floor}")


CHECKS = [
    ("adjoint-identity", check_adjoint_identity),
    ("sparse-matvec-oracle", check_sparse_matvec_oracle),
    ("gradient-finite-difference", check_gradient_finite_difference),
    ("loss-storage-and-margins", check_loss_storage_and_margins),
    ("dual-projections-feasible-firm", check_dual_projections),
    ("lbfgs-apply-roundtrip", check_lbfgs_roundtrip),
    ("lbfgs-spectral-bound", check_spectral_bound),
    ("lbfgs-restricted-submatrix", check_restricted_submatrix),
    ("seed-scale-ordering", check_seed_ordering),
    ("theta-recursion-bound", check_theta_recursion_bound),
    ("surrogate-prox-oracle", check_surrogate_prox_oracle),
    ("surrogate-stationarity", check_surrogate_stationarity),
    ("term-blocks", check_term_blocks),
    ("solver-monotone-and-consensus", check_solver_monotone_trace),
    ("default-stop-at-floor", check_default_stop_at_floor),
]


def run_all():
    """Run every check, printing a PASS or FAIL line for each; returns the
    list of (name, exception) failures."""
    failures = []
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:
            failures.append((name, exc))
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    return failures
