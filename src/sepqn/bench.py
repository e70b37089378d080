"""Scaling sweeps: measured per-outer-iteration cost along three axes.

Each axis doubles one size while holding the others fixed, and is configured
so the doubled quantity dominates the per-iteration flop counters: the
feature axis scales every term, the sample axis makes data passes dominant by
keeping the inner budget small, and the terms axis uses general sparse
penalty operators whose applications dwarf both the data pass and the metric
work. Runs use a fixed outer-iteration budget with an unreachable inner
tolerance, so the inner budget binds identically across sizes and the cost
ratio isolates the size effect.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import synth_dataset
from .operators import ExplicitSparse, Identity
from .problems import CompositeProblem, LogisticLoss, NormKind, RegularizerTerm, make_builtin
from .solver import SolverConfig, solve

__all__ = ["AXES", "BenchPoint", "run_axis", "cost_ratios"]

AXES = ("p", "n", "terms")


@dataclass
class BenchPoint:
    axis: str
    size: int
    outer_iterations: int
    mean_work: float       # per-outer-iteration flop counter, warm-up excluded


def _bench_config(max_inner, outer_iters):
    # unreachable tolerance: the inner budget binds, the outer budget is fixed
    return SolverConfig(
        outer_tolerance=0.0, max_outer=outer_iters, inner_tolerance=0.0,
        max_inner=max_inner, continuation_restarts=1,
        stall_iterations=10 ** 9,
    )


def _fused_problem(n, p, seed):
    handle, _ = synth_dataset(seed=seed, n=n, p=p, sparsity=0.5)
    lam = 2.0 / n
    return make_builtin("fused-sparse-logistic", handle.matrix, handle.labels,
                        lam=lam, fused_weight=lam)


def _l1_problem(n, p, seed):
    handle, _ = synth_dataset(seed=seed, n=n, p=p, sparsity=0.5)
    return make_builtin("l1-logistic", handle.matrix, handle.labels, lam=2.0 / n)


def _many_terms_problem(n, p, n_terms, seed):
    # penalty weights are kept tiny so a small inner budget still produces a
    # descent direction; per-iteration cost does not depend on the weights
    handle, _ = synth_dataset(seed=seed, n=n, p=p, sparsity=0.5)
    loss = LogisticLoss(handle.matrix, handle.labels)
    rng = np.random.default_rng(seed + 7)
    q = max(2, p * 2 // 3)
    terms = [RegularizerTerm(NormKind.L1, 1e-7, Identity(p))]
    for _ in range(n_terms):
        w = sp.random(q, p, density=0.4, random_state=rng.integers(1 << 31),
                      data_rvs=rng.standard_normal, format="csr")
        terms.append(RegularizerTerm(NormKind.L2, 1e-7, ExplicitSparse(w)))
    return CompositeProblem(loss, tuple(terms))


def _measure(problem, cfg, axis, size, warmup=3) -> BenchPoint:
    sol = solve(problem, cfg)
    rows = sol.trace.rows
    used = rows[warmup:] if len(rows) > warmup else rows
    mean_work = float(np.mean([r.work for r in used]))
    return BenchPoint(axis=axis, size=size, outer_iterations=len(rows),
                      mean_work=mean_work)


def run_axis(axis, doublings=1, seed=0):
    """Run the sweep for one axis; returns BenchPoints at size, 2*size, ..."""
    points = []
    if axis == "p":
        n, p0 = 1500, 256
        cfg = _bench_config(max_inner=15, outer_iters=12)
        for k in range(doublings + 1):
            p = p0 * (2 ** k)
            points.append(_measure(_fused_problem(n, p, seed), cfg, axis, p))
    elif axis == "n":
        n0, p = 20000, 200
        cfg = _bench_config(max_inner=5, outer_iters=10)
        for k in range(doublings + 1):
            n = n0 * (2 ** k)
            points.append(_measure(_l1_problem(n, p, seed), cfg, axis, n))
    elif axis == "terms":
        n, p, t0 = 100, 300, 6
        cfg = _bench_config(max_inner=25, outer_iters=10)
        for k in range(doublings + 1):
            n_terms = t0 * (2 ** k)
            points.append(
                _measure(_many_terms_problem(n, p, n_terms, seed), cfg, axis, n_terms)
            )
    else:
        raise ValueError(f"unknown axis {axis!r}; expected one of {AXES}")
    return points


def cost_ratios(points):
    """Consecutive mean-work ratios along a sweep."""
    return [points[i + 1].mean_work / points[i].mean_work for i in range(len(points) - 1)]
