"""Scaling sweeps: modeled per-outer-iteration cost along three axes.

The cost is a flop model, not a measurement: `row_work` charges each row of
a trace from the counts `solve` records on it, and this module is the
model's only home. Each axis doubles one size while holding the others
fixed, and is configured so the doubled quantity dominates the model: the
feature axis scales every term, the sample axis makes data passes dominant by
keeping the inner budget small, and the terms axis uses general sparse
penalty operators whose applications dwarf both the data pass and the metric
work. Runs use a fixed outer-iteration budget and an inner tolerance of 0.
On the p and n axes the inner budget binds on every row past the warm-up,
at both sizes. On the terms axis it does not: since `solve` carries the
dual step from one surrogate to the next, rows 4-6 certify a gap <= 0
early (seed 0): after 5, 10 and 5 of their 25 iterations at 6 terms, and
after 5, 4 and 9 at 12 terms. So that axis's ratio (1.96 at seed 0) measures
per-step cost only as far as the early rows match at both sizes; here it
mixes in how early each certifies, 20 iterations at 6 terms against 18.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import synth_dataset
from .operators import ExplicitSparse, FirstDifference, Identity, integer, require
from .problems import CompositeProblem, LogisticLoss, NormKind, RegularizerTerm, make_builtin
from .solver import SolverConfig, solve

__all__ = ["AXES", "BenchPoint", "row_work", "run_axis", "cost_ratios"]


@dataclass
class BenchPoint:
    axis: str
    size: int
    outer_iterations: int
    mean_work: float       # per-outer-iteration modeled flops, warm-up excluded


def _builtin_problem(model, n, p, seed):
    handle, _ = synth_dataset(seed=seed, n=n, p=p, sparsity=0.5)
    return make_builtin(model, handle.matrix, handle.labels, lam=2.0 / n)


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


WARMUP = 3   # leading outer iterations left out of each mean

# modeled multiply-adds of one apply, for the operator types the sweeps build
_APPLY_COST = {
    Identity: lambda op: op.input_dim,
    FirstDifference: lambda op: 2 * op.output_dim,
    ExplicitSparse: lambda op: 2 * op.matrix.nnz,
}


def row_work(problem, rows, memory):
    """Modeled multiply-adds of each row of a `solve` trace of `problem`
    under a metric of at most `memory` pairs, from the row's counts.

    The row's surrogate solves make attempts = iterations + dual backtracks
    step attempts, each of one recovery R and one projection P; each solve
    adds one P of its warm duals and two R, at entry and at its last stop
    check, and each failed stop check one more R; each iteration forms two
    carried image combinations and a restart dot product over the S stacked
    duals; and each new epoch is one data pass. So a row costs

        (attempts + 2 solves + failed) R + (attempts + solves) P
        + 3 iterations S + new epochs (2 nnz + 4 n),

    where R is one inverse metric apply over k = min(memory, pairs accepted
    before the row) pairs, 4 k p + 4 k^2 + 2 p, every term's apply and
    transpose, and p + S for the recovery's sums, and P is S. A working-set
    row is charged as full-size solves. Raises ValueError on a term whose
    operator type or norm kind the sweeps do not build.
    """
    for t in problem.terms:
        if type(t.op) not in _APPLY_COST or t.kind is NormKind.LINF:
            raise ValueError(f"the flop model has no cost for a {t.kind.value} term "
                             f"over a {type(t.op).__name__}")
    p = problem.dim
    stack_len = sum(t.op.output_dim for t in problem.terms)
    terms_cost = sum(2 * _APPLY_COST[type(t.op)](t.op) for t in problem.terms)
    data = problem.loss.data
    pass_cost = 2 * (data.nnz if sp.issparse(data) else data.size) + 4 * data.shape[0]
    work, epochs, pairs = [], 1, 0
    for r in rows:
        k = min(memory, pairs)
        recover = 4 * k * p + 4 * k * k + 2 * p + terms_cost + p + stack_len
        attempts = r.inner_iterations + r.dual_backtracks
        work.append(float((attempts + 2 * r.surrogate_solves + r.failed_checks) * recover
                          + (attempts + r.surrogate_solves) * stack_len
                          + 3 * r.inner_iterations * stack_len
                          + (r.epochs - epochs) * pass_cost))
        epochs, pairs = r.epochs, pairs + r.curvature_accepted
    return work

# axis -> (problem builder (size, seed), base size, max_inner, outer iterations)
SWEEPS = {
    "p": (lambda p, seed: _builtin_problem("fused-sparse-logistic", 1500, p, seed),
          256, 15, 12),
    "n": (lambda n, seed: _builtin_problem("l1-logistic", n, 200, seed), 20000, 5, 10),
    "terms": (lambda t, seed: _many_terms_problem(100, 300, t, seed), 6, 25, 10),
}
AXES = tuple(SWEEPS)


def run_axis(axis, doublings=1, seed=0):
    """Run the sweep for one axis; returns BenchPoints at size, 2*size, ..."""
    if axis not in SWEEPS:
        raise ValueError(f"unknown axis {axis!r}; expected one of {AXES}")
    require("doublings", doublings, integer(1))
    build, size0, max_inner, outer_iters = SWEEPS[axis]
    # tolerance 0 fixes the outer budget; see the module docstring for the inner
    cfg = SolverConfig(outer_tolerance=0.0, max_outer=outer_iters, inner_tolerance=0.0,
                       max_inner=max_inner, stall_iterations=10 ** 9)
    points = []
    for k in range(doublings + 1):
        size = size0 * 2 ** k
        problem = build(size, seed)
        work = row_work(problem, solve(problem, cfg).trace.rows, cfg.lbfgs_memory)
        used = work[WARMUP:] if len(work) > WARMUP else work
        points.append(BenchPoint(axis=axis, size=size, outer_iterations=len(work),
                                 mean_work=float(np.mean(used))))
    return points


def cost_ratios(points):
    """Consecutive mean-work ratios along a sweep."""
    return [points[i + 1].mean_work / points[i].mean_work for i in range(len(points) - 1)]
