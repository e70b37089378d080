"""Outer proximal quasi-Newton loop.

Each iteration solves the quadratic-metric surrogate through its dual
(warm-started from the previous iteration's optimal duals), backtracks a step
length by BACKTRACK_FACTOR against the sufficient-descent test

    f(x + t*d) <= f(x) + ARMIJO * t * gamma,    gamma = grad'd + Psi(x+d) - Psi(x),

harvests the curvature pair when s'y > 0, and rescales the LBFGS seed matrix.
`epochs` counts loss evaluations: one per gradient and one per line-search
probe; inner dual iterations touch only the surrogate and cost none. The
gradient at the point the line search just accepted reuses that probe's
margins A x, so a unit-step iteration makes two data products, A(x+d) and
A'c. The loss chose its data's storage once, at construction, for every
solver.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .lbfgs import LbfgsMetric
from .problems import CompositeProblem
from .scd import DualState, continuation_solve

__all__ = [
    "ARMIJO",
    "BACKTRACK_FACTOR",
    "SolverConfig",
    "TraceRow",
    "SolveTrace",
    "Solution",
    "LineSearchFailure",
    "SolverError",
    "gamma",
    "line_search",
    "solve",
    "unit_step_tail",
]


class SolverError(RuntimeError):
    """Non-recoverable solver state, e.g. a non-finite objective."""


class LineSearchFailure(RuntimeError):
    """Backtracking underflowed; carries the state that produced it."""

    def __init__(self, step, gamma_k, objective, probes):
        self.step = step
        self.gamma_k = gamma_k
        self.objective = objective
        self.probes = probes
        super().__init__(
            f"line search underflowed at t={step:.3e} (gamma={gamma_k:.3e}, "
            f"f={objective:.6e}, probes={probes}); the search direction is "
            "corrupted or the inner tolerance is too loose"
        )


def _check_settings(config, rules):
    """Raise ValueError for the first (field, holds, rule) that does not hold.

    Each condition is written so that nan fails it.
    """
    for name, ok, rule in rules:
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {getattr(config, name)}")


ARMIJO = 1e-4            # sufficient-descent constant, in (0, 1/2)
BACKTRACK_FACTOR = 0.5   # step-length shrink per rejected probe


@dataclass
class SolverConfig:
    outer_tolerance: float = 1e-8       # relative objective change
    max_outer: int = 500
    lbfgs_memory: int = 10              # 0 keeps the metric fixed at sigma0 * I
    inner_tolerance: float = None       # default max(1e-10, 0.1 * outer_tolerance)
    continuation_restarts: int = 3
    max_inner: int = 2000
    sigma0: float = 1.0
    stall_iterations: int = 3
    record_iterates: bool = False

    def __post_init__(self):
        _check_settings(self, (
            ("outer_tolerance", self.outer_tolerance >= 0, ">= 0"),
            ("max_outer", self.max_outer >= 1, ">= 1"),
            ("lbfgs_memory", self.lbfgs_memory >= 0, ">= 0"),
            ("inner_tolerance",
             self.inner_tolerance is None or self.inner_tolerance >= 0, "None or >= 0"),
            ("continuation_restarts", self.continuation_restarts >= 1, ">= 1"),
            ("max_inner", self.max_inner >= 1, ">= 1"),
            ("sigma0", math.isfinite(self.sigma0) and self.sigma0 > 0, "finite and > 0"),
            ("stall_iterations", self.stall_iterations >= 1, ">= 1"),
        ))

    def resolved_inner_tolerance(self) -> float:
        if self.inner_tolerance is not None:
            return self.inner_tolerance
        return max(1e-10, 0.1 * self.outer_tolerance)


@dataclass
class TraceRow:
    iteration: int
    objective: float
    step: float
    gamma: float
    inner_iterations: int
    epochs: int               # cumulative loss evaluations (gradients + probes)
    seconds: float            # cumulative wall time
    sigma: float
    beta: float
    work: float               # cumulative-free: flops attributed to this iteration
    gap_estimate: float
    dir_h_dir: float          # d' H d for the accepted direction
    dual_shift: float         # ||z_warm - z_final||_2 across the inner solve
    curvature_accepted: bool
    inner_converged: bool


@dataclass
class SolveTrace:
    rows: list = field(default_factory=list)
    status: str = "running"
    initial_objective: float = float("nan")
    iterates: list = field(default_factory=list)

    def objectives(self):
        return np.array([r.objective for r in self.rows])

    def steps(self):
        return np.array([r.step for r in self.rows])

    @property
    def iterations(self) -> int:
        return len(self.rows)

    @property
    def epochs(self) -> int:
        return self.rows[-1].epochs if self.rows else 0


@dataclass
class Solution:
    x: np.ndarray
    objective: float
    trace: SolveTrace
    duals: DualState = None


def gamma(problem: CompositeProblem, x_k, delta, grad_k) -> float:
    """Composite directional decrease grad'd + Psi(x+d) - Psi(x); <= 0 for a
    direction from an (approximately) solved surrogate."""
    return float(grad_k @ delta) + problem.penalty(x_k + delta) - problem.penalty(x_k)


def line_search(problem, x_k, delta, gamma_k, f_value=None):
    """Largest t in {1, c, c^2, ...}, c = BACKTRACK_FACTOR, meeting the
    sufficient-descent test.

    Returns (t, f(x + t*delta), probes). Every probe is one data pass.
    A non-finite gamma_k means the direction or the data overflowed, which
    no step length can mend, so it raises SolverError before any probe.
    """
    if not np.isfinite(gamma_k):
        raise SolverError(f"gamma is not finite ({gamma_k}); the search direction "
                          "overflowed, check the data scale")
    if gamma_k > 0:
        raise ValueError(f"gamma must be <= 0 for a descent direction, got {gamma_k}")
    if f_value is None:
        f_value = problem.objective(x_k)
    t = 1.0
    probes = 0
    while True:
        f_t = problem.objective(x_k + t * delta)
        probes += 1
        if f_t <= f_value + ARMIJO * t * gamma_k:
            return t, f_t, probes
        t *= BACKTRACK_FACTOR
        if t < 1e-12:
            raise LineSearchFailure(t, gamma_k, f_value, probes)


def unit_step_tail(trace: SolveTrace) -> bool:
    """True iff every iteration in the trace's last quartile took t = 1."""
    rows = trace.rows
    if not rows:
        return False
    tail = max(1, len(rows) // 4)
    return all(r.step == 1.0 for r in rows[-tail:])


def solve(problem: CompositeProblem, config: SolverConfig = None, x0=None) -> Solution:
    cfg = config if config is not None else SolverConfig()
    p = problem.dim
    x = np.zeros(p) if x0 is None else np.array(x0, dtype=np.float64)
    if x.shape != (p,):
        raise ValueError(f"x0 must have length {p}")

    metric = LbfgsMetric(p, capacity=cfg.lbfgs_memory, sigma=cfg.sigma0)
    eps_inner = cfg.resolved_inner_tolerance()
    t0 = time.perf_counter()

    epochs = 1
    g_val, grad = problem.loss.value_grad(x)
    f_val = g_val + problem.penalty(x)
    if not np.isfinite(f_val):
        raise SolverError(f"objective is not finite at the starting point: {f_val}")

    trace = SolveTrace(initial_objective=f_val)
    if cfg.record_iterates:
        trace.iterates.append(x.copy())
    duals = None
    stall = 0
    status = "max_outer"

    for k in range(cfg.max_outer):
        inner = continuation_solve(
            metric, x, grad, problem.terms, warm_duals=duals,
            tolerance=eps_inner, max_inner=cfg.max_inner,
            restarts=cfg.continuation_restarts,
        )
        delta = inner.direction
        gam = gamma(problem, x, delta, grad)

        # no certifiable decrease: gamma is zero to within the inner gap, so
        # the direction is dual-solver noise and the iterate is stationary
        scale = max(1.0, abs(f_val))
        if gam >= -1e-14 * scale or (
            inner.converged and -gam <= 2.0 * inner.gap_estimate
        ):
            status = "converged"
            break

        try:
            t, f_new, probes = line_search(problem, x, delta, gam, f_value=f_val)
        except LineSearchFailure:
            # dominant cause is an under-solved surrogate: tighten once, retry
            inner = continuation_solve(
                metric, x, grad, problem.terms, warm_duals=inner.duals,
                tolerance=eps_inner * 0.01, max_inner=cfg.max_inner,
                restarts=cfg.continuation_restarts,
            )
            delta = inner.direction
            gam = gamma(problem, x, delta, grad)
            if gam >= -1e-14 * scale:
                status = "converged"
                break
            t, f_new, probes = line_search(problem, x, delta, gam, f_value=f_val)
        epochs += probes

        if not np.isfinite(f_new):
            raise SolverError(f"objective became non-finite at iteration {k + 1}")

        dir_h_dir = float(delta @ metric.apply(delta))
        dual_shift = _dual_shift(duals, inner.duals)

        x_new = x + t * delta
        g_new, grad_new = problem.loss.value_grad(x_new)
        epochs += 1
        s = x_new - x
        y_vec = grad_new - grad
        accepted = False
        if float(s @ y_vec) > 0.0:
            accepted = metric.push_pair(s, y_vec)
            if accepted:
                metric.adapt_h0(t, s, y_vec)
        # anneal beta toward 1 on each unit step, so the aggressive seed decay
        # tapers off once the metric stops being rejected; a fixed metric
        # (no pair memory) keeps its beta
        if t == 1.0 and metric.capacity:
            metric.beta = 2.0 / (1.0 + 1.0 / metric.beta)

        work = inner.work + (probes + 1) * problem.loss.pass_cost
        trace.rows.append(TraceRow(
            iteration=k + 1, objective=f_new, step=t, gamma=gam,
            inner_iterations=inner.inner_iterations, epochs=epochs,
            seconds=time.perf_counter() - t0, sigma=metric.sigma,
            beta=metric.beta, work=work, gap_estimate=inner.gap_estimate,
            dir_h_dir=dir_h_dir, dual_shift=dual_shift,
            curvature_accepted=accepted, inner_converged=inner.converged,
        ))
        if cfg.record_iterates:
            trace.iterates.append(x_new.copy())

        rel = abs(f_val - f_new) / max(1.0, abs(f_val))
        x, grad, f_val = x_new, grad_new, f_new
        duals = inner.duals

        if rel <= cfg.outer_tolerance:
            stall += 1
            if stall >= cfg.stall_iterations:
                status = "converged"
                break
        else:
            stall = 0

    trace.status = status
    return Solution(x=x, objective=f_val, trace=trace, duals=duals)


def _dual_shift(warm, final: DualState) -> float:
    if warm is None:
        ref = [np.zeros_like(b.z) for b in final.blocks]
    else:
        ref = list(warm.aux_v)
    total = 0.0
    for a, b in zip(ref, final.aux_v):
        diff = b - a
        total += float(diff @ diff)
    return float(np.sqrt(total))
