"""Outer proximal quasi-Newton loop.

Each iteration solves the quadratic-metric surrogate through its dual
(warm-started from the previous iteration's optimal duals), backtracks a step
length by BACKTRACK_FACTOR against the sufficient-descent test

    f(x + t*d) <= f(x) + ARMIJO * t * gamma,    gamma = grad'd + Psi(x+d) - Psi(x),

and hands the step's curvature pair to `LbfgsMetric.update`, which keeps it
when s'y > 0 and rescales the seed matrix. Each surrogate's dual loop starts
from the step size the previous one ended with, capped by
`scd.step_delta_cap` of the updated metric, as TFOCS (Becker, Candes & Grant
2011) keeps its step from one solve to the next; only the first iteration
starts at `scd.initial_step_delta`. Besides the gamma test, the loop
stops after `stall_iterations` consecutive small objective changes, counted
by `_stall_count`, the rule FISTA shares.

With `inner_tolerance=None` the surrogates are solved inexactly, by the
forcing rule of Lee, Sun & Saunders (2014, "Proximal Newton-type methods for
minimizing composite functions"): the first at the floor
eps = `resolved_inner_tolerance()`, and surrogate k at

    max(eps, eta_k * |gamma_{k-1}|),   eta_k = min(FORCING, |gamma_{k-1}| / max(1, |f_k|)),

so eta_k -> 0 and the superlinear rate survives. Only a surrogate solved at
eps (or tighter) may end a solve: when the gamma test fires on a looser one,
that surrogate is re-solved at eps, warm from its own duals and final step,
and tested again; when the stall count is reached on a looser one, the next
surrogate is solved at eps before the stall may stop the solve. An explicit
`inner_tolerance` fixes every surrogate's tolerance. `SolveTrace.stop_reason`
names the exit that fired. A row's `inner_iterations` and `work` count every
surrogate solve made for it, the guard's and the retry's re-solves included;
its gap and `inner_converged` are the last solve's.

A penalty that is one l1 term over the identity (l1-logistic) may solve its
surrogate over a working set of coordinates instead, the proximal Newton
restriction of Zhong, Yen, Dhillon & Ravikumar (2014) and Celer (Massias,
Gramfort & Salmon 2018), whenever the set holds at most WORKING_SET_SHARE of
them; `_working_set_surrogate` describes the rounds and the full-dimensional
certificate. Every solve, restricted or full, is one call of the dual loop
`scd.solve_surrogate` through this module's global `continuation_solve`, and a
row's `working_set` is the size of its last surrogate's set.

`epochs` counts loss evaluations: one per gradient and one per line-search
probe; inner dual iterations touch only the surrogate and cost none. The
gradient at the point the line search just accepted reuses that probe's
whole loss evaluation, so a unit-step iteration makes two data products,
A(x+d) and A'c, and evaluates each per-sample loss once. The loss chose its
data's storage once, at construction, for every solver.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .lbfgs import LbfgsMetric
from .operators import Identity
from .problems import CompositeProblem, NormKind, RegularizerTerm
from .projections import DualBlock
from .scd import DualState, recovery_cost, step_delta_cap, surrogate_work
# the one dual-loop entry; the benchmark's tracer wraps this module global
from .scd import solve_surrogate as continuation_solve

__all__ = [
    "ARMIJO",
    "BACKTRACK_FACTOR",
    "FORCING",
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


def _integer_at_least(value, low) -> bool:
    """value is an integer (numpy's included) and >= low; a float is not."""
    return isinstance(value, numbers.Integral) and value >= low


def _stall_count(stall, f_old, f_new, tolerance):
    """stall + 1 if f moved by at most tolerance relative to max(1, |f_old|), else 0."""
    rel = abs(f_old - f_new) / max(1.0, abs(f_old))
    return stall + 1 if rel <= tolerance else 0


ARMIJO = 1e-4            # sufficient-descent constant, in (0, 1/2)
BACKTRACK_FACTOR = 0.5   # step-length shrink per rejected probe
FORCING = 0.1            # cap of the forcing term eta_k of the default inner tolerance
# a coordinate joins a working set when its gradient or warm dual lies within
# this share of the l1 weight of the ball's edge, where a nonzero's dual sits
WORKING_SET_MARGIN = 1e-3
# largest share of the coordinates solved as a working set; past it the full
# loop runs, as the rounds' full applies, recovery and gathered pair columns
# cost more than the smaller loop saves (restricting every set slowed the
# l1 solves of all three benchmark workloads)
WORKING_SET_SHARE = 0.5


@dataclass
class SolverConfig:
    outer_tolerance: float = 1e-8       # relative objective change
    max_outer: int = 500
    lbfgs_memory: int = 10              # 0 keeps the metric fixed at sigma0 * I
    inner_tolerance: float = None       # None: the forcing rule, see the module docstring
    max_inner: int = 2000
    sigma0: float = 1.0
    stall_iterations: int = 3
    record_iterates: bool = False

    def __post_init__(self):
        _check_settings(self, (
            ("outer_tolerance", self.outer_tolerance >= 0, ">= 0"),
            ("max_outer", _integer_at_least(self.max_outer, 1), "an integer >= 1"),
            ("lbfgs_memory", _integer_at_least(self.lbfgs_memory, 0), "an integer >= 0"),
            ("inner_tolerance",
             self.inner_tolerance is None or self.inner_tolerance >= 0, "None or >= 0"),
            ("max_inner", _integer_at_least(self.max_inner, 1), "an integer >= 1"),
            ("sigma0", math.isfinite(self.sigma0) and self.sigma0 > 0, "finite and > 0"),
            ("stall_iterations", _integer_at_least(self.stall_iterations, 1),
             "an integer >= 1"),
        ))

    def resolved_inner_tolerance(self) -> float:
        """The explicit inner tolerance, else the forcing rule's floor."""
        if self.inner_tolerance is not None:
            return self.inner_tolerance
        return max(1e-10, 0.01 * self.outer_tolerance)


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
    curvature_accepted: bool
    inner_converged: bool
    inner_tolerance: float = float("nan")   # the tolerance this surrogate was solved to
    working_set: int = 0      # size of the last surrogate's working set: p on the
                              # full loop, 0 on the baselines' rows


@dataclass
class SolveTrace:
    rows: list = field(default_factory=list)
    status: str = "running"
    stop_reason: str = None   # sepqn's exit: "gamma", "stall", "retry" or "max_outer"
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


def _l1_term(problem):
    """The penalty's term if it is one l1 term over the identity with zero
    offset, the penalty a working set can restrict; else None."""
    if len(problem.terms) != 1:
        return None
    (term,) = problem.terms
    if term.kind is NormKind.L1 and isinstance(term.op, Identity) and not term.offset.any():
        return term
    return None


def _working_set_surrogate(metric, x, grad, term, warm_duals, tolerance, max_inner,
                           step_delta):
    """Solve the surrogate of the l1 `term` over a working set J, or return None.

    J holds the coordinates whose gradient or warm dual lies within
    WORKING_SET_MARGIN of the ball's edge. Unless 0 < |J| <= WORKING_SET_SHARE
    of the coordinates, this returns None and the caller runs the full
    loop. Otherwise xhat is pinned to 0 off J (d_j = -x_j there), and the
    surrogate over J, with metric H_JJ = `metric.restricted(J)` and linear
    term (grad + H d_off)_J, goes to `continuation_solve`. One full apply
    gives q = grad + H d: coordinates off J with |q_j| > weight join J and
    the restricted solve repeats, warm. Each round starts from the carried
    dual step capped by its view's `step_delta_cap`. Once none join,
    z = clip(q) and the recovery at z, dhat = H^{-1}(z - grad) =
    d - H^{-1}(q - z), certify d by the full primal-dual gap P(d) - D(z),
    summed as its nonnegative parts
    weight ||x + d||_1 + z'(x + d) + (d - dhat)'(q - z) / 2.

    Returns (InnerResult with full-length d and duals z, modeled work, |J|).
    """
    p, weight = metric.dim, term.weight
    z = np.zeros(p)
    if warm_duals is not None:
        (z,) = warm_duals.aux_v
    edge = weight * (1.0 - WORKING_SET_MARGIN)
    member = (np.abs(grad) >= edge) | (np.abs(z) >= edge)
    if not 0 < np.count_nonzero(member) <= WORKING_SET_SHARE * p:
        return None
    results, work = [], 0.0
    while True:
        idx = np.flatnonzero(member)
        d = -x
        d[idx] = 0.0
        linear = grad[idx]
        if d.any():
            linear = linear + metric.apply(d)[idx]
            work += metric.inv_apply_cost   # an apply costs what an inverse apply does
        view = metric.restricted(idx)
        terms = (RegularizerTerm(NormKind.L1, weight, Identity(idx.size)),)
        if step_delta is not None:
            step_delta = min(step_delta, step_delta_cap(view, terms))
        inner = continuation_solve(view, x[idx], linear, terms, warm_duals=[z[idx]],
                                   tolerance=tolerance, max_inner=max_inner,
                                   step_delta=step_delta)
        results.append(inner)
        work += surrogate_work(view, terms, inner.inner_iterations, inner.backtracks,
                               inner.failed_checks)
        del view   # one gathered copy of the pair columns at a time
        d[idx] = inner.direction
        q = grad + metric.apply(d)
        work += metric.inv_apply_cost
        z = np.clip(q, -weight, weight)
        joining = np.abs(q) > weight
        joining[idx] = False
        if not joining.any():
            break
        member |= joining
        step_delta = inner.step_delta
    work += recovery_cost(metric, (term,))
    w, clipped = x + d, q - z
    gap = (float(np.sum(weight * np.abs(w) + z * w))
           + 0.5 * float(clipped @ metric.inv_apply(clipped)))
    inner = replace(
        inner, direction=d,
        duals=DualState((DualBlock(z, weight, NormKind.L1),), (z,)),
        inner_iterations=sum(r.inner_iterations for r in results),
        gap_estimate=gap, converged=gap <= tolerance,
        backtracks=sum(r.backtracks for r in results),
        momentum_resets=sum(r.momentum_resets for r in results),
        failed_checks=sum(r.failed_checks for r in results))
    return inner, work, idx.size


def solve(problem: CompositeProblem, config: SolverConfig = None, x0=None) -> Solution:
    cfg = config if config is not None else SolverConfig()
    p = problem.dim
    x = np.zeros(p) if x0 is None else np.array(x0, dtype=np.float64)
    if x.shape != (p,):
        raise ValueError(f"x0 must have length {p}")

    metric = LbfgsMetric(p, capacity=cfg.lbfgs_memory, sigma=cfg.sigma0)
    l1_term = _l1_term(problem)
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
    adaptive = cfg.inner_tolerance is None
    tol = eps_inner   # this surrogate's tolerance; the first is at the floor
    duals = None
    step = None   # the dual step carried from the last surrogate, capped
    stall = 0
    reason = "max_outer"

    def surrogate(tolerance, warm_duals, step_delta):
        # every solve of a row counts toward its inner iterations and work;
        # the work model reads the metric's size, so it is taken before update
        solved = None
        if l1_term is not None:
            solved = _working_set_surrogate(metric, x, grad, l1_term, warm_duals,
                                            tolerance, cfg.max_inner, step_delta)
        if solved is None:
            inner = continuation_solve(
                metric, x, grad, problem.terms, warm_duals=warm_duals,
                tolerance=tolerance, max_inner=cfg.max_inner,
                blocks=problem.blocks, step_delta=step_delta,
            )
            # each solve pays its own entry recovery and last stop check, so
            # the work model is taken per solve
            solved = inner, surrogate_work(
                metric, problem.terms, inner.inner_iterations, inner.backtracks,
                inner.failed_checks), p
        inner, work, spent[2] = solved
        spent[0] += inner.inner_iterations
        spent[1] += work
        return inner, gamma(problem, x, inner.direction, grad)

    def stationary(gam, inner, scale):
        # no certifiable decrease: gamma is zero to within the inner gap, so
        # the direction is dual-solver noise and the iterate is stationary
        return gam >= -1e-14 * scale or (
            inner.converged and -gam <= 2.0 * inner.gap_estimate)

    for k in range(cfg.max_outer):
        # this row's inner iterations, modeled dual-loop work and working set
        spent = [0, 0.0, p]
        inner, gam = surrogate(tol, duals, step)
        scale = max(1.0, abs(f_val))
        if tol > eps_inner and stationary(gam, inner, scale):
            # only a floor-tolerance surrogate may end the solve
            tol = eps_inner
            inner, gam = surrogate(tol, inner.duals, inner.step_delta)
        if stationary(gam, inner, scale):
            reason = "gamma"
            break

        try:
            t, f_new, probes = line_search(problem, x, inner.direction, gam, f_value=f_val)
        except LineSearchFailure:
            # dominant cause is an under-solved surrogate: tighten once, retry
            tol = eps_inner * 0.01
            inner, gam = surrogate(tol, inner.duals, step)
            if gam >= -1e-14 * scale:
                reason = "retry"
                break
            t, f_new, probes = line_search(problem, x, inner.direction, gam, f_value=f_val)
        epochs += probes

        if not np.isfinite(f_new):
            raise SolverError(f"objective became non-finite at iteration {k + 1}")

        delta = inner.direction
        dir_h_dir = float(delta @ metric.apply(delta))
        work = spent[1] + (probes + 1) * problem.loss.pass_cost

        x_new = x + t * delta
        g_new, grad_new = problem.loss.value_grad(x_new)
        epochs += 1
        accepted = metric.update(t, x_new - x, grad_new - grad)
        step = min(inner.step_delta, step_delta_cap(metric, problem.terms))

        trace.rows.append(TraceRow(
            iteration=k + 1, objective=f_new, step=t, gamma=gam,
            inner_iterations=spent[0], epochs=epochs,
            seconds=time.perf_counter() - t0, sigma=metric.sigma,
            beta=metric.beta, work=work, gap_estimate=inner.gap_estimate,
            dir_h_dir=dir_h_dir,
            curvature_accepted=accepted, inner_converged=inner.converged,
            inner_tolerance=tol, working_set=spent[2],
        ))
        if cfg.record_iterates:
            trace.iterates.append(x_new.copy())

        stall = _stall_count(stall, f_val, f_new, cfg.outer_tolerance)
        x, grad, f_val = x_new, grad_new, f_new
        duals = inner.duals
        if stall >= cfg.stall_iterations:
            if tol <= eps_inner:
                reason = "stall"
                break
            tol = eps_inner   # a stall on a loose surrogate is checked at the floor
        elif adaptive:
            eta = min(FORCING, abs(gam) / max(1.0, abs(f_val)))
            tol = max(eps_inner, eta * abs(gam))
        else:
            tol = eps_inner

    trace.stop_reason = reason
    trace.status = "max_outer" if reason == "max_outer" else "converged"
    return Solution(x=x, objective=f_val, trace=trace, duals=duals)
