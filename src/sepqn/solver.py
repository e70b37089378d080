"""Outer proximal quasi-Newton loop.

Each iteration solves the quadratic-metric surrogate through its dual
(warm-started from the previous iteration's optimal duals), backtracks a step
length by BACKTRACK_FACTOR against the sufficient-descent test

    f(x + t*d) <= f(x) + ARMIJO * t * gamma,    gamma = grad'd + Psi(x+d) - Psi(x),

and hands the step's curvature pair to `LbfgsMetric.update`, which keeps it
when s'y > 0 and rescales the seed matrix. Each surrogate's dual loop is
handed the step size the previous one ended with, unchanged, as TFOCS
(Becker, Candes & Grant 2011) keeps its step from one solve to the next, and
the loop caps it at the closed-form `scd.step_delta_cap` of the metric it
solves over; only the first iteration starts at `scd.initial_step_delta`,
while the metric holds no pairs, so no solve runs an eigensolve. Besides the
gamma test, the loop stops after `stall_iterations` (STALL_ITERATIONS by
default) consecutive small objective changes, counted by `_stall_count`,
the rule FISTA shares.

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
names the exit that fired. A row counts every surrogate solve made for it,
the guard's and the retry's re-solves included, as `surrogate_solves`, and
sums their `inner_iterations`, `dual_backtracks` and `failed_checks`; its
gap, `inner_converged` and `working_set` are the last solve's, and so are
the duals a `Solution` returns. A working-set solve counts as one solve,
with its rounds' counts summed.

A penalty that is one l1 term over the identity (l1-logistic) may solve its
surrogate over a working set of coordinates instead, the proximal Newton
restriction of Zhong, Yen, Dhillon & Ravikumar (2014) and Celer (Massias,
Gramfort & Salmon 2018), whenever the set holds at most WORKING_SET_SHARE of
them; `_working_set_surrogate` describes the rounds and the full-dimensional
certificate. Every solve, restricted or full, is one call of the dual loop
`scd.solve_surrogate` through this module's global `continuation_solve`, and a
row's `working_set` is the size of its last surrogate's set.

`epochs` counts loss evaluations: one per gradient and one per line-search
probe, a failed search's probes included; inner dual iterations touch only
the surrogate and cost none. A loss evaluation is one pass over the data
that yields both the value and the gradient, so a probe's value costs as
much as a gradient, and a rejected probe drops the gradient it paid for.
The gradient at the point the line search just accepted is that probe's
evaluation, reused, so a unit-step iteration reads the data once and
evaluates each per-sample loss once. The loss chose its data's storage
once, at construction, for every solver.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .lbfgs import LbfgsMetric
from .operators import FINITE_POSITIVE, NONNEGATIVE, Identity, integer, optional, require
from .problems import CompositeProblem, NormKind, RegularizerTerm
from .projections import KERNELS
# the one dual-loop entry; the benchmark's tracer wraps this module global
from .scd import solve_surrogate as continuation_solve

__all__ = [
    "ARMIJO",
    "BACKTRACK_FACTOR",
    "FORCING",
    "STALL_ITERATIONS",
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


def _start_point(problem, x0):
    """(x, grad, f) at the start: x0 as a fresh float vector, zeros when None,
    the loss gradient and f = g + Psi there, from one data pass. Raises
    ValueError when x0 is not of length p, and SolverError when f is not
    finite, which no iteration could mend."""
    p = problem.dim
    x = np.zeros(p) if x0 is None else np.array(x0, dtype=np.float64)
    if x.shape != (p,):
        raise ValueError(f"x0 must have length {p}")
    g_val, grad = problem.loss.value_grad(x)
    f_val = g_val + problem.penalty(x)
    if not np.isfinite(f_val):
        raise SolverError(f"objective is not finite at the starting point: {f_val}")
    return x, grad, f_val


def _stall_count(stall, f_old, f_new, tolerance):
    """stall + 1 if f moved by at most tolerance relative to max(1, |f_old|), else 0."""
    rel = abs(f_old - f_new) / max(1.0, abs(f_old))
    return stall + 1 if rel <= tolerance else 0


ARMIJO = 1e-4            # sufficient-descent constant, in (0, 1/2)
BACKTRACK_FACTOR = 0.5   # step-length shrink per rejected probe
FORCING = 0.1            # cap of the forcing term eta_k of the default inner tolerance
STALL_ITERATIONS = 3     # small objective changes in a row that stop a solve
# a coordinate joins a working set when its gradient or warm dual lies within
# this share of the l1 weight of the ball's edge, where a nonzero's dual sits
WORKING_SET_MARGIN = 1e-3
# largest share of the coordinates solved as a working set; past it the full
# loop runs, as the rounds' full KKT applies and gathered pair columns cost
# more than the smaller loop saves (restricting every set slowed the
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
    stall_iterations: int = STALL_ITERATIONS

    def __post_init__(self):
        require("outer_tolerance", self.outer_tolerance, NONNEGATIVE)
        require("max_outer", self.max_outer, integer(1))
        require("lbfgs_memory", self.lbfgs_memory, integer(0))
        require("inner_tolerance", self.inner_tolerance, optional(NONNEGATIVE))
        require("max_inner", self.max_inner, integer(1))
        require("sigma0", self.sigma0, FINITE_POSITIVE)
        require("stall_iterations", self.stall_iterations, integer(1))

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
    # the surrogate's fields below keep their defaults on the baselines' rows
    surrogate_solves: int = 0     # surrogate solves made for this row
    dual_backtracks: int = 0      # their summed dual step backtracks
    failed_checks: int = 0        # their summed failed stop checks
    gap_estimate: float = 0.0
    dir_h_dir: float = 0.0    # d' H d for the accepted direction
    curvature_accepted: bool = False
    inner_converged: bool = True
    inner_tolerance: float = float("nan")   # the tolerance this surrogate was solved to
    working_set: int = 0      # size of the last surrogate's working set: p on the
                              # full loop


@dataclass
class SolveTrace:
    rows: list = field(default_factory=list)
    status: str = "running"
    stop_reason: str = None   # sepqn's exit: "gamma", "stall", "retry" or "max_outer"
    initial_objective: float = float("nan")
    epochs: int = 0   # loss evaluations the whole solve made, set at its exit

    def objectives(self):
        return np.array([r.objective for r in self.rows])

    @property
    def iterations(self) -> int:
        return len(self.rows)


@dataclass
class Solution:
    x: np.ndarray
    objective: float
    trace: SolveTrace
    duals: tuple = None   # the last surrogate's duals, one array per term


def gamma(problem: CompositeProblem, x_k, delta, grad_k) -> float:
    """Composite directional decrease grad'd + Psi(x+d) - Psi(x); <= 0 for a
    direction from an (approximately) solved surrogate."""
    return float(grad_k @ delta) + problem.penalty(x_k + delta) - problem.penalty(x_k)


def line_search(problem, x_k, delta, gamma_k, f_value):
    """Largest t in {1, c, c^2, ...}, c = BACKTRACK_FACTOR, meeting the
    sufficient-descent test, where f_value is f(x_k).

    Returns (t, f(x + t*delta), probes). Every probe is one data pass.
    A non-finite gamma_k means the direction or the data overflowed, which
    no step length can mend, so it raises SolverError before any probe.
    """
    if not np.isfinite(gamma_k):
        raise SolverError(f"gamma is not finite ({gamma_k}); the search direction "
                          "overflowed, check the data scale")
    if gamma_k > 0:
        raise ValueError(f"gamma must be <= 0 for a descent direction, got {gamma_k}")
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


def _working_set_surrogate(metric, x, grad, term, warm_duals, tolerance, max_inner,
                           step_delta):
    """Solve the surrogate of the l1 `term` over a working set J, or return None.

    J holds the coordinates whose gradient or warm dual lies within
    WORKING_SET_MARGIN of the ball's edge. Unless 0 < |J| <= WORKING_SET_SHARE
    of the coordinates, this returns None and the caller runs the full
    loop. Otherwise xhat is pinned to 0 off J (d_j = -x_j there), and the
    surrogate over J, with metric H_JJ = `metric.restricted(J)` and linear
    term grad_J + H[J, off] d_off, the cross product over the nonzeros of d
    off J, goes to `continuation_solve`. The KKT check is the one full
    product of a round: q = grad + H d. Coordinates off J with
    |q_j| > weight join J and the restricted solve repeats, warm. Each round
    hands on the carried dual step, which the loop caps at its view's
    `step_delta_cap`.
    Once none join, z = q projected onto the dual box |z_j| <= weight and
    the recovery at z, dhat = H^{-1}(z - grad) = d - H^{-1}(q - z), certify
    d by the full primal-dual gap P(d) - D(z), summed as its nonnegative parts
    weight ||x + d||_1 + z'(x + d) + (d - dhat)'(q - z) / 2,
    where q - z is zero off J, so `metric.inv_form` takes its form over J
    from the last view's columns.

    Returns the last round's InnerResult with the full-length d, duals (z,),
    the gap, the rounds' summed counts and `h_direction`, the H d of the
    last KKT check; its `working_set` is the last round's |J|.
    """
    p, weight = metric.dim, term.weight
    z = np.zeros(p) if warm_duals is None else warm_duals[0]
    edge = weight * (1.0 - WORKING_SET_MARGIN)
    member = (np.abs(grad) >= edge) | (np.abs(z) >= edge)
    if not 0 < np.count_nonzero(member) <= WORKING_SET_SHARE * p:
        return None
    rounds = []
    while True:
        idx = np.flatnonzero(member)
        d = -x
        d[idx] = 0.0
        view = metric.restricted(idx)
        linear = grad[idx]
        off = np.flatnonzero(d)
        if off.size:
            linear = linear + metric.cross_apply(view, off, d[off])
        terms = (RegularizerTerm(NormKind.L1, weight, Identity(idx.size)),)
        inner = continuation_solve(view, x[idx], linear, terms, warm_duals=[z[idx]],
                                   tolerance=tolerance, max_inner=max_inner,
                                   step_delta=step_delta)
        rounds.append(inner)
        d[idx] = inner.direction
        h_d = metric.apply(d)
        q = grad + h_d
        z = KERNELS[NormKind.L1].project(q, weight)
        joining = np.abs(q) > weight
        joining[idx] = False
        if not joining.any():
            break
        member |= joining
        step_delta = inner.step_delta
        del view   # one gathered copy of the pair columns at a time
    w, clipped = x + d, q - z
    gap = (float(np.sum(weight * np.abs(w) + z * w))
           + 0.5 * metric.inv_form(view, clipped[idx]))
    return replace(
        inner, direction=d,
        duals=(z,),
        inner_iterations=sum(r.inner_iterations for r in rounds),
        gap_estimate=gap, converged=gap <= tolerance,
        backtracks=sum(r.backtracks for r in rounds),
        momentum_resets=sum(r.momentum_resets for r in rounds),
        failed_checks=sum(r.failed_checks for r in rounds), h_direction=h_d)


def solve(problem: CompositeProblem, config: SolverConfig = None, x0=None) -> Solution:
    cfg = config if config is not None else SolverConfig()
    metric = LbfgsMetric(problem.dim, capacity=cfg.lbfgs_memory, sigma=cfg.sigma0)
    # the penalty a working set can restrict: one l1 term over the identity
    l1_term = problem.sole_identity_term()
    if l1_term is not None and l1_term.kind is not NormKind.L1:
        l1_term = None
    eps_inner = cfg.resolved_inner_tolerance()
    t0 = time.perf_counter()

    epochs = 1
    x, grad, f_val = _start_point(problem, x0)

    trace = SolveTrace(initial_objective=f_val)
    adaptive = cfg.inner_tolerance is None
    tol = eps_inner   # this surrogate's tolerance; the first is at the floor
    duals = None
    step = None   # the dual step the last surrogate ended with
    stall = 0
    reason = "max_outer"

    def surrogate(tolerance, warm_duals, step_delta):
        inner = None
        if l1_term is not None:
            inner = _working_set_surrogate(metric, x, grad, l1_term, warm_duals,
                                           tolerance, cfg.max_inner, step_delta)
        if inner is None:
            inner = continuation_solve(
                metric, x, grad, problem.terms, warm_duals=warm_duals,
                tolerance=tolerance, max_inner=cfg.max_inner,
                blocks=problem.blocks, step_delta=step_delta,
            )
        solves.append(inner)
        return inner, gamma(problem, x, inner.direction, grad)

    def stationary(gam, inner, scale):
        # no certifiable decrease: gamma is zero to within the inner gap, so
        # the direction is dual-solver noise and the iterate is stationary
        return gam >= -1e-14 * scale or (
            inner.converged and -gam <= 2.0 * inner.gap_estimate)

    for k in range(cfg.max_outer):
        # every surrogate solved for this row; the row counts them, sums
        # their counts, and reads the rest from the last one
        solves = []
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
        except LineSearchFailure as failure:
            # dominant cause is an under-solved surrogate: tighten once, retry
            epochs += failure.probes
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
        h_delta = metric.apply(delta) if inner.h_direction is None else inner.h_direction
        dir_h_dir = float(delta @ h_delta)

        x_new = x + t * delta
        g_new, grad_new = problem.loss.value_grad(x_new)
        epochs += 1
        accepted = metric.update(t, x_new - x, grad_new - grad)
        step = inner.step_delta

        trace.rows.append(TraceRow(
            iteration=k + 1, objective=f_new, step=t, gamma=gam,
            inner_iterations=sum(s.inner_iterations for s in solves), epochs=epochs,
            seconds=time.perf_counter() - t0, sigma=metric.sigma, beta=metric.beta,
            surrogate_solves=len(solves),
            dual_backtracks=sum(s.backtracks for s in solves),
            failed_checks=sum(s.failed_checks for s in solves),
            gap_estimate=inner.gap_estimate, dir_h_dir=dir_h_dir,
            curvature_accepted=accepted, inner_converged=inner.converged,
            inner_tolerance=tol, working_set=inner.working_set,
        ))

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

    trace.stop_reason, trace.epochs = reason, epochs
    trace.status = "max_outer" if reason == "max_outer" else "converged"
    return Solution(x=x, objective=f_val, trace=trace, duals=inner.duals)
