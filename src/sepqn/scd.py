"""Accelerated dual solver for the quadratic-metric surrogate model.

Each outer iteration minimizes the local model

    g(x_k) + grad'(x - x_k) + 1/2 (x - x_k)' H (x - x_k) + sum_i psi_i(W_i x + b_i)

through its smoothed conic dual. For dual blocks z_i constrained to the
dual-norm ball of each penalty, the reduced Lagrangian has the closed-form
minimizer

    xhat(z) = x_k - H^{-1} (grad - sum_i W_i' z_i),

and the negated dual objective is smooth with Lipschitz gradient
(W_1 xhat(z) + b_1, ..., W_N xhat(z) + b_N), so an accelerated projected
gradient scheme applies. The iteration keeps two feasible sequences: z takes
the aggressive steps delta/theta, v is the averaged solution sequence, and the
extrapolation point y blends them. Per-term steps are independent, so the
block updates could run in parallel without changing the result.

Stopping is certified by the summed per-term Fenchel gap at the recovered
primal point plus the surrogate stationarity residual ||H d + r||, both below
the inner tolerance. The residual is evaluated only at stop candidates, the
iterates whose gap meets the tolerance, and once more for the iterate a run
returns when it hits max_inner. The step size delta is backtracked against the
standard upper quadratic bound and regrown by 1.1 on success.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lbfgs import LbfgsMetric
from .projections import KERNELS, DualBlock, projection_cost

# the hot loop's per-kind kernels, read on every solve_surrogate call; kept as
# tables of their own so a wrapper installed here sees only this loop's calls
_PROJECT_RAW = {kind: k.project for kind, k in KERNELS.items()}
_NORM_RAW = {kind: k.norm for kind, k in KERNELS.items()}

__all__ = [
    "DualState",
    "InnerResult",
    "recover_primal",
    "dual_objective",
    "initial_step_delta",
    "solve_surrogate",
    "continuation_solve",
]


@dataclass(frozen=True, eq=False)
class DualState:
    blocks: tuple          # DualBlock per term (z sequence)
    aux_v: tuple           # averaged sequence, one array per term
    theta: float
    step_delta: float
    inner_iter: int


@dataclass(frozen=True, eq=False)
class InnerResult:
    direction: np.ndarray  # xhat - x_k
    duals: DualState
    inner_iterations: int
    gap_estimate: float
    residual: float
    converged: bool
    entry_gap: float
    step_delta: float
    backtracks: int
    work: float
    rounds: tuple = ()     # (entry_gap, final_gap, iterations) per continuation round


def _warm_arrays(warm, terms):
    if warm is None:
        return [np.zeros(t.op.output_dim) for t in terms]
    if isinstance(warm, DualState):
        return [np.array(v, dtype=np.float64) for v in warm.aux_v]
    out = []
    for item in warm:
        z = item.z if isinstance(item, DualBlock) else item
        out.append(np.array(z, dtype=np.float64))
    return out


def _stack(parts):
    """One vector holding the per-term blocks in order."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.zeros(0)


def _block_slices(terms):
    """Where each term's block sits in a stacked vector."""
    ends = np.cumsum([t.op.output_dim for t in terms]).tolist()
    return [slice(lo, hi) for lo, hi in zip([0] + ends[:-1], ends)]


def _blocks(terms, arrays):
    return tuple(
        DualBlock(z, t.weight, t.kind) for t, z in zip(terms, arrays)
    )


def _recovery(metric, x_k, grad_k, terms):
    """The primal recovery kernel at z, with the per-term kernels bound once.

    recover(z) returns xhat = x_k - H^{-1}(grad - sum W_i' z_i), the stacked
    images u = (W_i xhat + b_i), the constant-free negated dual value
    -D(z) = -(grad'd + 1/2 d'Hd - z'u) with d = xhat - x_k, the displacement
    d, and the pull-back r = grad - sum W_i' z_i. H d = -r exactly, so
    d'Hd = -d'r.
    """
    t_apply = [t.op._apply for t in terms]
    pull = list(zip([t.op._apply_transpose for t in terms], _block_slices(terms)))
    offset = _stack([t.offset for t in terms])

    def recover(z):
        r = grad_k.copy()
        for tapply, sl in pull:
            r -= tapply(z[sl])
        d = -metric.inv_apply(r)
        xhat = x_k + d
        u = _stack([apply(xhat) for apply in t_apply]) + offset
        dneg = -(float(grad_k @ d) - 0.5 * float(d @ r) - float(z @ u))
        return xhat, u, dneg, d, r

    return recover


def _recover_at(metric, x_k, grad_k, terms, duals):
    terms = tuple(terms)
    zs = _warm_arrays(duals, terms)
    shapes = [z.shape for z in zs]
    if shapes != [(t.op.output_dim,) for t in terms]:
        raise ValueError(f"dual blocks of shapes {shapes} do not fit the terms")
    recover = _recovery(metric, np.asarray(x_k, dtype=np.float64),
                        np.asarray(grad_k, dtype=np.float64), terms)
    return recover(_stack(zs))


def recover_primal(metric: LbfgsMetric, x_k, grad_k, terms, duals) -> np.ndarray:
    """Reduced-Lagrangian minimizer xhat = x_k - H^{-1}(grad - sum W_i' z_i)."""
    return _recover_at(metric, x_k, grad_k, terms, duals)[0]


def dual_objective(metric: LbfgsMetric, x_k, grad_k, terms, duals, g_value=0.0) -> float:
    """Negated dual value at the given blocks, evaluated at the exact minimizer.

    Includes the model's constant term only when g_value is supplied; the
    solver uses differences, where the constant cancels.
    """
    return _recover_at(metric, x_k, grad_k, terms, duals)[2] - g_value


def _operator_norm(op):
    cached = getattr(op, "_norm_cache", None)
    if cached is None:
        cached = op.norm_estimate()
        op._norm_cache = cached
    return cached


def initial_step_delta(metric: LbfgsMetric, terms) -> float:
    """1 / L for the dual gradient, from (sum ||W_i||)^2 * ||H^{-1}||."""
    total = sum(_operator_norm(t.op) for t in terms)
    lip = total * total * metric.inv_norm_estimate()
    if lip <= 0.0:
        return 1.0
    return 1.0 / lip


def _next_theta(theta):
    return 2.0 / (1.0 + math.sqrt(1.0 + 4.0 / (theta * theta)))


def solve_surrogate(metric, x_k, grad_k, terms, warm_duals=None, tolerance=1e-10,
                    max_inner=2000, step_delta=None) -> InnerResult:
    """Run the accelerated dual loop until the gap certificate meets tolerance.

    Returns the search direction xhat - x_k together with the final dual state
    for warm-starting the next call. Hitting max_inner is not an error: the
    best certified iterate seen is returned with converged=False.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    if max_inner < 1:
        raise ValueError("max_inner must be >= 1")
    x_k = np.asarray(x_k, dtype=np.float64)
    grad_k = np.asarray(grad_k, dtype=np.float64)
    terms = tuple(terms)
    n_terms = len(terms)
    p = x_k.shape[0]

    work = 0.0
    recover_cost = (
        metric.inv_apply_cost
        + sum(2 * t.op.apply_cost for t in terms)
        + p
        + sum(t.op.output_dim for t in terms)
    )
    proj_cost = sum(projection_cost(t.kind, t.op.output_dim) for t in terms)

    if n_terms == 0:
        xhat = x_k - metric.inv_apply(grad_k)
        work += recover_cost
        state = DualState((), (), 1.0, step_delta or 1.0, 0)
        return InnerResult(
            direction=xhat - x_k, duals=state, inner_iterations=0,
            gap_estimate=0.0, residual=0.0, converged=True, entry_gap=0.0,
            step_delta=state.step_delta, backtracks=0, work=work,
        )

    # unwrapped per-term kernels: attribute lookups and wrapper objects are
    # too slow for a loop that runs tens of thousands of times
    t_weight = [t.weight for t in terms]
    t_project = [_PROJECT_RAW[t.kind] for t in terms]
    t_norm = [_NORM_RAW[t.kind] for t in terms]
    rng_terms = range(n_terms)
    # the dual blocks live stacked in one vector, so the elementwise steps
    # run once over all terms; the kernels see each term's slice
    t_slice = _block_slices(terms)
    recover = _recovery(metric, x_k, grad_k, terms)

    def certificate(z, u):
        total = 0.0
        for sl, weight, norm in zip(t_slice, t_weight, t_norm):
            ui = u[sl]
            total += weight * norm(ui) + float(z[sl] @ ui)
        return total

    zs = _warm_arrays(warm_duals, terms)
    if len(zs) != n_terms:
        raise ValueError(
            f"warm duals carry {len(zs)} blocks for {n_terms} terms"
        )
    # defensive projection: warm duals from a different weight stay feasible
    z = _stack([t_project[i](zs[i], t_weight[i]) for i in rng_terms])
    v = z.copy()
    theta = 1.0
    delta = step_delta if step_delta is not None else initial_step_delta(metric, terms)
    delta_floor = delta * 1e-18

    def stationarity(d, r):
        # ||H d + r||, the surrogate stationarity residual at a recovered point
        nonlocal work
        work += metric.apply_cost + p
        resid_vec = metric.apply(d) + r
        return math.sqrt(resid_vec @ resid_vec)

    entry_gap = None
    best = None  # (gap, d, r, xhat, z, v, theta)
    backtracks = 0
    iterations = 0
    converged = False

    for j in range(max_inner):
        one_m_theta = 1.0 - theta
        y = one_m_theta * v + theta * z
        _, u_y, dneg_y, _, _ = recover(y)
        work += recover_cost
        if entry_gap is None:
            # theta starts at 1, so the first y is exactly the warm point
            entry_gap = certificate(y, u_y)

        while True:
            w = z - (delta / theta) * u_y
            z_new = _stack([t_project[i](w[t_slice[i]], t_weight[i]) for i in rng_terms])
            v_new = one_m_theta * v + theta * z_new
            xhat_v, u_v, dneg_v, d_v, r_v = recover(v_new)
            work += recover_cost + proj_cost
            dv = v_new - y
            bound = dneg_y + float(u_y @ dv) + float(dv @ dv) / (2.0 * delta)
            if dneg_v <= bound + 1e-12 * (1.0 + abs(dneg_y)) or delta <= delta_floor:
                break
            delta *= 0.5
            backtracks += 1
        delta *= 1.1

        iterations = j + 1
        gap = certificate(v_new, u_v)
        # no copies: every array here is fresh and never written in place
        if best is None or gap < best[0]:
            best = (gap, d_v, r_v, xhat_v, z_new, v_new, theta)

        z, v = z_new, v_new
        theta = _next_theta(theta)

        # the residual can change the stop decision only once the gap is met
        if gap <= tolerance:
            residual = stationarity(d_v, r_v)
            if residual <= tolerance + 1e-12 * (1.0 + math.sqrt(r_v @ r_v)):
                converged = True
                best = (gap, d_v, r_v, xhat_v, z, v, theta)
                break

    gap, d, r, xhat, z, v, theta = best
    if not converged:
        residual = stationarity(d, r)
    state = DualState(_blocks(terms, [z[sl] for sl in t_slice]),
                      tuple(v[sl] for sl in t_slice), theta, delta, iterations)
    return InnerResult(
        direction=xhat - x_k, duals=state, inner_iterations=iterations,
        gap_estimate=gap, residual=residual, converged=converged,
        entry_gap=entry_gap if entry_gap is not None else gap,
        step_delta=delta, backtracks=backtracks, work=work,
    )


def continuation_solve(metric, x_k, grad_k, terms, warm_duals=None, tolerance=1e-10,
                       max_inner=2000, restarts=1, step_delta=None) -> InnerResult:
    """Re-solve with geometrically tightening tolerance, re-centered each round.

    Round r runs at tolerance * 10^(restarts-1-r), warm-started from the
    previous round's duals, so the final round runs at the requested
    tolerance; with restarts=1 this is exactly one solve_surrogate call.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    duals = warm_duals
    delta = step_delta
    rounds = []
    total_iters = 0
    total_work = 0.0
    total_bt = 0
    result = None
    for r in range(restarts):
        round_tol = tolerance * (10.0 ** (restarts - 1 - r))
        result = solve_surrogate(
            metric, x_k, grad_k, terms, warm_duals=duals,
            tolerance=round_tol, max_inner=max_inner, step_delta=delta,
        )
        total_iters += result.inner_iterations
        total_work += result.work
        total_bt += result.backtracks
        rounds.append((result.entry_gap, result.gap_estimate, result.inner_iterations))
        duals = result.duals
        delta = result.step_delta
        if result.gap_estimate <= tolerance:
            break
    return replace(
        result,
        inner_iterations=total_iters,
        work=total_work,
        backtracks=total_bt,
        converged=result.gap_estimate <= tolerance,
        entry_gap=rounds[0][0],
        rounds=tuple(rounds),
    )
