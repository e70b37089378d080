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
extrapolation point y blends them. The momentum is restarted by the
gradient-mapping test of O'Donoghue & Candes (2015, "Adaptive restart for
accelerated gradient schemes"): when (y - v_new)'(v_new - v) > 0, the step
from y points against the last move of v, so theta is reset to 1 and z = v =
v_new. The test costs one dot product per step; the resets are counted.

The dual loop runs over term blocks, not terms. Every dual vector is stacked
in one array, so the elementwise steps run once over all terms. A maximal
run of group-selector terms with one l1 or l2 norm, one weight and disjoint
indices is one block: one gather for its images, one scatter for its
pull-back, and one segmented kernel call for its projection and its norm.
Each other term is a block of its own. The blocks are built once per
solve_surrogate call; the first dual step, the work model and the per-term
shape of the returned duals are those of the terms.

Stopping is certified by the summed per-term Fenchel gap at the recovered
primal point plus the surrogate stationarity residual ||H d + r||, both below
the inner tolerance. The residual is evaluated only at stop candidates, the
iterates whose gap meets the tolerance, and once more for the iterate a run
returns when it hits max_inner. The step size delta is backtracked against the
standard upper quadratic bound and regrown by 1.1 on success, up to
lambda_max(H) / max_i ||W_i||^2: L >= ||W_i||^2 lambda_min(H^{-1}) for each
term, so that cap is above every step 1 / L allows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .lbfgs import LbfgsMetric
from .operators import GroupSelector
from .projections import KERNELS, SEGMENTED, DualBlock, NormKind, projection_cost

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
    momentum_resets: int
    rounds: tuple = ()     # (entry_gap, final_gap, iterations) per continuation round


def _warm_stack(warm, terms):
    """The warm duals as one stacked vector; zeros when there are none."""
    if warm is None:
        return np.zeros(sum(t.op.output_dim for t in terms))
    if isinstance(warm, DualState):
        zs = [np.asarray(v, dtype=np.float64) for v in warm.aux_v]
    else:
        zs = [np.asarray(item.z if isinstance(item, DualBlock) else item,
                         dtype=np.float64) for item in warm]
    if len(zs) != len(terms):
        raise ValueError(f"warm duals carry {len(zs)} blocks for {len(terms)} terms")
    shapes = [z.shape for z in zs]
    if shapes != [(t.op.output_dim,) for t in terms]:
        raise ValueError(f"dual blocks of shapes {shapes} do not fit the terms")
    return np.concatenate(zs) if zs else np.zeros(0)


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


class TermBlock(NamedTuple):
    """Consecutive terms that take one kernel call per step.

    A run of two or more terms over `GroupSelector`s with one norm kind from
    SEGMENTED, one weight and pairwise-disjoint indices is fused: its image
    gathers x at the concatenated indices, its transpose scatters back, which
    is exact because no index repeats, and `seg` passes each term's segment
    start to the norm kernels. Every other term is a block of one that calls
    its operator's own kernels, with `seg` empty.
    """

    kind: NormKind
    weight: float
    terms: tuple
    sl: slice              # where the block sits in a stacked vector
    seg: tuple             # () or (segment starts,), the kernels' last argument
    image: Callable        # x -> W x, offsets left out
    transpose: Callable    # u -> W'u


def _fused(run, sl):
    idx = np.concatenate([t.op.indices for t in run])
    starts = np.cumsum([0] + [t.op.output_dim for t in run[:-1]])
    dim = run[0].op.input_dim

    def image(x):
        return x[idx]

    def transpose(u):
        out = np.zeros(dim)
        out[idx] = u
        return out

    return TermBlock(run[0].kind, run[0].weight, tuple(run), sl, (starts,),
                     image, transpose)


def _term_blocks(terms):
    """The terms as blocks, in order, each maximal run of fusable terms fused."""
    runs = []
    taken = None  # the indices the last run covers, while it can grow
    for t in terms:
        fusable = isinstance(t.op, GroupSelector) and t.kind in SEGMENTED
        if (fusable and taken is not None and t.kind is runs[-1][0].kind
                and t.weight == runs[-1][0].weight and not taken[t.op.indices].any()):
            runs[-1].append(t)
        else:
            runs.append([t])
            taken = np.zeros(t.op.input_dim, dtype=bool) if fusable else None
        if taken is not None:
            taken[t.op.indices] = True
    blocks, lo = [], 0
    for run in runs:
        sl = slice(lo, lo + sum(t.op.output_dim for t in run))
        lo = sl.stop
        if len(run) > 1:
            blocks.append(_fused(run, sl))
        else:
            (t,) = run
            blocks.append(TermBlock(t.kind, t.weight, (t,), sl, (),
                                    t.op._apply, t.op._apply_transpose))
    return blocks


def _recovery(metric, x_k, grad_k, blocks):
    """The primal recovery kernel at z, with the blocks' kernels bound once.

    recover(z) returns xhat = x_k - H^{-1}(grad - sum W_i' z_i), the stacked
    images u = (W_i xhat + b_i), the constant-free negated dual value
    -D(z) = -(grad'd + 1/2 d'Hd - z'u) with d = xhat - x_k, the displacement
    d, and the pull-back r = grad - sum W_i' z_i. H d = -r exactly, so
    d'Hd = -d'r.
    """
    images = [b.image for b in blocks]
    pull = [(b.transpose, b.sl) for b in blocks]
    offset = _stack([t.offset for b in blocks for t in b.terms])

    def recover(z):
        r = grad_k.copy()
        for transpose, sl in pull:
            r -= transpose(z[sl])
        d = -metric.inv_apply(r)
        xhat = x_k + d
        u = _stack([image(xhat) for image in images]) + offset
        dneg = -(float(grad_k @ d) - 0.5 * float(d @ r) - float(z @ u))
        return xhat, u, dneg, d, r

    return recover


def _recover_at(metric, x_k, grad_k, terms, duals):
    terms = tuple(terms)
    z = _warm_stack(duals, terms)
    recover = _recovery(metric, np.asarray(x_k, dtype=np.float64),
                        np.asarray(grad_k, dtype=np.float64), _term_blocks(terms))
    return recover(z)


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


def _step_delta_cap(metric: LbfgsMetric, terms) -> float:
    """lambda_max(H) / max ||W_i||^2, an upper bound on 1 / L for the dual
    gradient: L >= ||W_i||^2 * lambda_min(H^{-1}) for every term."""
    top = max((_operator_norm(t.op) for t in terms), default=0.0)
    low = top * top * metric.inv_spectrum()[0]
    return 1.0 / low if low > 0.0 else math.inf


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
    p = x_k.shape[0]

    work = 0.0
    stack_len = sum(t.op.output_dim for t in terms)
    recover_cost = (
        metric.inv_apply_cost
        + sum(2 * t.op.apply_cost for t in terms)
        + p
        + stack_len
    )
    proj_cost = sum(projection_cost(t.kind, t.op.output_dim) for t in terms)

    # the dual blocks live stacked in one vector, so the elementwise steps
    # run once over all terms; the kernels see one slice per term block, and
    # are bound once because attribute lookups and wrapper objects are too
    # slow for a loop that runs tens of thousands of times
    blocks = _term_blocks(terms)
    b_project = [(_PROJECT_RAW[b.kind], b.sl, (b.weight,) + b.seg) for b in blocks]
    b_norm = [(_NORM_RAW[b.kind], b.sl, b.weight, b.seg) for b in blocks]
    recover = _recovery(metric, x_k, grad_k, blocks)

    def project(w):
        return _stack([proj(w[sl], *args) for proj, sl, args in b_project])

    def certificate(z, u):
        total = 0.0
        for norm, sl, weight, seg in b_norm:
            ui = u[sl]
            total += weight * norm(ui, *seg) + float(z[sl] @ ui)
        return total

    # defensive projection: warm duals from a different weight stay feasible
    z = project(_warm_stack(warm_duals, terms))
    v = z.copy()
    theta = 1.0
    delta = step_delta if step_delta is not None else initial_step_delta(metric, terms)
    delta_floor = delta * 1e-18
    delta_cap = _step_delta_cap(metric, terms)

    def stationarity(d, r):
        # ||H d + r||, the surrogate stationarity residual at a recovered point
        nonlocal work
        work += metric.apply_cost + p
        resid_vec = metric.apply(d) + r
        return math.sqrt(resid_vec @ resid_vec)

    entry_gap = None
    best = None  # (gap, d, r, xhat, z, v)
    backtracks = 0
    resets = 0
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
            z_new = project(z - (delta / theta) * u_y)
            v_new = one_m_theta * v + theta * z_new
            xhat_v, u_v, dneg_v, d_v, r_v = recover(v_new)
            work += recover_cost + proj_cost
            dv = v_new - y
            bound = dneg_y + float(u_y @ dv) + float(dv @ dv) / (2.0 * delta)
            if dneg_v <= bound + 1e-12 * (1.0 + abs(dneg_y)) or delta <= delta_floor:
                break
            delta *= 0.5
            backtracks += 1
        delta = min(delta * 1.1, delta_cap)

        iterations = j + 1
        gap = certificate(v_new, u_v)
        # no copies: every array here is fresh and never written in place
        if best is None or gap < best[0]:
            best = (gap, d_v, r_v, xhat_v, z_new, v_new)

        # gradient-mapping restart, one dot product over the stack
        work += stack_len
        if float((y - v_new) @ (v_new - v)) > 0.0:
            theta = 1.0
            z = v = v_new
            resets += 1
        else:
            z, v = z_new, v_new
            theta = _next_theta(theta)

        # the residual can change the stop decision only once the gap is met
        if gap <= tolerance:
            residual = stationarity(d_v, r_v)
            if residual <= tolerance + 1e-12 * (1.0 + math.sqrt(r_v @ r_v)):
                converged = True
                best = (gap, d_v, r_v, xhat_v, z, v)
                break

    gap, d, r, xhat, z, v = best
    if not converged:
        residual = stationarity(d, r)
    t_slice = _block_slices(terms)
    state = DualState(_blocks(terms, [z[sl] for sl in t_slice]),
                      tuple(v[sl] for sl in t_slice))
    return InnerResult(
        direction=xhat - x_k, duals=state, inner_iterations=iterations,
        gap_estimate=gap, residual=residual, converged=converged,
        entry_gap=entry_gap, step_delta=delta, backtracks=backtracks, work=work,
        momentum_resets=resets,
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
    total_resets = 0
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
        total_resets += result.momentum_resets
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
        momentum_resets=total_resets,
        converged=result.gap_estimate <= tolerance,
        entry_gap=rounds[0][0],
        rounds=tuple(rounds),
    )
