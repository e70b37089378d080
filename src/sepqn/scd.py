"""Accelerated dual solver for the quadratic-metric surrogate model.

Each outer iteration minimizes the local model

    g(x_k) + grad'(x - x_k) + 1/2 (x - x_k)' H (x - x_k) + sum_i psi_i(W_i x + b_i)

through its smoothed conic dual. For dual blocks z_i constrained to the
dual-norm ball of each penalty, the reduced Lagrangian has the closed-form
minimizer

    xhat(z) = x_k - H^{-1} (grad - sum_i W_i' z_i),

and the negated dual objective -D is smooth with Lipschitz gradient
u(z) = (W_1 xhat(z) + b_1, ..., W_N xhat(z) + b_N), so an accelerated
projected gradient scheme applies. The iteration keeps two feasible sequences:
z takes the aggressive steps delta/theta, v is the averaged solution sequence,
and the extrapolation point y = v + theta (z - v) blends them. u is affine,
so the loop carries the images u_z and u_v and forms those at y and at
v_new = v + theta (z_new - v) by the same combinations, as TFOCS (Becker,
Candes & Grant 2011) does: each step attempt recovers once, at z_new, and y
is never formed. The momentum is restarted by the gradient-mapping test of
O'Donoghue & Candes (2015, "Adaptive restart for accelerated gradient
schemes"): when (y - v_new)'(v_new - v) > 0, the step from y points against
the last move of v, so theta is reset to 1 and z = v = v_new. As y - v_new =
-theta dz with dz = z_new - z, the test reads dz'(z_new - v) < 0, one dot
product per step; the resets are counted.

The dual loop runs over the term blocks of `problems.term_blocks`, not over
terms, with every dual vector stacked in one array, so the elementwise steps
run once over all terms. A caller that holds the blocks, as `solver.solve`
does with `problem.blocks`, hands them in; otherwise they are built once per
solve_surrogate call. The first dual step and the per-term shape of the
returned duals are those of the terms.

Stopping is certified by the summed per-term Fenchel gap at the recovered
primal point alone. xhat(z) minimizes the reduced Lagrangian exactly, so the
stationarity residual H d + r, with d = xhat - x_k and r = grad - sum W_i' z_i,
is zero up to the rounding of the metric's two compact forms (`sepqn check`
asserts it once). Each iterate's gap is read from its carried images, and
one at or below the tolerance only proposes a stop: the loop recovers at
v_new and stops only if the exact gap still holds, else it resyncs u_v to
the exact images and goes on. At max_inner one recovery at the best v gives
the direction and the gap. So a returned gap is always an exact recovery's,
and a solve makes iterations + backtracks + 2 recoveries, one more per
failed stop check (`InnerResult.failed_checks`). The loop keeps no flop
ledger: at return, `surrogate_work` models the solve's cost from its
counts, as `InnerResult.work`. -D is
exactly quadratic with gradient u(z), so
the upper quadratic bound at step delta holds exactly when
delta (u_v_new - u_y)'(v_new - y) <= ||v_new - y||^2. As v_new - y = theta dz
and u_v_new - u_y = theta (u_z_new - u_z), the loop tests
delta (u_z_new - u_z)'dz <= ||dz||^2 and never evaluates -D, whose values
near the optimum differ by less than their rounding. delta halves on a
failed test, else grows 1.1-fold, up to `step_delta_cap`, the metric's
closed-form bound on lambda_max(H) over max_i ||W_i||^2: L >= ||W_i||^2 /
lambda_max(H) for each term, so that cap is above every step 1 / L allows.
It costs no eigensolve and is taken once per solve.
A step handed in is used as given, even above the cap, and only backtracking
lowers it; without one the loop starts at `initial_step_delta`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lbfgs import LbfgsMetric
from .operators import FINITE_POSITIVE, NONNEGATIVE, integer, optional, require
from .problems import stack as _stack, term_blocks as _term_blocks
from .projections import KERNELS, projection_cost

# the hot loop's per-kind kernels, read on every solve_surrogate call; kept as
# tables of their own so a wrapper installed here sees only this loop's calls
_PROJECT_RAW = {kind: k.project for kind, k in KERNELS.items()}
_NORM_RAW = {kind: k.norm for kind, k in KERNELS.items()}

__all__ = [
    "InnerResult",
    "recover_primal",
    "dual_objective",
    "initial_step_delta",
    "step_delta_cap",
    "surrogate_work",
    "solve_surrogate",
]


@dataclass(frozen=True, eq=False)
class InnerResult:
    direction: np.ndarray  # xhat - x_k
    duals: tuple           # the averaged duals v, one array per term
    inner_iterations: int
    gap_estimate: float
    converged: bool
    step_delta: float
    backtracks: int
    momentum_resets: int
    failed_checks: int     # stop checks whose exact gap missed the tolerance
    work: float            # modeled multiply-adds of the solve, from its counts
    working_set: int       # coordinates the surrogate was solved over
    h_direction: np.ndarray   # H d, where the solve formed it; None from the dual loop

    @property
    def rounds(self) -> tuple:
        """((gap_estimate, inner_iterations),): one round per solve. Kept only
        because the benchmark tracer's `scd.rounds` count reads its length;
        it goes when the tracer counts calls instead."""
        return ((self.gap_estimate, self.inner_iterations),)


def _warm_stack(warm, terms):
    """The warm duals, one array per term, as one stacked vector; zeros when
    there are none."""
    if warm is None:
        return np.zeros(sum(t.op.output_dim for t in terms))
    zs = [np.asarray(z, dtype=np.float64) for z in warm]
    if len(zs) != len(terms):
        raise ValueError(f"warm duals carry {len(zs)} blocks for {len(terms)} terms")
    shapes = [z.shape for z in zs]
    if shapes != [(t.op.output_dim,) for t in terms]:
        raise ValueError(f"dual blocks of shapes {shapes} do not fit the terms")
    return np.concatenate(zs) if zs else np.zeros(0)


def _block_slices(terms):
    """Where each term's block sits in a stacked vector."""
    ends = np.cumsum([t.op.output_dim for t in terms]).tolist()
    return [slice(lo, hi) for lo, hi in zip([0] + ends[:-1], ends)]


def _recovery(metric, x_k, grad_k, blocks):
    """The primal recovery kernel at z, with the blocks' kernels bound once:
    recover(z) returns xhat = x_k - H^{-1}(grad - sum W_i' z_i) and the
    stacked images u = (W_i xhat + b_i), the negated dual's gradient at z."""
    images = [b.image for b in blocks]
    pull = [(b.transpose, b.sl) for b in blocks]
    offset = _stack([b.offset for b in blocks])

    def recover(z):
        r = grad_k.copy()
        for transpose, sl in pull:
            r -= transpose(z[sl])
        xhat = x_k - metric.inv_apply(r)
        return xhat, _stack([image(xhat) for image in images]) + offset

    return recover


def _recover_at(metric, x_k, grad_k, terms, duals):
    terms = tuple(terms)
    z = _warm_stack(duals, terms)
    recover = _recovery(metric, np.asarray(x_k, dtype=np.float64),
                        np.asarray(grad_k, dtype=np.float64), _term_blocks(terms))
    return (z,) + recover(z)


def recover_primal(metric: LbfgsMetric, x_k, grad_k, terms, duals) -> np.ndarray:
    """Reduced-Lagrangian minimizer xhat = x_k - H^{-1}(grad - sum W_i' z_i)."""
    return _recover_at(metric, x_k, grad_k, terms, duals)[1]


def dual_objective(metric: LbfgsMetric, x_k, grad_k, terms, duals) -> float:
    """Negated dual value -D(z) = z'u - grad'd - 1/2 d'Hd at d = xhat - x_k,
    without the model's constant g(x_k), which cancels in differences."""
    z, xhat, u = _recover_at(metric, x_k, grad_k, terms, duals)
    d = xhat - x_k
    return float(z @ u) - float(d @ grad_k) - 0.5 * float(d @ metric.apply(d))


def initial_step_delta(metric: LbfgsMetric, terms) -> float:
    """1 / L for the dual gradient, from (sum ||W_i||)^2 * ||H^{-1}||."""
    total = sum(t.op.spectral_norm for t in terms)
    lip = total * total * metric.inv_norm_estimate()
    if lip <= 0.0:
        return 1.0
    return 1.0 / lip


def step_delta_cap(metric: LbfgsMetric, terms) -> float:
    """`metric.top_bound()` / max ||W_i||^2, an upper bound on 1 / L for the
    dual gradient, as L >= ||W_i||^2 / lambda_max(H) for every term; inf
    with no terms."""
    top = max((t.op.spectral_norm for t in terms), default=0.0)
    return metric.top_bound() / (top * top) if top > 0.0 else math.inf


def surrogate_work(metric: LbfgsMetric, terms, iterations, backtracks,
                   failed_checks=0) -> float:
    """Modeled multiply-adds of a dual loop run: each of the iterations +
    backtracks step attempts makes one projection P and one recovery R, the
    run adds one P of its warm duals and two R, at entry and at its last stop
    check (or at max_inner), plus one R per failed stop check, and each
    iteration forms two carried image combinations and the restart dot
    product over the S stacked duals;
    (attempts + 2 + failed_checks) R + (attempts + 1) P + 3 iterations S,
    where R is the terms' pull-back and images, one inverse metric apply and
    the stacked images' offsets. `solve_surrogate` charges each run on its
    own counts, as its `InnerResult.work`."""
    stack_len = sum(t.op.output_dim for t in terms)
    recover = (metric.product_cost(metric.dim, metric.dim)
               + sum(2 * t.op.apply_cost for t in terms) + metric.dim + stack_len)
    project = sum(projection_cost(t.kind, t.op.output_dim) for t in terms)
    attempts = iterations + backtracks
    return float((attempts + 2 + failed_checks) * recover + (attempts + 1) * project
                 + 3 * iterations * stack_len)


def _next_theta(theta):
    return 2.0 / (1.0 + math.sqrt(1.0 + 4.0 / (theta * theta)))


def solve_surrogate(metric, x_k, grad_k, terms, warm_duals=None, tolerance=1e-10,
                    max_inner=2000, step_delta=None, blocks=None) -> InnerResult:
    """Run the accelerated dual loop until the gap certificate meets tolerance.

    Returns the search direction xhat - x_k together with the averaged duals
    v, one array per term, for warm-starting the next call. Each step attempt
    recovers once, at z_new, and only an exact recovery's gap stops the loop.
    Hitting max_inner is not an error: the best iterate seen is recovered once
    and returned with its exact gap, and converged=False unless that gap meets
    the tolerance. `step_delta` must be finite and > 0; None starts the loop
    at `initial_step_delta`. `blocks`, when given, must be
    `problems.term_blocks(terms)`, such as a problem's `blocks`; it is built
    from the terms otherwise.
    """
    require("tolerance", tolerance, NONNEGATIVE)
    require("max_inner", max_inner, integer(1))
    require("step_delta", step_delta, optional(FINITE_POSITIVE))
    x_k = np.asarray(x_k, dtype=np.float64)
    grad_k = np.asarray(grad_k, dtype=np.float64)
    terms = tuple(terms)

    # the dual blocks live stacked in one vector, so the elementwise steps
    # run once over all terms; the kernels see one slice per term block, and
    # are bound once because attribute lookups and wrapper objects are too
    # slow for a loop that runs tens of thousands of times
    if blocks is None:
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
    z = v = project(_warm_stack(warm_duals, terms))
    # the entry recovery; from here on the images at z and v are carried
    u_z = u_v = recover(z)[1]
    theta = 1.0
    delta = step_delta if step_delta is not None else initial_step_delta(metric, terms)
    delta_floor = delta * 1e-18
    cap = step_delta_cap(metric, terms)

    best = None  # (gap, v) of the best iterate
    backtracks = 0
    resets = 0
    failed_checks = 0

    for iterations in range(1, max_inner + 1):
        # u is affine, so the images at y = v + theta (z - v) are the same
        # combination of the carried images, and y itself is never formed
        u_y = u_v + theta * (u_z - u_v)
        while True:
            z_new = project(z - (delta / theta) * u_y)
            u_zn = recover(z_new)[1]
            dz = z_new - z
            # the quadratic bound in exact product form over v_new - y =
            # theta dz, divided by theta^2; 1e-12 admits delta = 1/L
            if (delta * float((u_zn - u_z) @ dz) <= (1.0 + 1e-12) * float(dz @ dz)
                    or delta <= delta_floor):
                break
            delta *= 0.5
            backtracks += 1
        delta = min(delta * 1.1, cap)

        to_z = z_new - v
        v_new = v + theta * to_z
        u_vn = u_v + theta * (u_zn - u_v)
        gap = certificate(v_new, u_vn)
        if gap <= tolerance:
            # only an exact recovery certifies a stop; a failed check
            # resyncs the carried images to it
            xhat, u_vn = recover(v_new)
            gap = certificate(v_new, u_vn)
            if gap > tolerance:
                failed_checks += 1

        # gradient-mapping restart: (y - v_new)'(v_new - v) = -theta^2 dz'(z_new - v)
        if float(dz @ to_z) < 0.0:
            theta = 1.0
            z, u_z = v_new, u_vn
            resets += 1
        else:
            z, u_z = z_new, u_zn
            theta = _next_theta(theta)
        v, u_v = v_new, u_vn

        if gap <= tolerance:
            break
        # no copies: every array here is fresh and never written in place
        if best is None or gap < best[0]:
            best = (gap, v_new)
    else:
        # max_inner: xhat and the gap come from one recovery at the best v
        _, v = best
        xhat, u_v = recover(v)
        gap = certificate(v, u_v)

    return InnerResult(
        direction=xhat - x_k, duals=tuple(v[sl] for sl in _block_slices(terms)),
        inner_iterations=iterations, gap_estimate=gap, converged=gap <= tolerance,
        step_delta=delta, backtracks=backtracks, momentum_resets=resets,
        failed_checks=failed_checks,
        work=surrogate_work(metric, terms, iterations, backtracks, failed_checks),
        working_set=metric.dim, h_direction=None,
    )
