"""Reference solvers used to cross-check optima and convergence behaviour.

fista_solve handles the single simple-prox case (one penalty term over the
identity map) with backtracking on the loss curvature and a monotone restart
scheme. admm_solve handles the general multi-term case by consensus splitting
u_i = W_i x + b_i; its x-update solves a cached dense factorization of a fixed
quadratic majorizer, the loss's CURVATURE times A' diag(w) A (exact for least
squares). scd_direct_solve runs the accelerated dual machinery on the
original problem with the metric frozen at the loss's Lipschitz bound, i.e.
proximal gradient with a dual-computed prox.
Every solver here runs its data passes on the storage the loss chose at
construction (a dense array for a design whose CSR arrays are no smaller), so
the baselines and `solve` multiply through the same matrix.

Trace column reuse: FISTA records sigma = current curvature estimate and
beta = momentum; ADMM records sigma = primal residual and beta = dual
residual, with step = the penalty parameter.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .lbfgs import SIGMA_FLOOR
from .operators import FINITE_POSITIVE, NONNEGATIVE, Identity, integer, require
from .problems import CompositeProblem, NormKind, stack
from .projections import KERNELS
from .solver import (STALL_ITERATIONS, Solution, SolverConfig, SolveTrace, TraceRow,
                     _stall_count, _start_point, solve)

__all__ = [
    "ABS_TOLERANCE",
    "SCD_DIRECT_SETTINGS",
    "BaselineConfig",
    "UnsupportedStructure",
    "fista_solve",
    "admm_solve",
    "scd_direct_solve",
]


class UnsupportedStructure(ValueError):
    """The problem's penalty layout is outside this baseline's contract."""


ABS_TOLERANCE = 1e-12   # absolute part of admm's residual tolerances
# scd-direct's settings where they differ from SolverConfig's: proximal
# gradient takes many cheap outer steps under a metric that stays fixed
SCD_DIRECT_SETTINGS = {"outer_tolerance": 1e-10, "max_outer": 30000,
                       "max_inner": 200, "lbfgs_memory": 0}


@dataclass
class BaselineConfig:
    kind: str = "fista"            # "fista" | "admm"
    max_iterations: int = 20000
    tolerance: float = 1e-10       # relative: objective change (fista), residuals (admm)
    rho: float = 1.0               # admm penalty parameter

    def __post_init__(self):
        require("max_iterations", self.max_iterations, integer(1))
        require("tolerance", self.tolerance, NONNEGATIVE)
        require("rho", self.rho, FINITE_POSITIVE)


def fista_solve(problem: CompositeProblem, config: BaselineConfig = None,
                x0=None) -> Solution:
    """Accelerated proximal gradient, monotone-restart variant.

    Requires a single penalty term over the identity map with an l1 or group
    l2 norm, whose prox is one projection.
    """
    cfg = config if config is not None else BaselineConfig(kind="fista")
    if problem.n_terms != 1:
        raise UnsupportedStructure(
            f"fista needs exactly one penalty term, got {problem.n_terms}"
        )
    term = problem.terms[0]
    if not isinstance(term.op, Identity):
        raise UnsupportedStructure("fista needs the penalty over the identity map")
    if term.kind not in (NormKind.L1, NormKind.L2):
        raise UnsupportedStructure(f"fista does not support norm kind {term.kind}")
    if np.any(term.offset):
        raise UnsupportedStructure("fista needs a zero penalty offset")

    t0 = time.perf_counter()
    x, _, f_x = _start_point(problem, x0)
    loss = problem.loss
    prox = KERNELS[term.kind].prox
    curvature = max(loss.lipschitz_bound(), 1e-12)
    epochs = 1
    trace = SolveTrace(initial_objective=f_x)

    y = x.copy()
    momentum = 1.0
    stall = 0
    status = "max_iterations"

    for k in range(cfg.max_iterations):
        g_y, grad_y = loss.value_grad(y)
        epochs += 1
        backtracks = 0
        while True:
            z = prox(y - grad_y / curvature, term.weight / curvature)
            g_z = loss.value(z)
            epochs += 1
            dz = z - y
            bound = g_y + float(grad_y @ dz) + 0.5 * curvature * float(dz @ dz)
            if g_z <= bound + 1e-12 * (1.0 + abs(g_y)):
                break
            curvature *= 2.0
            backtracks += 1
            if backtracks > 100:
                break
        f_z = g_z + term.value(z)

        if f_z <= f_x:
            x_new = z
            momentum_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum))
            y = x_new + (momentum / momentum_next) * (z - x_new) \
                + ((momentum - 1.0) / momentum_next) * (x_new - x)
            momentum = momentum_next
            f_new = f_z
        else:
            # objective went up: keep the old point and restart the momentum
            x_new = x
            y = x.copy()
            momentum = 1.0
            f_new = f_x

        trace.rows.append(TraceRow(
            iteration=k + 1, objective=f_new, step=1.0 / curvature, gamma=0.0,
            inner_iterations=backtracks, epochs=epochs,
            seconds=time.perf_counter() - t0, sigma=curvature, beta=momentum,
        ))

        stall = _stall_count(stall, f_x, f_new, cfg.tolerance)
        x, f_x = x_new, f_new
        if stall >= STALL_ITERATIONS:
            status = "converged"
            break

    trace.status, trace.epochs = status, epochs
    return Solution(x=x, objective=f_x, trace=trace, duals=None)


def _dense_gram(data, weights):
    """A' diag(w) A as a dense array."""
    if sp.issparse(data):
        return (data.T @ sp.diags(weights) @ data).toarray()
    return data.T @ (weights[:, None] * data)


def admm_solve(problem: CompositeProblem, config: BaselineConfig = None,
               x0=None) -> Solution:
    """Consensus-splitting ADMM over the problem's term blocks.

    The x-update minimizes a fixed quadratic majorizer of the loss plus the
    augmented coupling terms through a cached dense factorization; for least
    squares the majorizer is the loss itself, so the update is exact. The
    penalty parameter is rebalanced x2 whenever the primal/dual residual ratio
    exceeds 10.
    """
    cfg = config if config is not None else BaselineConfig(kind="admm")
    p = problem.dim
    if p > 5000:
        raise UnsupportedStructure(
            f"admm's dense factorization is guarded to p <= 5000, got {p}"
        )
    loss = problem.loss
    terms = problem.terms
    sparse_ops = []
    for t in terms:
        try:
            sparse_ops.append(t.op.to_sparse())
        except NotImplementedError:
            raise UnsupportedStructure(
                f"admm needs each term's map as a sparse matrix; a "
                f"{type(t.op).__name__} has no to_sparse") from None
    t0 = time.perf_counter()
    x, grad, f_val = _start_point(problem, x0)
    epochs = 1

    gram = loss.CURVATURE * _dense_gram(loss.data, loss.weights)
    if loss.ridge:
        gram[np.diag_indices_from(gram)] += loss.ridge

    q_total = np.zeros((p, p))
    for w_sp in sparse_ops:
        q_total += (w_sp.T @ w_sp).toarray()

    # imported at the first factorization: only ADMM needs scipy.linalg,
    # and it is about 6 MB resident, so `import sepqn` leaves it out
    import scipy.linalg

    rho = float(cfg.rho)
    factor = scipy.linalg.cho_factor(gram + rho * q_total)

    # the blocks u_i and d_i live stacked in one vector, so the elementwise
    # updates run once over all terms; the kernels see one slice per term block
    blocks = problem.blocks
    q_dims = sum(t.op.output_dim for t in terms)
    offset = stack([b.offset for b in blocks])

    def images_of(x):
        return stack([b.image(x) for b in blocks]) + offset

    def sq_norm(vec):
        # summed per block, as the residuals are defined
        return sum(float(vec[b.sl] @ vec[b.sl]) for b in blocks)

    def pull_back(vec):
        out = np.zeros(p)
        for b in blocks:
            out += b.transpose(vec[b.sl])
        return out

    u = images_of(x)
    d = np.zeros(q_dims)
    trace = SolveTrace(initial_objective=f_val)
    status = "max_iterations"

    for k in range(cfg.max_iterations):
        rhs = gram @ x - grad
        target = u - d - offset
        for b in blocks:
            rhs += rho * b.transpose(target[b.sl])
        x = scipy.linalg.cho_solve(factor, rhs)

        images = images_of(x)
        u_old = u
        shifted = images + d
        u = stack([KERNELS[b.kind].prox(shifted[b.sl], b.weight / rho, *b.seg)
                   for b in blocks])
        r_vec = images - u
        d = d + r_vec

        r_norm = float(np.sqrt(sq_norm(r_vec)))
        s_norm = rho * float(np.linalg.norm(pull_back(u - u_old)))

        g_val, grad = loss.value_grad(x)
        epochs += 1
        f_val = g_val + problem.penalty(x)

        img_norm = float(np.sqrt(sq_norm(images)))
        u_norm = float(np.sqrt(sq_norm(u)))
        dual_agg = pull_back(d)
        eps_pri = np.sqrt(max(q_dims, 1)) * ABS_TOLERANCE \
            + cfg.tolerance * max(img_norm, u_norm)
        eps_dual = np.sqrt(p) * ABS_TOLERANCE \
            + cfg.tolerance * rho * float(np.linalg.norm(dual_agg))

        trace.rows.append(TraceRow(
            iteration=k + 1, objective=f_val, step=rho, gamma=0.0,
            inner_iterations=0, epochs=epochs, seconds=time.perf_counter() - t0,
            sigma=r_norm, beta=s_norm,
        ))

        if r_norm <= eps_pri and s_norm <= eps_dual:
            status = "converged"
            break

        if terms and s_norm > 0 and r_norm > 10.0 * s_norm:
            rho, d = rho * 2.0, d / 2.0
        elif terms and r_norm > 0 and s_norm > 10.0 * r_norm:
            rho, d = rho / 2.0, d * 2.0
        else:
            continue
        factor = scipy.linalg.cho_factor(gram + rho * q_total)

    trace.status, trace.epochs = status, epochs
    return Solution(x=x, objective=f_val, trace=trace, duals=None)


def scd_direct_solve(problem: CompositeProblem, config: SolverConfig = None,
                     x0=None) -> Solution:
    """First-order reference: the dual inner solver applied to the original
    problem with the metric frozen at the loss's Lipschitz bound, under
    SCD_DIRECT_SETTINGS when no config is given."""
    base = config if config is not None else SolverConfig(**SCD_DIRECT_SETTINGS)
    # a metric that refuses every curvature pair stays sigma0 * I
    sigma = max(problem.loss.lipschitz_bound(), SIGMA_FLOOR)
    return solve(problem, replace(base, lbfgs_memory=0, sigma0=sigma), x0=x0)
