"""Seeded workloads of the wall-clock benchmark.

Each workload solves one fixed problem set. Its dataset is drawn from the
workload's own generator seed, and the benchmark's `--seed` draws the order
of the samples (the `data.gen` span); the dataset is then built into one or
more problems (the `problems.build` span) that are solved once per pass. The
same seed gives byte-identical inputs and another seed gives other inputs,
while the objective, its optimum and the work of a solve stay those of the
fixed set. Fresh draws per seed were measured first and rejected: between
draws of the trio the inner iteration count varies by 16% (coefficient of
variation) and the tall-dense outer iteration count ranges over 12-18, so a
run's time would measure the draw rather than the program.

The penalty weight is lambda = 2/n everywhere, the repository's convention.
f* for the correctness gate comes from a solver other than the timed one:
ADMM at tolerance 1e-9, or FISTA where ADMM's dense factorization refuses
the dimension (p > 5000).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

import sepqn
from sepqn import BaselineConfig, SolverConfig, make_builtin

__all__ = ["Workload", "WORKLOADS", "generate", "build", "solver_config",
           "reference_point"]

# layers every sepqn solve of an l1-logistic problem goes through
_BASE_LAYERS = frozenset({
    "data.gen", "problems.build", "solver.solve", "solver.line_search",
    "scd.continuation", "scd.norm.l1", "projections.l1",
    "operators.Identity.apply", "operators.Identity.transpose",
    "operators.norm_estimate",
    "lbfgs.inv_apply", "lbfgs.apply", "lbfgs.inv_norm_estimate",
    "lbfgs.push_pair", "lbfgs.adapt_h0",
    "problems.value_grad", "problems.value", "problems.penalty",
})
# the fused and group terms add these
_TRIO_LAYERS = _BASE_LAYERS | {
    "operators.FirstDifference.apply", "operators.FirstDifference.transpose",
    "operators.GroupSelector.apply", "operators.GroupSelector.transpose",
    "scd.norm.l2", "projections.l2",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `models` lists (label, builtin model name, extra make_builtin keywords);
    a keyword whose value is None takes lambda. `layers` names every traced
    entry that must see at least one call on this workload.
    """

    name: str
    generator: object          # () -> (csr matrix, labels), the fixed dataset
    models: tuple
    solver: dict = field(default_factory=dict)
    reference: str = "admm"    # "admm" | "fista"
    layers: frozenset = _BASE_LAYERS


def _synth(seed, n, p):
    handle, _ = sepqn.synth_dataset(seed=seed, n=n, p=p, sparsity=0.5)
    return handle.matrix, handle.labels


def _wide_sparse(seed, n, p, nnz_per_row, truth_share):
    rng = np.random.default_rng(seed)
    matrix = sp.random(n, p, density=nnz_per_row / p, format="csr",
                       random_state=rng, data_rvs=rng.standard_normal)
    truth = np.zeros(p)
    support = rng.choice(p, size=max(1, int(round(truth_share * p))), replace=False)
    truth[support] = rng.standard_normal(support.size)
    labels = np.where(rng.random(n) < expit(matrix @ truth), 1.0, -1.0)
    return matrix, labels


_TRIO_MODELS = (
    ("l1", "l1-logistic", {}),
    ("fused", "fused-sparse-logistic", {"fused_weight": None}),
    ("sparse-group", "sparse-group-logistic", {"group_weight": None, "groups": 10}),
)


def trio(n=2000, p=200):
    return Workload(
        name="trio", generator=functools.partial(_synth, 0, n=n, p=p),
        models=_TRIO_MODELS, solver={"max_outer": 200},
        layers=_TRIO_LAYERS,
    )


def tall_dense(n=100000, p=100):
    return Workload(
        name="tall-dense", generator=functools.partial(_synth, 0, n=n, p=p),
        models=(("l1", "l1-logistic", {}),),
    )


def wide_sparse(n=20000, p=20000, nnz_per_row=40):
    return Workload(
        name="wide-sparse",
        generator=functools.partial(_wide_sparse, 0, n=n, p=p,
                                    nnz_per_row=nnz_per_row, truth_share=0.02),
        models=(("l1", "l1-logistic", {}),),
        reference="fista",
    )


WORKLOADS = {w.name: w for w in (trio(), tall_dense(), wide_sparse())}


def generate(workload: Workload, seed: int):
    """The workload's fixed dataset with its samples in the seed's order."""
    matrix, labels = workload.generator()
    order = np.random.default_rng(seed).permutation(matrix.shape[0])
    return matrix[order], labels[order]


def _make(model, extra, matrix, labels):
    lam = 2.0 / matrix.shape[0]
    kwargs = {k: (lam if v is None else v) for k, v in extra.items()}
    return make_builtin(model, matrix, labels, lam=lam, **kwargs)


def build(workload: Workload, matrix, labels) -> list:
    """(label, problem) for every model of the workload over one dataset."""
    return [(label, _make(model, extra, matrix, labels))
            for label, model, extra in workload.models]


def solver_config(workload: Workload) -> SolverConfig:
    return SolverConfig(**workload.solver)


def reference_point(workload: Workload, label: str):
    """The independent reference solver's answer for one model, and its status.

    It is computed once on the dataset in generation order: permuting the
    samples leaves the objective unchanged, so the caller evaluates f at this
    point on each seeded problem. ADMM runs on a dense copy of the design,
    the same objective with BLAS data passes, which keeps it affordable on
    tall data.
    """
    matrix, labels = workload.generator()
    _, model, extra = next(m for m in workload.models if m[0] == label)
    if workload.reference == "fista":
        ref = sepqn.fista_solve(_make(model, extra, matrix, labels),
                                BaselineConfig(tolerance=1e-12, max_iterations=30000))
    else:
        ref = sepqn.admm_solve(
            _make(model, extra, matrix.toarray(), labels),
            BaselineConfig(kind="admm", tolerance=1e-9, max_iterations=20000))
    return ref.x, ref.trace.status
