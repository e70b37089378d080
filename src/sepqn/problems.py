"""Composite objectives: a smooth loss plus weighted norms of affine maps.

The minimized function is f(x) = g(x) + sum_i w_i * ||W_i x + b_i||, where g
is a logistic or least-squares loss and each penalty term carries its own
norm, weight, and linear operator. Weights are folded into the penalty so the
dual feasible set of a term is the dual-norm ball of radius w_i.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .operators import (
    FirstDifference,
    GroupSelector,
    Identity,
    LinearOperator,
    as_csr,
    spectral_norm_estimate,
)
from .projections import KERNELS, NormKind

__all__ = [
    "NormKind",
    "norm_value",
    "RegularizerTerm",
    "LogisticLoss",
    "LeastSquaresLoss",
    "CompositeProblem",
    "make_builtin",
    "BUILTIN_LAYOUTS",
    "BUILTIN_MODELS",
]


def norm_value(kind: NormKind, u: np.ndarray) -> float:
    return KERNELS[kind].norm(u)


def _matvec(data, x):
    return data @ x


def _stored(data):
    """The design in the storage its passes run fastest in.

    A sparse matrix whose CSR arrays take at least as many bytes as a dense
    float64 copy becomes that copy, C-ordered: a dense matvec runs on BLAS,
    about three times faster than CSR at n=2000, p=200 on one core, and the
    copy is no larger than the CSR it replaces. Any other sparse matrix
    becomes canonical CSR, and a dense one a float64 array.
    """
    if not sp.issparse(data):
        return np.asarray(data, dtype=np.float64)
    m = data.tocsr()
    if m.data.nbytes + m.indices.nbytes >= 8 * m.shape[0] * m.shape[1]:
        return m.toarray().astype(np.float64, copy=False)
    return as_csr(data)


def _nnz(data) -> int:
    if sp.issparse(data):
        return int(data.nnz)
    return int(data.shape[0] * data.shape[1])


class SmoothLoss:
    """Shared plumbing for the differentiable part g.

    `value` and `value_grad` compute the objective value with identical
    arithmetic, so a value-only probe and a full gradient pass agree bitwise.
    A `value` makes one data product, A x, and a `value_grad` adds A'c; a
    call at the bitwise-same x as the call before it reuses that call's A x.
    The constructor picks the design's storage once (see `_stored`), so every
    solver runs its passes on the same matrix.
    """

    data: np.ndarray | sp.spmatrix
    labels: np.ndarray
    weights: np.ndarray
    ridge: float

    def __init__(self, data, labels, weights=None, ridge=0.0):
        """Validate once, so a bad dataset cannot surface mid-solve.

        Weights default to 1/n; given weights must be finite and >= 0, and so
        must the ridge. Labels and the stored data values must be finite.
        """
        n = data.shape[0]
        labels = np.asarray(labels, dtype=np.float64).ravel()
        weights = (np.full(n, 1.0 / n) if weights is None
                   else np.asarray(weights, dtype=np.float64).ravel())
        for name, values in (("label", labels), ("weight", weights)):
            if values.shape[0] != n:
                raise ValueError(f"{name} count {values.shape[0]} != sample count {n}")
        data = _stored(data)
        stored = data.data if sp.issparse(data) else data
        for name, values in (("labels", labels), ("sample weights", weights),
                             ("data values", stored)):
            # min and max propagate nan, so no temporary the size of the data
            if values.size and not (np.isfinite(values.min())
                                    and np.isfinite(values.max())):
                raise ValueError(f"{name} must be finite; found nan or inf")
        if (weights < 0).any():
            raise ValueError(f"sample weights must be >= 0; smallest is {weights.min()}")
        if not (np.isfinite(ridge) and ridge >= 0):
            raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
        self.data = data
        self.labels = labels
        self.weights = weights
        self.ridge = float(ridge)

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def pass_cost(self) -> int:
        """Flops of one data pass, 2*nnz plus per-sample overhead."""
        return 2 * _nnz(self.data) + 4 * self.n_samples

    def value(self, x) -> float:
        raise NotImplementedError

    def value_grad(self, x):
        raise NotImplementedError

    def lipschitz_bound(self) -> float:
        raise NotImplementedError

    def _value(self, x):
        """g(x) and the per-sample term its gradient reuses.

        `value` and `value_grad` both take g from here, which keeps them
        bitwise equal; a loss supplies `_sample_losses(ax)`, the per-sample
        losses and that term from the margins A x.
        """
        losses, state = self._sample_losses(self._margins(x))
        v = float(self.weights @ losses)
        if self.ridge:
            v += 0.5 * self.ridge * float(x @ x)
        return v, state

    def _plus_ridge(self, x, g):
        if self.ridge:
            g = g + self.ridge * x
        return np.asarray(g, dtype=np.float64)

    def _margins(self, x):
        # A x, reused when called again over the same data at a bitwise-equal
        # x: the point a line search accepts is the array its last probe
        # evaluated, so the gradient there skips one data product. The key
        # is a copy of x's bits, so -0.0 and 0.0 differ and a caller that
        # mutates x in place gets fresh margins
        bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
        memo = self.__dict__.get("_margins_memo")
        if memo is not None and memo[0] is self.data and np.array_equal(memo[1], bits):
            return memo[2]
        ax = _matvec(self.data, x)
        self._margins_memo = (self.data, bits.copy(), ax)
        return ax

    def _rmatvec(self, u):
        # A'u. A sparse matrix's .T builds a new view object on every access,
        # which with its dispatch costs about a sixth of the matvec itself at
        # n=2000, p=200; keep one view per data matrix
        if self.__dict__.get("_transpose_of") is not self.data:
            self._transpose = self.data.T
            self._transpose_of = self.data
        return self._transpose @ u

    def _weighted_norm_sq(self):
        # sigma_max(diag(sqrt(w)) A)^2 via power iteration, cached
        if not hasattr(self, "_wnorm_sq"):
            rw = np.sqrt(self.weights)
            est = spectral_norm_estimate(
                lambda v: rw * _matvec(self.data, v),
                lambda u: self._rmatvec(rw * u),
                self.dim,
            )
            self._wnorm_sq = est * est
        return self._wnorm_sq


class LogisticLoss(SmoothLoss):
    """g(x) = sum_i w_i log(1 + exp(-y_i a_i'x)) + ridge/2 ||x||^2.

    Weights default to 1/n. Labels must be -1/+1; anything else is rejected
    at construction so a bad dataset cannot surface mid-solve.
    """

    def __init__(self, data, labels, weights=None, ridge=0.0):
        super().__init__(data, labels, weights, ridge)
        bad = ~np.isin(self.labels, (-1.0, 1.0))
        if bad.any():
            raise ValueError(
                f"logistic labels must be -1/+1; offending values: "
                f"{np.unique(self.labels[bad])[:5]}"
            )

    def _sample_losses(self, ax):
        t = self.labels * ax
        return np.logaddexp(0.0, -t), t

    def value(self, x):
        return self._value(x)[0]

    def value_grad(self, x):
        v, t = self._value(x)
        coeff = self.weights * self.labels * expit(-t)
        return v, self._plus_ridge(x, -self._rmatvec(coeff))

    def lipschitz_bound(self):
        # per-sample curvature of log(1+e^-t) is at most 1/4
        return 0.25 * self._weighted_norm_sq() + self.ridge


class LeastSquaresLoss(SmoothLoss):
    """g(x) = sum_i w_i (a_i'x - y_i)^2 + ridge/2 ||x||^2, weights default 1/n."""

    def _sample_losses(self, ax):
        r = ax - self.labels
        return r * r, r

    def value(self, x):
        return self._value(x)[0]

    def value_grad(self, x):
        v, r = self._value(x)
        return v, self._plus_ridge(x, 2.0 * self._rmatvec(self.weights * r))

    def lipschitz_bound(self):
        return 2.0 * self._weighted_norm_sq() + self.ridge


@dataclass(frozen=True, eq=False)
class RegularizerTerm:
    """One penalty w * ||W x + b|| in the chosen norm.

    A zero weight is allowed and makes the term vacuous (its dual ball
    collapses to the origin); negative or non-finite weights and non-finite
    offsets are rejected.
    """

    kind: NormKind
    weight: float
    op: LinearOperator
    offset: np.ndarray = None

    def __post_init__(self):
        if not (np.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(f"term weight must be finite and >= 0, got {self.weight}")
        if self.offset is None:
            object.__setattr__(self, "offset", np.zeros(self.op.output_dim))
        else:
            off = np.asarray(self.offset, dtype=np.float64).ravel()
            if off.shape[0] != self.op.output_dim:
                raise ValueError(
                    f"offset length {off.shape[0]} != operator output dim "
                    f"{self.op.output_dim}"
                )
            if not np.isfinite(off).all():
                raise ValueError("term offset entries must be finite; found nan or inf")
            object.__setattr__(self, "offset", off)

    def image(self, x) -> np.ndarray:
        return self.op.apply(x) + self.offset

    def value(self, x) -> float:
        return self.weight * norm_value(self.kind, self.image(x))


@dataclass(frozen=True, eq=False)
class CompositeProblem:
    loss: SmoothLoss
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if t.op.input_dim != self.loss.dim:
                raise ValueError(
                    f"term operator input dim {t.op.input_dim} != problem dim "
                    f"{self.loss.dim}"
                )

    @property
    def dim(self) -> int:
        return self.loss.dim

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def penalty(self, x) -> float:
        return sum(t.value(x) for t in self.terms)

    def objective(self, x) -> float:
        return self.loss.value(x) + self.penalty(x)


# the term families each built-in logistic model adds to its l1 term: "fused"
# an l1 norm of consecutive differences, "groups" l2 norms of groups, and
# "tasks" one-vs-all tasks, whose groups each hold one feature across tasks
BUILTIN_LAYOUTS = {
    "l1-logistic": (),
    "fused-sparse-logistic": ("fused",),
    "sparse-group-logistic": ("groups",),
    "fused-sparse-group-logistic": ("fused", "groups"),
    "multitask-dirty-logistic": ("tasks", "groups"),
}

BUILTIN_MODELS = tuple(BUILTIN_LAYOUTS)


def _require_positive(name, value):
    if value is None or value <= 0:
        raise ValueError(f"hyperparameter {name!r} must be positive, got {value}")
    return float(value)


def _resolve_groups(groups, dim):
    """Accept a group count (contiguous equal split) or explicit index lists."""
    if groups is None:
        groups = min(10, dim)
    if isinstance(groups, int):
        if groups < 1 or groups > dim:
            raise ValueError(f"group count must be in [1, {dim}], got {groups}")
        bounds = np.linspace(0, dim, groups + 1).astype(int)
        return [list(range(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    resolved = [sorted(int(i) for i in g) for g in groups]
    seen = set()
    for g in resolved:
        overlap = seen.intersection(g)
        if overlap:
            raise ValueError(f"groups overlap at indices {sorted(overlap)[:5]}")
        seen.update(g)
    return resolved


def _one_vs_all(labels):
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("multitask construction needs at least 2 classes")
    return [(np.where(labels == c, 1.0, -1.0), c) for c in classes]


def make_builtin(model_name, data, labels, *, lam=None, fused_weight=None,
                 group_weight=None, groups=None, ridge=0.0) -> CompositeProblem:
    """Construct one of the named benchmark models over (data, labels).

    `lam` weights the elementwise l1 penalty, `fused_weight` the l1 norm of
    consecutive differences, and `group_weight` the per-group l2 norms, each
    for the models whose `BUILTIN_LAYOUTS` entry has that family. `groups`
    is a group count or index lists. The multitask model interprets
    multiclass labels one-vs-all, vectorizes the p x r coefficient matrix
    column-major (task k occupies x[k*p:(k+1)*p]), sums the per-task
    logistic losses, and groups each feature across tasks, so it reads no
    `groups`.
    """
    layout = BUILTIN_LAYOUTS.get(model_name)
    if layout is None:
        raise ValueError(
            f"unknown model {model_name!r}; expected one of {', '.join(BUILTIN_MODELS)}"
        )
    if not sp.issparse(data):
        data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64).ravel()
    p = data.shape[1]
    lam = _require_positive("lam", lam)
    if "fused" in layout:
        fused_weight = _require_positive("fused_weight", fused_weight)
    if "groups" in layout:
        group_weight = _require_positive("group_weight", group_weight)

    if "tasks" in layout:
        tasks = _one_vs_all(labels)
        r = len(tasks)
        n = data.shape[0]
        block = data if sp.issparse(data) else sp.csr_matrix(data)
        big = sp.block_diag([block] * r, format="csr")
        y_all = np.concatenate([y for y, _ in tasks])
        weights = np.full(n * r, 1.0 / n)  # each task contributes its own mean
        loss = LogisticLoss(big, y_all, weights=weights, ridge=ridge)
        dim = p * r
        index_sets = [j + p * np.arange(r) for j in range(p)]
    else:
        loss = LogisticLoss(data, labels, ridge=ridge)
        dim = p
        index_sets = _resolve_groups(groups, p) if "groups" in layout else []

    terms = [RegularizerTerm(NormKind.L1, lam, Identity(dim))]
    if "fused" in layout:
        terms.append(RegularizerTerm(NormKind.L1, fused_weight, FirstDifference(dim)))
    for g in index_sets:
        terms.append(RegularizerTerm(NormKind.L2, group_weight, GroupSelector(g, dim)))
    return CompositeProblem(loss, tuple(terms))
