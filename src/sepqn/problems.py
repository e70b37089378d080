"""Composite objectives: a smooth loss plus weighted norms of affine maps.

The minimized function is f(x) = g(x) + sum_i w_i * ||W_i x + b_i||, where g
is a logistic or least-squares loss and each penalty term carries its own
norm, weight, and linear operator. Weights are folded into the penalty so the
dual feasible set of a term is the dual-norm ball of radius w_i.

A problem groups its terms into `TermBlock`s once, at construction; its
penalty and ADMM walk them, and `solver.solve` hands them to the dual loop.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .operators import (
    FINITE_NONNEGATIVE,
    FINITE_POSITIVE,
    DimensionMismatch,
    FirstDifference,
    GroupSelector,
    Identity,
    LinearOperator,
    as_csr,
    as_index,
    require,
    spectral_norm_estimate,
)
from .projections import KERNELS, SEGMENTED, NormKind

__all__ = [
    "NormKind",
    "RegularizerTerm",
    "TermBlock",
    "term_blocks",
    "stack",
    "LogisticLoss",
    "LeastSquaresLoss",
    "CompositeProblem",
    "make_builtin",
    "BUILTIN_LAYOUTS",
    "BUILTIN_MODELS",
]


def _matvec(data, x):
    return data @ x


# A dense design's loss evaluation walks it in row blocks of about this many
# bytes, so a block multiplied by x is still in cache when its transpose
# multiplies the block's derivatives. A block's row count is a multiple of
# _ROW_GROUP: BLAS then groups each block's rows as it groups the whole
# design's, and the blocks' A x is bitwise the one-shot product.
_BLOCK_BYTES = 1 << 20
_ROW_GROUP = 16


def _logistic_losses(t):
    """log(1 + e^-t) elementwise, with one exp per sample.

    numpy's two-argument log-add-exp takes the same branch formula,
    log1p(e^-|t|) + max(-t, 0), with two exps; adding max(-t, 0) is written
    as subtracting min(t, 0), so one temporary serves. The result is within
    4 ulp of numpy's, and equal to it at t = +-inf.
    """
    out = np.abs(t)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out -= np.minimum(t, 0.0)
    return out


def _stored(data):
    """The design in the storage its passes run fastest in.

    A sparse matrix whose CSR arrays take at least as many bytes as a dense
    float64 copy becomes that copy, C-ordered: a dense matvec runs on BLAS,
    about three times faster than CSR at n=2000, p=200 on one core, and the
    copy is no larger than the CSR it replaces. Any other sparse matrix
    becomes canonical CSR, and a dense one a float64 array. Every branch
    makes new arrays, so the loss owns what it stores, never the caller's.
    """
    if not sp.issparse(data):
        return np.array(data, dtype=np.float64)
    m = data.tocsr()
    if m.data.nbytes + m.indices.nbytes >= 8 * m.shape[0] * m.shape[1]:
        return m.toarray().astype(np.float64, copy=False)
    return as_csr(data)


def _check_design(data):
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError(f"data must be 2-D with at least one row, got shape {data.shape}")


class SmoothLoss:
    """Shared plumbing for the differentiable part g.

    A loss evaluation is one pass over the data that yields both g(x) and
    its gradient: the pass walks the design's row blocks (`_row_blocks`) and,
    per block, forms A_b x, the per-sample derivatives c_b from it, and
    A_b'c_b while A_b is still in cache. `value` and `value_grad` read the
    same evaluation, so they agree bitwise, and a call at the bitwise-same x
    as the call before it reuses that call's whole evaluation: the gradient
    at the point a line search accepted costs no data pass. A value-only
    caller, such as a rejected line-search probe, pays for a gradient it
    drops. The constructor picks the design's storage once (see `_stored`),
    so every solver runs its passes on the same matrix. A loss declares
    `CURVATURE`, a bound on the second derivative of its per-sample loss in
    the margin; `lipschitz_bound` and ADMM's majorizer both scale by it.

    A loss is a value: its inputs are checked, copied and fixed at
    construction. Assigning one raises AttributeError (build a new loss),
    and its arrays are read-only, so each cache is made at first use and
    holds its result alone.
    """

    CURVATURE: float
    data: np.ndarray | sp.spmatrix
    labels: np.ndarray
    weights: np.ndarray
    ridge: float

    def __init__(self, data, labels, weights=None, ridge=0.0):
        """Validate once, so a bad dataset cannot surface mid-solve: the design
        must be 2-D with a row, its stored values and the labels finite, and
        given weights (default 1/n) and the ridge finite and >= 0.
        """
        data = _stored(data)
        _check_design(data)
        n = data.shape[0]
        labels = np.array(labels, dtype=np.float64).ravel()
        weights = (np.full(n, 1.0 / n) if weights is None
                   else np.array(weights, dtype=np.float64).ravel())
        for name, values in (("label", labels), ("weight", weights)):
            if values.shape[0] != n:
                raise ValueError(f"{name} count {values.shape[0]} != sample count {n}")
        stored = (data.data, data.indices, data.indptr) if sp.issparse(data) else (data,)
        for name, values in (("labels", labels), ("sample weights", weights),
                             ("data values", stored[0])):
            # min and max propagate nan, so no temporary the size of the data
            if values.size and not (np.isfinite(values.min())
                                    and np.isfinite(values.max())):
                raise ValueError(f"{name} must be finite; found nan or inf")
        if (weights < 0).any():
            raise ValueError(f"sample weights must be >= 0; smallest is {weights.min()}")
        for values in (labels, weights, *stored):
            values.flags.writeable = False   # copies, so the caller's stay writable
        self.data = data
        self.labels = labels
        self.weights = weights
        self.ridge = float(require("ridge", ridge, FINITE_NONNEGATIVE))

    def __setattr__(self, name, value):
        if name in ("data", "labels", "weights", "ridge") and name in self.__dict__:
            raise AttributeError(f"a loss's {name} is fixed; build a new loss to change it")
        super().__setattr__(name, value)

    def __reduce__(self):
        # rebuilt by the constructor, so an unpickled loss's arrays are
        # read-only too and no cache, the blocks' views of the data among
        # them, is pickled as a copy
        return type(self), (self.data, self.labels, self.weights, self.ridge)

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def value(self, x) -> float:
        return self._evaluate(x)[0]

    def value_grad(self, x):
        v, grad = self._evaluate(x)
        # a copy even without a ridge, so no caller can write into the memo
        return v, (grad + self.ridge * x if self.ridge else grad.copy())

    def lipschitz_bound(self) -> float:
        return self.CURVATURE * self._weighted_norm_sq + self.ridge

    def _evaluate(self, x):
        """(g(x), A'c): the value and the data part of the gradient, from
        one pass.

        A loss supplies `_sample_losses(ax)`, the per-sample losses from the
        margins A x, and `_derivative(ax_b, rows)`, their derivatives c over
        one block of rows. The value is taken after the pass from the whole
        of A x, so it does not depend on the blocks. A call at the
        bitwise-same x as the call before it returns that call's result: the
        point a line search accepts is the array its last probe evaluated.
        The memo holds a copy of x's bits, so -0.0 and 0.0 differ and a
        caller that mutates x in place gets a fresh evaluation.
        """
        bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
        memo = self.__dict__.get("_memo")
        if memo is not None and np.array_equal(memo[0], bits):
            return memo[1], memo[2]
        ax = np.empty(self.n_samples)
        grad = np.zeros(self.dim)
        for rows, block, block_t in self._row_blocks:
            ax[rows] = _matvec(block, x)
            grad += block_t @ self._derivative(ax[rows], rows)
        v = float(self.weights @ self._sample_losses(ax))
        if self.ridge:
            v += 0.5 * self.ridge * float(x @ x)
        self._memo = (bits.copy(), v, grad)
        return v, grad

    @cached_property
    def _row_blocks(self):
        """(rows, A_b, A_b') for each block of rows one evaluation walks.

        A dense design is split into row-slice views of about _BLOCK_BYTES,
        in multiples of _ROW_GROUP rows, the last block ragged; no row is
        copied. A CSR design is one block with its transpose, taken once, as
        a sparse .T builds a new view object on every access; blocking CSR
        measured slower per pass.
        """
        data = self.data
        n = self.n_samples
        if sp.issparse(data):
            return ((slice(0, n), data, data.T),)
        fit = _BLOCK_BYTES // (data.itemsize * max(self.dim, 1))
        step = max(fit // _ROW_GROUP * _ROW_GROUP, _ROW_GROUP)
        return tuple((slice(lo, min(lo + step, n)), data[lo:lo + step], data[lo:lo + step].T)
                     for lo in range(0, n, step))

    @cached_property
    def _weighted_norm_sq(self):
        # sigma_max(diag(sqrt(w)) A)^2 via power iteration
        rw, data_t = np.sqrt(self.weights), self.data.T
        est = spectral_norm_estimate(lambda v: rw * _matvec(self.data, v),
                                     lambda u: data_t @ (rw * u), self.dim)
        return est * est


class LogisticLoss(SmoothLoss):
    """g(x) = sum_i w_i log(1 + exp(-y_i a_i'x)) + ridge/2 ||x||^2.

    Weights default to 1/n. Labels must be -1/+1; anything else is rejected
    at construction so a bad dataset cannot surface mid-solve.
    """

    CURVATURE = 0.25   # log(1 + e^-t) has second derivative at most 1/4

    def __init__(self, data, labels, weights=None, ridge=0.0):
        super().__init__(data, labels, weights, ridge)
        bad = ~np.isin(self.labels, (-1.0, 1.0))
        if bad.any():
            raise ValueError(
                f"logistic labels must be -1/+1; offending values: "
                f"{np.unique(self.labels[bad])[:5]}"
            )

    def _sample_losses(self, ax):
        return _logistic_losses(self.labels * ax)

    def _derivative(self, ax, rows):
        # w log(1 + e^-(y t)) has derivative -w y expit(-y t) in the margin t
        c = self.labels[rows] * ax
        np.negative(c, out=c)
        expit(c, out=c)
        c *= self._weighted_labels[rows]
        return np.negative(c, out=c)

    @cached_property
    def _weighted_labels(self):
        return self.weights * self.labels

    # perfbench's tracer wraps these two on this class itself
    value = SmoothLoss.value
    value_grad = SmoothLoss.value_grad


class LeastSquaresLoss(SmoothLoss):
    """g(x) = sum_i w_i (a_i'x - y_i)^2 + ridge/2 ||x||^2, weights default 1/n."""

    CURVATURE = 2.0    # (t - y)^2 has second derivative 2

    def _sample_losses(self, ax):
        r = ax - self.labels
        return r * r

    def _derivative(self, ax, rows):
        # w (t - y)^2 has derivative 2 w (t - y) in the margin t
        c = ax - self.labels[rows]
        c *= self.weights[rows]
        c *= 2.0
        return c


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
        # a kind the kernel table does not hold would fail only mid-solve
        if not isinstance(self.kind, NormKind):
            raise ValueError(f"term kind must be a NormKind, got {self.kind!r}")
        require("term weight", self.weight, FINITE_NONNEGATIVE)
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
        return self.weight * KERNELS[self.kind].norm(self.image(x))


def stack(parts):
    """One vector holding the per-term blocks in order."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.zeros(0)


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
    offset: np.ndarray     # the terms' offsets b, stacked


def _gather(idx, x):
    return x[idx]


def _scatter(idx, dim, u):
    out = np.zeros(dim)
    out[idx] = u
    return out


def _fused(run, sl):
    # module functions bound by partial, not closures, so a problem pickles
    idx = np.concatenate([t.op.indices for t in run])
    starts = np.cumsum([0] + [t.op.output_dim for t in run[:-1]])
    return TermBlock(run[0].kind, run[0].weight, tuple(run), sl, (starts,),
                     partial(_gather, idx), partial(_scatter, idx, run[0].op.input_dim),
                     stack([t.offset for t in run]))


def term_blocks(terms):
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
                                    t.op._apply, t.op._apply_transpose, t.offset))
    return blocks


@dataclass(frozen=True, eq=False)
class CompositeProblem:
    loss: SmoothLoss
    terms: tuple
    blocks: tuple = field(init=False, repr=False)  # term_blocks(terms), built once

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if t.op.input_dim != self.loss.dim:
                raise ValueError(
                    f"term operator input dim {t.op.input_dim} != problem dim "
                    f"{self.loss.dim}"
                )
        object.__setattr__(self, "blocks", tuple(term_blocks(self.terms)))

    @property
    def dim(self) -> int:
        return self.loss.dim

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def sole_identity_term(self):
        """The penalty's term if it is one term over the identity map with a
        zero offset, whose prox is its norm's own; else None."""
        if len(self.terms) == 1:
            (term,) = self.terms
            if isinstance(term.op, Identity) and not term.offset.any():
                return term
        return None

    def penalty(self, x) -> float:
        # an Identity block's image does not check its input, so x is checked here
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise DimensionMismatch("CompositeProblem", self.dim, x.shape, side="penalty")
        return sum(b.weight * KERNELS[b.kind].norm(b.image(x) + b.offset, *b.seg)
                   for b in self.blocks)

    def objective(self, x) -> float:
        return self.penalty(x) + self.loss.value(x)  # the penalty checks x first


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


def _resolve_groups(groups, dim):
    """Accept a group count (contiguous equal split), numpy's integers
    included, or explicit index lists, whose indices must be integers."""
    if groups is None:
        groups = min(10, dim)
    if isinstance(groups, numbers.Integral):
        if groups < 1 or groups > dim:
            raise ValueError(f"group count must be in [1, {dim}], got {groups}")
        bounds = np.linspace(0, dim, groups + 1).astype(int)
        return [list(range(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    if isinstance(groups, numbers.Real):
        raise ValueError(f"groups must be an integer count or index lists, got {groups!r}")
    resolved = [sorted(as_index(i) for i in g) for g in groups]
    if not resolved:
        raise ValueError("groups must hold at least one index list, got none")
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
    for the models whose `BUILTIN_LAYOUTS` entry has that family. A family
    weight left None takes `lam`; every weight used must be positive.
    `groups` is a group count or index lists. The multitask model interprets
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
    _check_design(data)
    labels = np.asarray(labels, dtype=np.float64).ravel()
    p = data.shape[1]
    lam = float(require("lam", lam, FINITE_POSITIVE))
    if "fused" in layout:
        fused_weight = float(require(
            "fused_weight", lam if fused_weight is None else fused_weight, FINITE_POSITIVE))
    if "groups" in layout:
        group_weight = float(require(
            "group_weight", lam if group_weight is None else group_weight, FINITE_POSITIVE))

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
