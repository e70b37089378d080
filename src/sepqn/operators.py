"""Structured linear operators for penalty maps and design matrices.

Every operator stands for some W in R^{q x p} and supports matrix-free
apply (W x) and transpose-apply (W' u). The structured kinds (identity,
first difference, group selector) cost O(q) per application, which is what
keeps the dual solver's per-iteration work linear in the problem size; an
explicit sparse operator costs O(nnz). Every solver reads an operator through
these two kernels alone; `to_sparse` gives the built-in ones as a matrix,
for checks that need an unfused copy. `spectral_norm` is estimated once,
by `norm_estimate`, which reads an operator's `exact_norm` when it has one
(the identity's 1) and runs a power iteration otherwise.

The module also holds the one set of rules every setting in the package is
checked by, once, where it is given: `require` and the `Rule`s beside it.
"""
from __future__ import annotations

import functools
import math
import numbers
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DimensionMismatch",
    "LinearOperator",
    "Identity",
    "FirstDifference",
    "GroupSelector",
    "ExplicitSparse",
    "as_csr",
    "as_index",
    "Rule",
    "integer",
    "FINITE_POSITIVE",
    "FINITE_NONNEGATIVE",
    "NONNEGATIVE",
    "optional",
    "require",
    "require_finite",
    "POWER_ITERATIONS",
    "EIGEN_TOLERANCE",
    "spectral_norm_estimate",
]

POWER_ITERATIONS = 100  # most steps of a power-iteration norm estimate
EIGEN_TOLERANCE = 1e-13  # residual, relative to ||W'W v||, that ends the steps early


class DimensionMismatch(ValueError):
    """A vector's length does not match the operator dimension it feeds."""

    def __init__(self, op_name, expected, got, side="apply"):
        self.op_name = op_name
        self.expected = expected
        self.got = got
        self.side = side
        super().__init__(
            f"{op_name}.{side} expects a vector of length {expected}, got shape {got}"
        )


def as_csr(matrix) -> sp.csr_matrix:
    """Coerce to canonical CSR: float64 values, sorted unique column indices.

    A 2-D real ndarray is packed row by row in one pass over its nonzero
    mask, not through scipy's dense -> COO -> CSR round trip, which takes
    several times as long on a tall dense design; the arrays and their
    dtypes are the ones scipy builds.
    """
    if isinstance(matrix, np.ndarray) and matrix.ndim == 2 and matrix.dtype.kind in "biuf":
        m = _dense_to_csr(np.asarray(matrix))
    else:
        m = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
    m.sum_duplicates()
    m.sort_indices()
    return m


def _dense_to_csr(a):
    n, p = a.shape
    mask = a != 0  # nan counts as nonzero and -0.0 as zero, as in scipy
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(mask, axis=1), out=indptr[1:])
    # narrow column indices spare scipy a copy when it picks int32, and it
    # widens them when the entry count needs int64
    cols = np.arange(p, dtype=np.int32 if p < 2**31 else np.int64)
    if indptr[-1] == n * p:
        indices = np.tile(cols, n)
        data = np.array(a, dtype=np.float64, order="C").ravel()
    else:
        indices = np.broadcast_to(cols, a.shape)[mask]
        data = a[mask].astype(np.float64, copy=False)
    return sp.csr_matrix((data, indices, indptr), shape=(n, p))


def as_index(value) -> int:
    """An index as an int. Integers pass, numpy's included; anything else,
    such as 1.7 or 2.0, raises ValueError naming it."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"indices must be integers, got {value!r}")
    return int(value)


class Rule(NamedTuple):
    """A rule a setting must hold, and the words an error states it in."""

    holds: Callable[[object], bool]
    text: str


def integer(low) -> Rule:
    """An integer >= low, numpy's included; a float such as 2.0 is not one."""
    return Rule(lambda v: isinstance(v, numbers.Integral) and v >= low, f"an integer >= {low}")


def _finite(value):
    return isinstance(value, numbers.Real) and math.isfinite(value)


FINITE_POSITIVE = Rule(lambda v: _finite(v) and v > 0, "finite and > 0")
FINITE_NONNEGATIVE = Rule(lambda v: _finite(v) and v >= 0, "finite and >= 0")
NONNEGATIVE = Rule(lambda v: isinstance(v, numbers.Real) and v >= 0, ">= 0")   # inf holds


def optional(rule) -> Rule:
    return Rule(lambda v: v is None or rule.holds(v), f"None or {rule.text}")


def require(name, value, rule):
    """value, if it holds rule; else a ValueError naming name and value.

    Each rule states what a good value meets, so nan fails it: a comparison
    with nan is false, and `v >= 0` refuses nan where `not v < 0` passes it.
    """
    if not rule.holds(value):
        raise ValueError(f"{name} must be {rule.text}, got {value!r}")
    return value


def require_finite(name, values):
    """values, an array, if every entry is finite; else a ValueError naming name."""
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite; found nan or inf")
    return values


def spectral_norm_estimate(apply_fn, transpose_fn, input_dim):
    """Largest singular value of W, by up to POWER_ITERATIONS power steps on W'W.

    The estimate approaches the true norm from below and is deterministic:
    the start vector is drawn from seed 0. A zero operator yields 0.0. The
    steps stop early once the iterate v is an eigenvector to rounding,
    ||u - ||u|| v|| <= EIGEN_TOLERANCE ||u|| for u = W'W v, as it is after
    one step on an identity and two on a group selector.
    """
    if input_dim == 0:
        return 0.0
    rng = np.random.default_rng(0)
    v = rng.standard_normal(input_dim)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v = v / nv
    for _ in range(POWER_ITERATIONS):
        w = apply_fn(v)
        z = transpose_fn(w)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        if np.linalg.norm(z - nz * v) <= EIGEN_TOLERANCE * nz:
            # v is an eigenvector of W'W with eigenvalue ||W'W v|| / ||v||,
            # exactly 1 when W'W v = v, as for an identity or a selector
            return float(np.sqrt(nz / np.linalg.norm(v)))
        v = z / nz
    return float(np.linalg.norm(apply_fn(v)))


class LinearOperator:
    """Base class. A subclass sets input_dim and output_dim and defines the
    raw kernels `_apply` (W x) and `_apply_transpose` (W' u), which get
    checked float vectors: dims and two kernels, for every solver. It may
    set `exact_norm` to spare the power iteration, and `to_sparse` for the
    tests' and checks' explicit copies."""

    input_dim: int
    output_dim: int

    def apply(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.input_dim,):
            raise DimensionMismatch(type(self).__name__, self.input_dim, x.shape)
        return self._apply(x)

    def apply_transpose(self, u):
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.output_dim,):
            raise DimensionMismatch(
                type(self).__name__, self.output_dim, u.shape, side="apply_transpose"
            )
        return self._apply_transpose(u)

    # the norm of an operator whose norm is known exactly; None estimates it
    exact_norm = None

    def norm_estimate(self):
        """`exact_norm` when the operator has one, else the power iteration."""
        if self.exact_norm is not None:
            return self.exact_norm
        return spectral_norm_estimate(self._apply, self._apply_transpose, self.input_dim)

    @functools.cached_property
    def spectral_norm(self) -> float:
        """`norm_estimate()`, run once per operator and kept."""
        return self.norm_estimate()

    def to_sparse(self) -> sp.csr_matrix:
        """W as a CSR matrix, the explicit copy checks compare against."""
        raise NotImplementedError(f"{type(self).__name__} has no sparse form")

    def __repr__(self):
        return f"{type(self).__name__}({self.output_dim}x{self.input_dim})"


class Identity(LinearOperator):
    exact_norm = 1.0   # W'W = I, so no power iteration draws its |x| normals

    def __init__(self, dim):
        require("Identity dim", dim, integer(1))
        self.input_dim = self.output_dim = int(dim)

    def _apply(self, x):
        return x.copy()

    def _apply_transpose(self, u):
        return u.copy()

    def to_sparse(self):
        return sp.eye(self.input_dim, format="csr")


class FirstDifference(LinearOperator):
    """Consecutive differences: (Wx)_j = x_{j+1} - x_j, so q = p - 1."""

    def __init__(self, dim):
        require("FirstDifference dim", dim, integer(2))
        self.input_dim = int(dim)
        self.output_dim = int(dim) - 1

    def _apply(self, x):
        return x[1:] - x[:-1]   # np.diff's result, without its wrapper

    def _apply_transpose(self, u):
        out = np.zeros(self.input_dim)
        out[:-1] -= u
        out[1:] += u
        return out

    def to_sparse(self):
        p = self.input_dim
        main = -np.ones(p - 1)
        upper = np.ones(p - 1)
        return as_csr(sp.diags([main, upper], [0, 1], shape=(p - 1, p)))


class GroupSelector(LinearOperator):
    """Picks out a coordinate subset; the transpose scatters back with zeros."""

    def __init__(self, indices, dim):
        require("GroupSelector dim", dim, integer(1))
        idx = np.asarray(sorted(set(as_index(i) for i in indices)), dtype=np.intp)
        if idx.size == 0:
            raise ValueError("GroupSelector needs a non-empty index set")
        if idx[0] < 0 or idx[-1] >= dim:
            raise ValueError(f"indices must lie in [0, {dim})")
        self.indices = idx
        self.input_dim = int(dim)
        self.output_dim = int(idx.size)

    def _apply(self, x):
        return x[self.indices]

    def _apply_transpose(self, u):
        out = np.zeros(self.input_dim)
        out[self.indices] = u
        return out

    def to_sparse(self):
        q = self.output_dim
        return sp.csr_matrix(
            (np.ones(q), (np.arange(q), self.indices)), shape=(q, self.input_dim)
        )


class ExplicitSparse(LinearOperator):
    def __init__(self, matrix):
        self.matrix = as_csr(matrix)
        self.output_dim, self.input_dim = self.matrix.shape
        self._transposed = self.matrix.T.tocsr()

    def _apply(self, x):
        return self.matrix @ x

    def _apply_transpose(self, u):
        return self._transposed @ u

    def to_sparse(self):
        return self.matrix

