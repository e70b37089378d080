"""Limited-memory BFGS metric with an adaptive scalar seed matrix.

The curvature pairs (s, y) with s'y > 0 are kept once, as the rows of W =
(s_1, y_1, s_2, y_2, ...), oldest first, in a 2m x p array next to their
2m x 2m Gram matrix W W'; at capacity a push shifts both by one pair, in
place, to evict the oldest. Both directions use the compact form of Byrd,
Nocedal & Schnabel (1994), H = sigma I - W' K^{-1} W: two GEMVs with W
around a middle matrix rebuilt only when the pairs or sigma change. Every
middle comes from one kernel sigma K and one Woodbury rule (see
`_inverse_middle`), for the metric and its working-set views alike. The
exact spectrum of H^{-1} is computed from the middle on each call.
An upper bound on lambda_max(H), all the dual loop's step cap needs, is read
in closed form from the Gram's diagonal: each BFGS update of sigma I adds
y y' / y's and subtracts a positive semidefinite term, so lambda_max(H) <=
sigma + sum_i y_i'y_i / s_i'y_i, with no eigensolve.

The seed scale sigma is adapted between outer iterations: a rejected unit step
inflates it, and a shrink factor beta (annealed toward 1 on each inflation
and on each unit step) deflates it toward the curvature ratio y'y / y's.
After an accepted unit step sigma lands between the two curvature scalings
s'y / s's <= y'y / s'y of the latest pair (Barzilai & Borwein 1988), so it
never stays below the curvature it has just measured. The outer loop makes
one call per step, `update`, which does all three.

`restricted(idx)` gives the principal submatrix H[idx, idx] as a metric of
its own, for a surrogate solved over a working set of coordinates;
`cross_apply` and `inv_form` take the two other products such a surrogate
needs over its own coordinates, not over all of them.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from .operators import FINITE_POSITIVE, Rule, integer, require, require_finite

__all__ = ["LbfgsMetric", "SIGMA_FLOOR"]

SIGMA_FLOOR = 1e-8   # lowest seed scale, keeps H uniformly positive definite
# the rule an outer step length t_k meets
STEP_LENGTH = Rule(lambda v: isinstance(v, numbers.Real) and 0.0 < v <= 1.0,
                   "in (0, 1]")


class LbfgsMetric:
    def __init__(self, dim, capacity=10, sigma=1.0):
        self.dim = int(require("dim", dim, integer(1)))
        self.capacity = int(require("capacity", capacity, integer(0)))
        self.sigma = float(require("sigma", sigma, FINITE_POSITIVE))
        self.beta = 2.0
        self.floor_hits = 0
        self._count = 0
        self._buffer = np.empty((2 * self.capacity, self.dim))   # s_1, y_1, s_2, ...
        self._gram_buffer = np.empty((2 * self.capacity, 2 * self.capacity))
        self._middle = None
        self._snapshot = False   # a restricted view takes no pairs and keeps its sigma

    @property
    def pair_count(self) -> int:
        return self._count

    @property
    def _rows(self):
        """W, the stored pairs' rows, oldest first: a view of the buffer."""
        return self._buffer[:2 * self._count]

    @property
    def _gram(self):
        """W W', a view of the Gram buffer."""
        return self._gram_buffer[:2 * self._count, :2 * self._count]

    def push_pair(self, s, y) -> bool:
        """Store (s, y) iff s'y is finite and > 0, evicting the oldest pair
        at capacity. A non-finite entry raises ValueError; an overflowing
        s'y, such as entries of 1e200 give, is refused like s'y <= 0."""
        s, y = np.asarray(s, dtype=np.float64), np.asarray(y, dtype=np.float64)
        if s.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError("pair vectors must have the metric's dimension")
        self._writable()
        require_finite("s", s)
        require_finite("y", y)
        if self.capacity == 0 or not 0.0 < float(s @ y) < math.inf:
            return False
        if self._count == self.capacity:
            # evict the oldest pair; a 1-d shift runs in place, without a temporary
            flat = self._buffer.reshape(-1)
            flat[:-2 * self.dim] = flat[2 * self.dim:]
            self._gram_buffer[:-2, :-2] = self._gram_buffer[2:, 2:]
        self._count = min(self._count + 1, self.capacity)
        rows, gram = self._rows, self._gram
        k = len(rows) - 2   # the new pair's rows
        rows[k], rows[k + 1] = s, y
        cross = rows @ rows[k:].T
        gram[:, k:] = cross
        gram[k:, :] = cross.T
        self._middle = None
        return True

    def _writable(self):
        if self._snapshot:
            raise TypeError("a restricted view is a snapshot of its metric; "
                            "update the metric it was taken from")

    def restricted(self, idx) -> "LbfgsMetric":
        """H[idx, idx] over the len(idx) coordinates idx, as a metric.

        H_JJ = sigma I + W_J' M_fwd W_J is H's compact form over the
        gathered columns W_J of the pair rows, with H's own forward middle.
        Its inverse is not H^{-1}[idx, idx]; its middle is the one Woodbury
        rule of `_inverse_middle` applied to the gathered Gram W_J W_J', so
        with idx every coordinate the view is H itself. The view holds one
        gathered copy of W_J and is a snapshot: it refuses pairs and seed
        changes. It keeps H's `top_bound`, as lambda_max(H_JJ) <=
        lambda_max(H) and the gathered s_J'y_J need not be positive.
        """
        idx = np.asarray(idx, dtype=np.intp)
        # built empty, so the only pair columns it holds are the gathered ones
        view = LbfgsMetric(idx.size, capacity=0, sigma=self.sigma)
        view._count, view._snapshot = self._count, True
        view._parent_top = self.top_bound()
        if self._count:
            view._buffer = np.take(self._rows, idx, axis=1)
            view._gram_buffer = view._buffer @ view._buffer.T
            view._middle = self._inverse_middle(view._gram_buffer)
        return view

    def _kernel(self):
        """sigma K = [[S'S, L], [L', -sigma D]] in the s/y row order, read
        from the Gram: S'Y = L + R, L strictly lower, D = diag(S'Y)."""
        g = self._gram
        low = np.tril(g[0::2, 1::2], -1)
        kernel = g.copy()
        kernel[0::2, 1::2], kernel[1::2, 0::2] = low, low.T
        kernel[1::2, 1::2] = np.diag(-self.sigma * g[0::2, 1::2].diagonal())
        return kernel

    def _inverse_middle(self, gram):
        """(M, M_fwd), from one inversion of the stacked pair: by Woodbury,
        (sigma I - V' K^{-1} V)^{-1} = I / sigma + V' M V with M = (sigma
        (sigma K - gram))^{-1} for pair columns V of Gram gram = V V', and
        M_fwd = -K^{-1} = -sigma (sigma K)^{-1}. The metric's M_inv takes its
        own Gram, a restricted view's middle the gathered one."""
        kernel = self._kernel()
        middle, kernel_inv = np.linalg.inv(np.stack((self.sigma * (kernel - gram), kernel)))
        return middle, -self.sigma * kernel_inv

    def _middles(self):
        """(M_inv, M_fwd), so that H^{-1} = I / sigma + W' M_inv W and H =
        sigma I + W' M_fwd W: `_inverse_middle` of the stored pairs' Gram,
        cached until the pairs or sigma change."""
        if self._middle is None:
            self._middle = self._inverse_middle(self._gram)
        return self._middle

    def _compact(self, v, inverse):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError("vector length must equal the metric dimension")
        out = v / self.sigma if inverse else self.sigma * v
        if self._count:
            w = self._rows
            out += (self._middles()[0 if inverse else 1] @ (w @ v)) @ w
        return out

    def inv_apply(self, v) -> np.ndarray:
        """H^{-1} v = v / sigma + W' M_inv W v, O(M p)."""
        return self._compact(v, inverse=True)

    def apply(self, v) -> np.ndarray:
        """H v = sigma v + W' M_fwd W v, O(M p)."""
        return self._compact(v, inverse=False)

    def cross_apply(self, view, cols, v) -> np.ndarray:
        """H[J, cols] v for the coordinates J of `view` = `self.restricted(J)`
        and coordinates cols outside J, O(M (|J| + len(cols))).

        sigma I adds nothing off the diagonal, so this is W_J' M_fwd W_cols v,
        over the view's gathered columns W_J and the len(cols) columns W_cols.
        """
        if not self._count:
            return np.zeros(view.dim)
        return (self._middles()[1] @ (self._rows[:, cols] @ v)) @ view._rows

    def inv_form(self, view, v) -> float:
        """v' H^{-1}[J, J] v for v over the coordinates J of `view` =
        `self.restricted(J)`: v'v / sigma + u' M_inv u with u = W_J v, over
        the view's gathered columns W_J, O(M |J|)."""
        quad = float(v @ v) / self.sigma
        if self._count:
            u = view._rows @ v
            quad += float(u @ (self._middles()[0] @ u))
        return quad

    def adapt_h0(self, t_k, s, y):
        """Rescale the seed matrix from the latest step length and pair.

        A fractional step divides sigma by t_k and tightens beta toward 1;
        either way sigma is then capped by min(sigma / beta, y'y / y's). After
        a unit step the result is also raised to at least s'y / s's, so sigma
        ends between the two curvature scalings of the pair. The floor keeps
        the metric uniformly positive definite; hits are counted.
        """
        s = np.asarray(s, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        sy = float(s @ y)
        if not sy > 0.0:
            raise ValueError("adapt_h0 requires s'y > 0")
        require("t_k", t_k, STEP_LENGTH)
        self._writable()
        if t_k < 1.0:
            self.sigma /= t_k
            self._anneal_beta()
        self.sigma = min(self.sigma / self.beta, float(y @ y) / sy)
        if t_k == 1.0:
            self.sigma = max(self.sigma, sy / float(s @ s))
        if self.sigma < SIGMA_FLOOR:
            self.sigma = SIGMA_FLOOR
            self.floor_hits += 1
        self._middle = None
        return self

    def _anneal_beta(self):
        self.beta = 2.0 / (1.0 + 1.0 / self.beta)

    def update(self, t_k, s, y) -> bool:
        """Store the pair of a step of length t_k, rescale the seed from it
        if stored, and on a unit step anneal beta toward 1, so the seed decay
        tapers off once steps stop being rejected; a fixed metric (capacity
        0) keeps its beta. Returns whether the pair was stored. A t_k outside
        (0, 1] raises ValueError before anything changes."""
        require("t_k", t_k, STEP_LENGTH)
        stored = self.push_pair(s, y)   # via the instance, which a tracer may wrap
        if stored:
            self.adapt_h0(t_k, s, y)
        if t_k == 1.0 and self.capacity:
            self._anneal_beta()
        return stored

    def materialize_dense(self) -> np.ndarray:
        """Dense H, column by column; guarded to small dimensions (tests only)."""
        if self.dim > 512:
            raise ValueError(f"refusing to materialize H at dim {self.dim} > 512")
        cols = [self.apply(col) for col in np.eye(self.dim)]
        return np.column_stack(cols)

    def inv_spectrum(self):
        """(lowest, highest) eigenvalue of H^{-1}, exact, computed on each
        call: W' M_inv W shares its nonzero eigenvalues with C' M_inv C for
        any C C' = W W', and past p = 2M, W has a null space, where H^{-1} is
        1 / sigma. With no pairs it is 1 / sigma, with no eigensolve."""
        lo = hi = 0.0
        if self._count:
            if self.dim <= 2 * self._count:
                factor, null = self._rows, False
            else:
                lam, vec = np.linalg.eigh(self._gram)
                factor, null = vec * np.sqrt(np.maximum(lam, 0.0)), True
            eig = np.linalg.eigh(factor.T @ self._middles()[0] @ factor)[0]
            lo, hi = float(eig[0]), float(eig[-1])
            if null:
                lo, hi = min(lo, 0.0), max(hi, 0.0)
        return (1.0 / self.sigma + lo, 1.0 / self.sigma + hi)

    def top_bound(self) -> float:
        """An upper bound on lambda_max(H), O(M): sigma + sum_i y_i'y_i /
        s_i'y_i over the stored pairs, read from the Gram's diagonal, as each
        BFGS update adds y y' / y's and subtracts a positive semidefinite
        term; sigma with no pairs. A restricted view returns its metric's."""
        if self._snapshot:
            return self._parent_top
        g = self._gram
        return self.sigma + float(np.sum(g.diagonal()[1::2] / g[0::2, 1::2].diagonal()))

    def inv_norm_estimate(self) -> float:
        """Exact largest eigenvalue of H^{-1}."""
        return self.inv_spectrum()[1]
