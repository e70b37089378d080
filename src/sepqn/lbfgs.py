"""Limited-memory BFGS metric with an adaptive scalar seed matrix.

The curvature pairs (s, y) with s'y > 0 are kept once, as the rows of W =
(s_1, y_1, s_2, y_2, ...), oldest first, next to their Gram matrix W W'. W is
a window of a buffer with SLACK spare pairs: at capacity a push moves the
window up by one pair, and only when it reaches the buffer's end are the rows
copied back to its start, in order, so one push in SLACK + 1 copies them. Both
directions use the compact form of Byrd, Nocedal & Schnabel (1994): two GEMVs
with W around a small middle matrix that folds in sigma, is rebuilt only when
the pairs or sigma change, and yields the exact top eigenvalue of H^{-1}.
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

import numpy as np

from .operators import FINITE_POSITIVE, integer, require

__all__ = ["LbfgsMetric", "SIGMA_FLOOR"]

SIGMA_FLOOR = 1e-8   # lowest seed scale, keeps H uniformly positive definite
SLACK = 4            # spare pairs in the buffer beyond capacity


def _inverse(ss, sy, yy):
    """Inverse of [[ss, sy], [sy', yy]], rows and columns in the s/y row order."""
    a = np.empty((2 * len(ss), 2 * len(ss)))
    a[0::2, 0::2], a[0::2, 1::2], a[1::2, 0::2], a[1::2, 1::2] = ss, sy, sy.T, yy
    return np.linalg.inv(a)


class LbfgsMetric:
    def __init__(self, dim, capacity=10, sigma=1.0):
        self.dim = int(require("dim", dim, integer(1)))
        self.capacity = int(require("capacity", capacity, integer(0)))
        self.sigma = float(require("sigma", sigma, FINITE_POSITIVE))
        self.beta = 2.0
        self.floor_hits = 0
        self._count = 0
        self._start = 0   # the oldest stored pair's slot in the buffer
        slots = 2 * (self.capacity + SLACK) if self.capacity else 0
        self._buffer = np.empty((slots, self.dim))   # ..., s_1, y_1, s_2, ...
        self._gram_buffer = np.empty((slots, slots))
        self._lower = np.tri(self.capacity, k=-1, dtype=bool)   # strictly lower mask
        self._stale()
        self._snapshot = False   # a restricted view takes no pairs and keeps its sigma

    @property
    def pair_count(self) -> int:
        return self._count

    @property
    def _rows(self):
        """W, the stored pairs' rows, oldest first: a view of the buffer."""
        lo = 2 * self._start
        return self._buffer[lo:lo + 2 * self._count]

    @property
    def _gram(self):
        """W W', a view of the Gram buffer."""
        lo = 2 * self._start
        return self._gram_buffer[lo:lo + 2 * self._count, lo:lo + 2 * self._count]

    def push_pair(self, s, y) -> bool:
        """Store (s, y) iff s'y > 0, evicting the oldest pair at capacity."""
        s, y = np.asarray(s, dtype=np.float64), np.asarray(y, dtype=np.float64)
        if s.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError("pair vectors must have the metric's dimension")
        self._writable()
        if self.capacity == 0 or float(s @ y) <= 0.0:
            return False
        if self._count == self.capacity:
            self._start += 1
            self._count -= 1
        lo, k = 2 * self._start, 2 * self._count
        if lo + k + 2 > len(self._buffer):
            # slide the window back to the buffer's start, order kept; a 1-d
            # shift runs in place, without a temporary
            flat = self._buffer.reshape(-1)
            flat[:k * self.dim] = flat[lo * self.dim:(lo + k) * self.dim]
            gram = self._gram_buffer
            gram[:k, :k] = gram[lo:lo + k, lo:lo + k]
            self._start = 0
        self._count += 1
        rows, gram = self._rows, self._gram
        rows[k], rows[k + 1] = s, y
        cross = rows @ rows[k:].T
        gram[:, k:] = cross
        gram[k:, :] = cross.T
        self._stale()
        return True

    def _stale(self):
        """Drop what is derived from the pairs and sigma: the middles and
        the spectrum."""
        self._middle = self._spectrum = None

    def _writable(self):
        if self._snapshot:
            raise TypeError("a restricted view is a snapshot of its metric; "
                            "update the metric it was taken from")

    def restricted(self, idx) -> "LbfgsMetric":
        """H[idx, idx] over the len(idx) coordinates idx, as a metric.

        H_JJ = sigma I + W_J' M_fwd W_J is H's compact form over the
        gathered columns W_J of the pair rows, with H's own forward middle.
        Its inverse is not H^{-1}[idx, idx]: by Woodbury it is
        I / sigma + W_J' M_J W_J with M_J = (sigma K - W_J W_J')^{-1} / sigma,
        where K = -M_fwd^{-1} = [[S'S / sigma, L / sigma], [L' / sigma, -D]],
        so its middle is built from the restricted Gram W_J W_J'. With idx
        every coordinate, M_J is H's M_inv. The view holds one gathered copy
        of W_J and is a snapshot: it refuses pairs and seed changes. It
        keeps H's `top_bound`, as lambda_max(H_JJ) <= lambda_max(H) and the
        gathered s_J'y_J need not be positive.
        """
        idx = np.asarray(idx, dtype=np.intp)
        k, sigma = self._count, self.sigma
        # built empty, so the only pair columns it holds are the gathered ones
        view = LbfgsMetric(idx.size, capacity=0, sigma=sigma)
        view._count, view._snapshot = k, True
        view._parent_top = self.top_bound()
        if k:
            view._buffer = np.take(self._rows, idx, axis=1)
            view._gram_buffer = sub = view._buffer @ view._buffer.T
            ss, _, _, d, low = self._pair_blocks()
            view._middle = (
                _inverse(ss - sub[0::2, 0::2], low - sub[0::2, 1::2],
                         -sigma * d - sub[1::2, 1::2]) / sigma,
                self._middles()[1])
        return view

    def _pair_blocks(self):
        """S'S, S'Y, Y'Y, D = diag(S'Y) and L, the strictly lower part of
        S'Y, read from the Gram of the stored pairs."""
        g, k = self._gram, self._count
        sy = g[0::2, 1::2]
        d = np.zeros((k, k))
        d.flat[::k + 1] = sy.diagonal()
        return g[0::2, 0::2], sy, g[1::2, 1::2], d, np.where(self._lower[:k, :k], sy, 0.0)

    def _middles(self):
        """(M_inv, M_fwd): with S'Y = L + R, L strictly lower, D = diag(S'Y),
        M_fwd = -[[S'S / sigma, L / sigma], [L' / sigma, -D]]^{-1} and its
        Woodbury counterpart M_inv = [[0, -sigma R], [-sigma R', -sigma^2 D -
        sigma Y'Y]]^{-1}."""
        if self._middle is None:
            k, sigma = self._count, self.sigma
            ss, sy, yy, d, low = self._pair_blocks()
            self._middle = (
                _inverse(np.zeros((k, k)), sigma * (low - sy), -sigma * (sigma * d + yy)),
                -_inverse(ss / sigma, low / sigma, -d))
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
        if sy <= 0.0:
            raise ValueError("adapt_h0 requires s'y > 0")
        if not (0.0 < t_k <= 1.0):
            raise ValueError(f"step length must lie in (0, 1], got {t_k}")
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
        self._stale()
        return self

    def _anneal_beta(self):
        self.beta = 2.0 / (1.0 + 1.0 / self.beta)

    def update(self, t_k, s, y) -> bool:
        """Store the pair of a step of length t_k, rescale the seed from it
        if stored, and on a unit step anneal beta toward 1, so the seed decay
        tapers off once steps stop being rejected; a fixed metric (capacity
        0) keeps its beta. Returns whether the pair was stored."""
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
        """(lowest, highest) eigenvalue of H^{-1}, exact, cached until the
        pairs or sigma change: W' M_inv W shares its nonzero eigenvalues with
        C' M_inv C for any C C' = W W', and past p = 2M, W has a null space,
        where H^{-1} is 1 / sigma."""
        if self._spectrum is None:
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
            self._spectrum = (1.0 / self.sigma + lo, 1.0 / self.sigma + hi)
        return self._spectrum

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

    def product_cost(self, n_in, n_out) -> int:
        """Modeled multiply-adds of one compact product that reads n_in
        coordinates and writes n_out: W over the inputs, the middle, W' over
        the outputs and one scaled add per output. A quadratic form writes 1."""
        k = self._count
        return 2 * k * (n_in + n_out) + 4 * k * k + 2 * n_out
