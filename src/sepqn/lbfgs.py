"""Limited-memory BFGS metric with an adaptive scalar seed matrix.

The curvature pairs (s, y) with s'y > 0 are kept once, as the rows of W =
(s_1, y_1, s_2, y_2, ...), oldest first, next to their Gram matrix W W'. Both
directions use the compact form of Byrd, Nocedal & Schnabel (1994): two GEMVs
with W around a small middle matrix that folds in sigma, is rebuilt only when
the pairs or sigma change, and yields the exact top eigenvalue of H^{-1}.

The seed scale sigma is adapted between outer iterations: a rejected unit step
inflates it, and a shrink factor beta (annealed toward 1 on each inflation)
deflates it toward the curvature ratio y'y / y's. After an accepted unit step
sigma lands between the two curvature scalings s'y / s's <= y'y / s'y of the
latest pair (Barzilai & Borwein 1988), so it never stays below the curvature
it has just measured.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["LbfgsMetric", "SIGMA_FLOOR"]

SIGMA_FLOOR = 1e-8   # lowest seed scale, keeps H uniformly positive definite


def _inverse(ss, sy, yy):
    """Inverse of [[ss, sy], [sy', yy]], rows and columns in the s/y row order."""
    a = np.empty((2 * len(ss), 2 * len(ss)))
    a[0::2, 0::2], a[0::2, 1::2], a[1::2, 0::2], a[1::2, 1::2] = ss, sy, sy.T, yy
    return np.linalg.inv(a)


class LbfgsMetric:
    def __init__(self, dim, capacity=10, sigma=1.0, sigma_floor=SIGMA_FLOOR):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        # a nan sigma would pass a plain `<= 0` test and stall the dual loop
        if not (math.isfinite(sigma) and sigma > 0):
            raise ValueError(f"sigma must be finite and > 0, got {sigma}")
        if not (math.isfinite(sigma_floor) and sigma_floor >= 0):
            raise ValueError(f"sigma_floor must be finite and >= 0, got {sigma_floor}")
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.dim = int(dim)
        self.capacity = int(capacity)
        self.sigma = float(sigma)
        self.sigma_floor = float(sigma_floor)
        self.beta = 2.0
        self.floor_hits = 0
        self._count = 0
        self._rows = np.empty((2 * self.capacity, self.dim))   # s_1, y_1, s_2, ...
        self._gram = np.empty((2 * self.capacity, 2 * self.capacity))
        self._middle = None
        self._spectrum = None

    @property
    def pair_count(self) -> int:
        return self._count

    def push_pair(self, s, y) -> bool:
        """Store (s, y) iff s'y > 0, evicting the oldest pair at capacity."""
        s, y = np.asarray(s, dtype=np.float64), np.asarray(y, dtype=np.float64)
        if s.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError("pair vectors must have the metric's dimension")
        if self.capacity == 0 or float(s @ y) <= 0.0:
            return False
        rows, gram = self._rows, self._gram
        if self._count == self.capacity:
            flat = rows.reshape(-1)  # a 1-d shift runs in place, without a temporary
            flat[:-2 * self.dim] = flat[2 * self.dim:]
            gram[:-2, :-2] = gram[2:, 2:]
            self._count -= 1
        new = 2 * self._count
        rows[new], rows[new + 1] = s, y
        cross = rows[:new + 2] @ rows[new:new + 2].T
        gram[:new + 2, new:new + 2] = cross
        gram[new:new + 2, :new + 2] = cross.T
        self._count += 1
        self._middle = None
        self._spectrum = None
        return True

    def _middles(self):
        """(M_inv, M_fwd): with S'Y = L + R, L strictly lower, D = diag(S'Y),
        M_fwd = -[[S'S / sigma, L / sigma], [L' / sigma, -D]]^{-1} and its
        Woodbury counterpart M_inv = [[0, -sigma R], [-sigma R', -sigma^2 D -
        sigma Y'Y]]^{-1}."""
        if self._middle is None:
            k, sigma = self._count, self.sigma
            g = self._gram[:2 * k, :2 * k]
            ss, sy, yy = g[0::2, 0::2], g[0::2, 1::2], g[1::2, 1::2]
            d, low = np.diag(np.diag(sy)), np.tril(sy, -1)
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
            w = self._rows[:2 * self._count]
            out += (self._middles()[0 if inverse else 1] @ (w @ v)) @ w
        return out

    def inv_apply(self, v) -> np.ndarray:
        """H^{-1} v = v / sigma + W' M_inv W v, O(M p)."""
        return self._compact(v, inverse=True)

    def apply(self, v) -> np.ndarray:
        """H v = sigma v + W' M_fwd W v, O(M p)."""
        return self._compact(v, inverse=False)

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
        if t_k < 1.0:
            self.sigma /= t_k
            self.beta = 2.0 / (1.0 + 1.0 / self.beta)
        self.sigma = min(self.sigma / self.beta, float(y @ y) / sy)
        if t_k == 1.0:
            self.sigma = max(self.sigma, sy / float(s @ s))
        if self.sigma < self.sigma_floor:
            self.sigma = self.sigma_floor
            self.floor_hits += 1
        self._middle = None
        self._spectrum = None
        return self

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
                k2 = 2 * self._count
                if self.dim <= k2:
                    factor, null = self._rows[:k2], False
                else:
                    lam, vec = np.linalg.eigh(self._gram[:k2, :k2])
                    factor, null = vec * np.sqrt(np.maximum(lam, 0.0)), True
                eig = np.linalg.eigh(factor.T @ self._middles()[0] @ factor)[0]
                lo, hi = float(eig[0]), float(eig[-1])
                if null:
                    lo, hi = min(lo, 0.0), max(hi, 0.0)
            self._spectrum = (1.0 / self.sigma + lo, 1.0 / self.sigma + hi)
        return self._spectrum

    def inv_norm_estimate(self) -> float:
        """Exact largest eigenvalue of H^{-1}."""
        return self.inv_spectrum()[1]

    @property
    def inv_apply_cost(self) -> int:  # multiply-adds, either direction
        return (4 * self._count + 2) * self.dim + 4 * self._count ** 2

    apply_cost = inv_apply_cost
