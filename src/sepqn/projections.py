"""Norm kinds and their kernels: norm, dual norm and dual-ball projection.

`KERNELS[kind]` is the one home of every numerical decision that depends on a
penalty's norm. Each kind supplies three kernels: the norm itself, its dual
norm, and the projection onto a dual ball. The prox is derived from the
projection for every kind alike, by Moreau's identity. The problem layer, the
dual solver and the baselines all read the table, so a new norm kind is added
here and nowhere else. The l1 and l2 kernels act on a vector split into
segments, one per group of a fused run of group terms, in one call; l2 has
only that segmented form, and takes a whole vector as one segment.

With the penalty weight folded into each term, a term's dual variable lives in
the dual-norm ball of radius equal to that weight: the l1 penalty pairs with a
box (sup-norm ball), the group l2 penalty with a Euclidean ball, and the
sup-norm penalty with an l1 ball. Each projection onto such a ball has a
closed form, so the dual solver's projected steps call the kernels directly.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "NormKind",
    "NormKernels",
    "KERNELS",
    "SEGMENTED",
    "project_box",
    "project_l2_ball",
    "project_l1_ball",
]


class NormKind(Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


# the segment starts of a vector taken whole, as one segment
_WHOLE = np.zeros(1, dtype=np.intp)
_WHOLE.setflags(write=False)


# the hot kernels call the ufuncs directly: np.sum and np.clip add wrapper
# layers that cost microseconds per call and give the same bits
def norm_l1(u, starts=None):
    return float(np.add.reduce(np.abs(u)))


def _segment_norms(u, starts):
    if not u.size:
        # a zero-row operator's image: its one segment is empty, of norm 0
        return np.zeros(len(starts))
    return np.sqrt(np.add.reduceat(u * u, starts))


def _rescaled_segment_norms(u, starts):
    # each segment divided by its max|u| before squaring, for when u * u
    # overflows
    top = np.maximum.reduceat(np.abs(u), starts)
    top[(top == 0.0) | (top == np.inf)] = 1.0
    sizes = np.diff(np.append(starts, u.size))
    return top * _segment_norms(u / top.repeat(sizes), starts)


def norm_l2(u, starts=_WHOLE):
    total = float(_segment_norms(u, starts).sum())
    if total == math.inf:
        total = float(_rescaled_segment_norms(u, starts).sum())
    return total


def norm_linf(u):
    return float(np.abs(u).max()) if u.size else 0.0


def project_box(v, radius, starts=None):
    return np.minimum(np.maximum(v, -radius), radius)


def project_l2_ball(v, radius, starts=_WHOLE):
    if radius == 0.0:
        return np.zeros_like(v)
    sizes = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=sizes[:-1])
    sizes[-1] = v.size - starts[-1]
    out = v.copy()
    norms = _segment_norms(out, starts)
    top = norms.max()
    if top == np.inf:
        norms = _rescaled_segment_norms(out, starts)
        top = norms.max()
    # the first pass projects; later ones trim ulp-level overshoot, which
    # would break strict feasibility and firmness. A segment inside the ball
    # is scaled by radius/radius, exactly 1
    while top > radius:
        out *= (radius / np.maximum(norms, radius)).repeat(sizes)
        norms = _segment_norms(out, starts)
        top = norms.max()
    return out


def project_l1_ball(v, radius):
    """Euclidean projection onto {z : ||z||_1 <= radius}, sort-based O(q log q).

    When v is outside the ball the result is soft-threshold(v, tau) with the
    unique tau > 0 that puts the output exactly on the boundary.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    if radius == 0.0:
        return np.zeros_like(v)
    u = np.sort(a)[::-1]
    css = np.cumsum(u) - radius
    j = np.arange(1, u.size + 1)
    rho = np.nonzero(u - css / j > 0)[0][-1]
    tau = css[rho] / (rho + 1.0)
    out = np.sign(v) * np.maximum(a - tau, 0.0)
    # ulp-level overshoot would break strict feasibility and firmness
    total = np.abs(out).sum()
    while total > radius:
        out *= radius / total
        total = np.abs(out).sum()
    return out


class NormKernels(NamedTuple):
    """The raw kernels of one norm kind; none of them validates its input.

    For the kinds in SEGMENTED, norm and project take optional segment starts
    as their last argument: increasing offsets, the first 0, of non-empty
    segments that cover the vector. The norm is then the sum of the segment
    norms, and project acts on each segment alone, with the one radius.
    Without starts the vector is one segment.
    """

    norm: Callable        # ||u||
    dual_norm: Callable   # ||z||_*, the gauge of the dual ball
    project: Callable     # (v, radius) -> projection onto {||z||_* <= radius}

    def prox(self, v, threshold, *starts):
        """prox of threshold * ||.|| at v, on each segment when given starts.

        By Moreau's identity it is v minus the projection of v onto the dual
        ball of radius threshold (Parikh & Boyd 2014, Proximal Algorithms,
        sec. 2.5). Threshold 0 returns v, up to the sign of a zero entry.
        """
        return v - self.project(v, threshold, *starts)


KERNELS = {
    NormKind.L1: NormKernels(norm_l1, norm_linf, project_box),
    NormKind.L2: NormKernels(norm_l2, norm_l2, project_l2_ball),
    NormKind.LINF: NormKernels(norm_linf, norm_l1, project_l1_ball),
}

# kinds whose kernels take segment starts: l1 is separable and ignores them,
# and l2 segments cost one reduction; an l1-ball projection would need a sort
# per segment, so sup-norm terms keep one kernel call each
SEGMENTED = frozenset({NormKind.L1, NormKind.L2})

