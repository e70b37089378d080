import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepqn.operators import Identity
from sepqn.problems import NormKind, RegularizerTerm
from sepqn.projections import (
    KERNELS,
    SEGMENTED,
    project_l1_ball,
)

KINDS = list(NormKind)


def brute_force_constrained_quadratic(z0, grad, step, radius, kind, iters=100000):
    """Projected gradient on the dual-step objective, the independent oracle."""
    ball = {
        NormKind.L1: lambda v: np.clip(v, -radius, radius),
        NormKind.L2: lambda v: v if np.linalg.norm(v) <= radius
        else v * (radius / np.linalg.norm(v)),
        NormKind.LINF: lambda v: project_l1_ball(v, radius),
    }[kind]
    z = ball(np.zeros_like(z0))
    lr = 0.5
    for _ in range(iters):
        g = (z - z0) / step + grad
        z = ball(z - lr * step * g)
    return z


def certificate(term, z, x):
    """The dual loop's per-term gap at x: w ||u|| + z'u, u = W x + b."""
    u = term.image(x)
    return term.weight * KERNELS[term.kind].norm(u) + float(z @ u)


def test_dual_step_l1_clamps():
    out = KERNELS[NormKind.L1].project(np.array([0.5, -0.5]) - np.array([-1.0, 1.0]), 1.0)
    assert np.allclose(out, [1.0, -1.0])


def test_dual_step_l2_radial():
    out = KERNELS[NormKind.L2].project(np.zeros(2) - np.array([-3.0, -4.0]), 2.0)
    assert np.allclose(out, [1.2, 1.6])


def test_dual_step_linf_l1_ball_projection():
    # bisection oracle on the soft threshold: sum(|v| - tau)_+ = radius
    v = np.array([0.9, 0.5, -0.3])

    def bisect(v, radius):
        lo, hi = 0.0, np.abs(v).max()
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.maximum(np.abs(v) - mid, 0.0).sum() > radius:
                lo = mid
            else:
                hi = mid
        t = 0.5 * (lo + hi)
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)

    oracle = bisect(v, 1.0)
    assert np.allclose(oracle, [2.0 / 3.0, 4.0 / 15.0, -1.0 / 15.0], atol=1e-9)
    out = KERNELS[NormKind.LINF].project(np.zeros(3) - (-v), 1.0)
    assert np.allclose(out, oracle, atol=1e-9)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.sampled_from(KINDS))
def test_dual_step_output_always_feasible(seed, kind):
    rng = np.random.default_rng(seed)
    radius = 0.1 + 2 * rng.random()
    gradient = rng.standard_normal(5)
    stepped = KERNELS[kind].project(np.zeros(5) - rng.random() * 3 * gradient, radius)
    assert KERNELS[kind].dual_norm(stepped) <= radius + 1e-12


@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.sampled_from(KINDS))
def test_dual_step_firm_at_zero_step(seed, kind):
    rng = np.random.default_rng(seed)
    radius = 0.1 + rng.random()
    once = KERNELS[kind].project(rng.standard_normal(4) * 2, radius)
    twice = KERNELS[kind].project(once, radius)
    assert np.array_equal(once, twice)


@pytest.mark.parametrize("kind", KINDS)
def test_dual_step_matches_brute_force_oracle(kind, rng):
    for trial in range(3):
        q = 3 if trial else 2
        radius = 0.4 + rng.random()
        z0 = KERNELS[kind].project(rng.standard_normal(q), radius)
        grad = rng.standard_normal(q)
        step = 0.3 + rng.random()
        got = KERNELS[kind].project(z0 - step * grad, radius)
        want = brute_force_constrained_quadratic(z0 - 0.0, grad, step, radius, kind)
        # oracle minimizes (1/2 step)||z - z0||^2 + z'grad over the ball
        assert np.linalg.norm(got - want) <= 1e-6


def test_l1_ball_projection_kkt(rng):
    for _ in range(20):
        v = rng.standard_normal(8) * 2
        radius = 0.5 + rng.random()
        out = project_l1_ball(v, radius)
        if np.abs(v).sum() <= radius:
            assert np.array_equal(out, v)
        else:
            assert np.abs(out).sum() == pytest.approx(radius, rel=1e-12)
            # soft-threshold structure: a single tau explains every coordinate
            active = np.abs(out) > 0
            taus = np.abs(v[active]) - np.abs(out[active])
            assert taus.max() - taus.min() <= 1e-12
            assert np.all(np.abs(v[~active]) <= taus.max() + 1e-12)
            assert np.all(np.sign(out[active]) == np.sign(v[active]))


def test_dual_feasible_boundary_cases():
    assert KERNELS[NormKind.L1].dual_norm(np.array([1.0, -1.0])) <= 1.0
    assert KERNELS[NormKind.L1].dual_norm(np.array([1.1, 0.0])) > 1.0
    assert KERNELS[NormKind.L2].dual_norm(np.array([1.2, 1.6])) <= 2.0


def test_certificate_tight_support():
    term = RegularizerTerm(NormKind.L1, 1.0, Identity(2))
    x = np.array([2.0, -3.0])
    z = np.array([-1.0, 1.0])
    assert certificate(term, z, x) == pytest.approx(0.0, abs=1e-14)


def test_certificate_zero_dual_gives_psi():
    term = RegularizerTerm(NormKind.L1, 0.7, Identity(2))
    x = np.array([2.0, -3.0])
    assert certificate(term, np.zeros(2), x) == pytest.approx(
        term.value(x)
    )


@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.sampled_from(KINDS))
def test_certificate_nonnegative_for_feasible_duals(seed, kind):
    # Fenchel-Young: psi(u) >= -z'u whenever z sits in the dual ball
    rng = np.random.default_rng(seed)
    weight = 0.2 + rng.random()
    term = RegularizerTerm(kind, weight, Identity(5))
    x = rng.standard_normal(5) * 3
    z = KERNELS[kind].project(rng.standard_normal(5) * weight, weight)
    assert certificate(term, z, x) >= -1e-12


@given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=8),
       st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.sampled_from(sorted(SEGMENTED, key=lambda k: k.value)),
       st.sampled_from([0.0, 0.05, 0.5, 3.0]))
def test_segmented_kernels_match_per_segment_calls(sizes, seed, kind, radius):
    # a fused run of group terms calls each kernel once with segment starts;
    # that must be the per-segment calls of the one-segment kernel
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(sum(sizes)) * rng.choice([1e-3, 1.0, 1e3])
    starts = np.cumsum([0] + sizes[:-1])
    k = KERNELS[kind]
    pieces = np.split(v, starts[1:])
    want = sum(k.norm(piece) for piece in pieces)
    assert k.norm(v, starts) == pytest.approx(want, rel=1e-13)
    projected = np.split(k.project(v, radius, starts), starts[1:])
    for piece, got in zip(pieces, projected):
        assert np.allclose(got, k.project(piece, radius), rtol=1e-13, atol=0.0)
        # feasible by the segmented norm itself, and to an ulp by the dot
        assert k.dual_norm(got) <= radius * (1.0 + 4e-16)
        if kind is NormKind.L2:
            assert k.norm(got, np.array([0])) <= radius
    if radius > 0:
        proxed = np.split(k.prox(v, radius, starts), starts[1:])
        for piece, got in zip(pieces, proxed):
            assert np.allclose(got, k.prox(piece, radius), rtol=1e-12,
                               atol=1e-15 * np.abs(piece).max())


def _safe_l2(v):
    top = np.abs(v).max()
    return top * np.linalg.norm(v / top) if top > 0 else 0.0


@given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=0, max_value=300),
       st.sampled_from([0.0, 0.05, 0.5, 3.0]),
       st.booleans())
def test_l2_kernels_exact_at_any_magnitude(sizes, seed, exponent, radius, segmented):
    # v'v overflows past 1e154; norms and projections must not
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(sum(sizes)) * 10.0 ** exponent
    starts = np.cumsum([0] + sizes[:-1]) if segmented else None
    pieces = np.split(v, starts[1:]) if segmented else [v]
    k = KERNELS[NormKind.L2]
    norms = [_safe_l2(piece) for piece in pieces]
    with np.errstate(over="ignore"):
        got_norm = k.norm(v, starts) if segmented else k.norm(v)
        out = k.project(v, radius, starts) if segmented else k.project(v, radius)
    assert got_norm == pytest.approx(sum(norms), rel=1e-13)
    assert np.all(np.isfinite(out))
    for piece, nv, got in zip(pieces, norms, np.split(out, starts[1:]) if segmented
                              else [out]):
        assert np.linalg.norm(got) <= radius * (1.0 + 4e-16)
        # inside the ball the point stays; outside it lands on the boundary
        # along its own direction
        want = piece if nv <= radius else piece * (radius / nv)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-300)
