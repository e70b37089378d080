import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepqn.lbfgs import LbfgsMetric
from sepqn.operators import ExplicitSparse, Identity
from sepqn.problems import NormKind, RegularizerTerm
from sepqn.scd import step_delta_cap


def dense_bfgs_oracle(pairs, sigma, p):
    """Textbook recursive BFGS update of sigma*I, dense, for cross-checking."""
    h = sigma * np.eye(p)
    for s, y in pairs:
        hs = h @ s
        h = h - np.outer(hs, hs) / float(s @ hs) + np.outer(y, y) / float(s @ y)
    return h


def dense_inverse_oracle(pairs, sigma, p):
    hinv = np.eye(p) / sigma
    for s, y in pairs:
        rho = 1.0 / float(s @ y)
        left = np.eye(p) - rho * np.outer(s, y)
        hinv = left @ hinv @ left.T + rho * np.outer(s, s)
    return hinv


def random_pairs(rng, p, count):
    pairs = []
    while len(pairs) < count:
        s = rng.standard_normal(p)
        y = s + 0.5 * rng.standard_normal(p)
        if float(s @ y) > 0:
            pairs.append((s, y))
    return pairs


def test_push_accepts_positive_curvature():
    m = LbfgsMetric(3)
    e1 = np.array([1.0, 0.0, 0.0])
    assert m.push_pair(e1, e1)
    assert m.pair_count == 1


def test_push_rejects_negative_curvature():
    m = LbfgsMetric(3)
    e1 = np.array([1.0, 0.0, 0.0])
    assert not m.push_pair(e1, -e1)
    assert m.pair_count == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_push_refuses_a_non_finite_entry(bad):
    # a nan pair used to be stored, and the next inverse apply raised
    # LinAlgError on its singular middle
    m = LbfgsMetric(3)
    s = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        m.push_pair(s, np.array([1.0, bad, 0.0]))
    assert m.pair_count == 0


def test_push_refuses_an_overflowing_curvature():
    # entries of 1e200 give s'y = inf; stored, they made inverse applies nan
    m = LbfgsMetric(3)
    big = np.full(3, 1e200)
    with np.errstate(over="ignore"):
        assert not m.push_pair(big, big)
    assert m.pair_count == 0
    assert np.isfinite(m.inv_apply(np.ones(3))).all()


def test_ring_buffer_eviction(rng):
    m = LbfgsMetric(4, capacity=2)
    for _ in range(3):
        s = rng.standard_normal(4)
        y = s + 0.1 * rng.standard_normal(4)
        assert m.push_pair(s, y)
    assert m.pair_count == 2


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_curvature_filtering_property(seed):
    rng = np.random.default_rng(seed)
    m = LbfgsMetric(5, capacity=4)
    kept = []
    for _ in range(10):
        s = rng.standard_normal(5)
        y = rng.standard_normal(5)
        if m.push_pair(s, y):
            kept.append((s, y))
    assert m.pair_count == min(4, len(kept))
    for s, y in kept:
        assert float(s @ y) > 0


def test_inv_apply_empty_history():
    m = LbfgsMetric(2, sigma=4.0)
    assert np.allclose(m.inv_apply(np.array([8.0, 0.0])), [2.0, 0.0])


def test_inv_apply_single_pair_matches_inverse_update_formula():
    # one pair (e1, 2 e1), sigma 1: the inverse update leaves 0.5 on e1
    m = LbfgsMetric(2, sigma=1.0)
    e1 = np.array([1.0, 0.0])
    m.push_pair(e1, 2.0 * e1)
    got = m.inv_apply(e1)
    oracle = dense_inverse_oracle([(e1, 2.0 * e1)], 1.0, 2) @ e1
    assert np.allclose(got, oracle, atol=1e-15)
    assert got[0] == pytest.approx(0.5)


def test_inv_apply_matches_dense_oracle(rng):
    p = 8
    pairs = random_pairs(rng, p, 3)
    m = LbfgsMetric(p, capacity=10, sigma=1.7)
    for s, y in pairs:
        m.push_pair(s, y)
    oracle = dense_inverse_oracle(pairs, 1.7, p)
    for _ in range(10):
        v = rng.standard_normal(p)
        want = oracle @ v
        got = m.inv_apply(v)
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


def test_apply_empty_history():
    m = LbfgsMetric(2, sigma=4.0)
    assert np.allclose(m.apply(np.array([1.0, 1.0])), [4.0, 4.0])


def test_apply_matches_dense_oracle(rng):
    p = 9
    pairs = random_pairs(rng, p, 4)
    m = LbfgsMetric(p, capacity=10, sigma=0.8)
    for s, y in pairs:
        m.push_pair(s, y)
    oracle = dense_bfgs_oracle(pairs, 0.8, p)
    for _ in range(10):
        v = rng.standard_normal(p)
        want = oracle @ v
        got = m.apply(v)
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


def test_apply_inv_apply_roundtrip(rng):
    p = 12
    m = LbfgsMetric(p, capacity=6, sigma=2.3)
    for s, y in random_pairs(rng, p, 6):
        m.push_pair(s, y)
    for _ in range(100):
        v = rng.standard_normal(p)
        w = m.apply(m.inv_apply(v))
        assert np.linalg.norm(w - v) <= 1e-9 * np.linalg.norm(v)


def test_adapt_unit_step_keeps_beta():
    # sigma 10, beta 2, curvature ratio 3: min(5, 3) = 3, beta unchanged
    m = LbfgsMetric(2, sigma=10.0)
    s = np.array([1.0, 0.0])
    y = 3.0 * s  # y'y / y's = 3
    m.adapt_h0(1.0, s, y)
    assert m.sigma == pytest.approx(3.0)
    assert m.beta == pytest.approx(2.0)


def test_adapt_fractional_step_inflates_then_caps():
    # t 0.5: sigma 10 -> 20, beta -> 4/3, then min(15, 100) = 15
    m = LbfgsMetric(2, sigma=10.0)
    s = np.array([1.0, 0.0])
    y = 100.0 * s  # ratio 100
    m.adapt_h0(0.5, s, y)
    assert m.sigma == pytest.approx(15.0)
    assert m.beta == pytest.approx(4.0 / 3.0)


def test_beta_monotone_to_one(rng):
    m = LbfgsMetric(3, sigma=1.0)
    s = np.array([1.0, 0.0, 0.0])
    y = s.copy()
    prev = m.beta
    for _ in range(40):
        m.adapt_h0(0.5, s, y)
        assert m.beta <= prev
        prev = m.beta
    assert m.beta == pytest.approx(1.0, abs=1e-9)


def test_adapt_unit_step_stays_between_curvature_scalings():
    # s'y / s's = 1 and y'y / s'y = 5 for this pair
    s = np.array([1.0, 0.0])
    y = np.array([1.0, 2.0])
    low = LbfgsMetric(2, sigma=0.1)
    low.adapt_h0(1.0, s, y)  # min(0.05, 5) = 0.05, raised to 1
    assert low.sigma == pytest.approx(1.0)
    high = LbfgsMetric(2, sigma=20.0)
    high.adapt_h0(1.0, s, y)  # min(10, 5) = 5, still capped
    assert high.sigma == pytest.approx(5.0)
    assert low.floor_hits == high.floor_hits == 0


def test_adapt_rejects_bad_inputs():
    m = LbfgsMetric(2)
    s = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        m.adapt_h0(1.0, s, -s)
    with pytest.raises(ValueError):
        m.adapt_h0(1.5, s, s)


def test_adapt_refuses_a_nan_curvature():
    m = LbfgsMetric(2)
    s = np.array([1.0, np.nan])
    with pytest.raises(ValueError):
        m.adapt_h0(1.0, s, s)
    assert m.sigma == 1.0


@pytest.mark.parametrize("t", [1.5, 0.0, np.nan])
@pytest.mark.parametrize("capacity, sign", [(2, 1.0), (0, 1.0), (2, -1.0)])
def test_a_refused_update_changes_nothing(t, capacity, sign):
    # a bad step length used to be read only after the pair was stored, and
    # only when it was: a half-applied update, or none refused at all
    m = LbfgsMetric(2, capacity=capacity, sigma=3.0)
    s = np.array([1.0, 0.5])
    with pytest.raises(ValueError, match="t_k"):
        m.update(t, s, sign * s)
    assert (m.pair_count, m.sigma, m.beta) == (0, 3.0, 2.0)


def test_sigma_floor_counted():
    m = LbfgsMetric(2, sigma=1e-7)
    s = np.array([1.0, 0.0])
    y = 1e-9 * s
    m.adapt_h0(1.0, s, y)
    assert m.sigma == 1e-8
    assert m.floor_hits == 1


@pytest.mark.parametrize("setting", [
    {"sigma": float("nan")}, {"sigma": float("inf")}, {"sigma": 0.0},
])
def test_rejects_bad_seed_scale(setting):
    # a nan sigma once passed the positivity test and hung the dual loop
    (name,) = setting
    with pytest.raises(ValueError, match=name):
        LbfgsMetric(4, **setting)


@pytest.mark.parametrize("args, kwargs, name", [
    ((5.5,), {}, "dim"),
    ((0,), {}, "dim"),
    ((5,), {"capacity": 2.5}, "capacity"),
    ((5,), {"capacity": -1}, "capacity"),
])
def test_rejects_sizes_that_are_not_integers_in_range(args, kwargs, name):
    # a float size once truncated silently: capacity 2.5 kept 2 pairs
    with pytest.raises(ValueError, match=name):
        LbfgsMetric(*args, **kwargs)


def test_numpy_integer_sizes_accepted():
    m = LbfgsMetric(np.int64(5), capacity=np.int32(2))
    assert (m.dim, m.capacity) == (5, 2)


def test_materialize_empty_history():
    m = LbfgsMetric(3, sigma=2.0)
    assert np.allclose(m.materialize_dense(), 2.0 * np.eye(3))


def test_materialize_one_pair_matches_textbook_update(rng):
    p = 5
    pairs = random_pairs(rng, p, 1)
    m = LbfgsMetric(p, sigma=1.5)
    m.push_pair(*pairs[0])
    assert np.allclose(m.materialize_dense(), dense_bfgs_oracle(pairs, 1.5, p),
                       atol=1e-12)


def test_materialize_symmetry(rng):
    p = 7
    m = LbfgsMetric(p, sigma=1.1)
    for s, y in random_pairs(rng, p, 5):
        m.push_pair(s, y)
    h = m.materialize_dense()
    assert np.abs(h - h.T).max() <= 1e-12


def test_materialize_guard():
    with pytest.raises(ValueError):
        LbfgsMetric(600).materialize_dense()


def test_seed_ordering_full_memory(rng):
    # same pair stream, seed scales 2*sigma vs sigma: the larger seed
    # dominates in the Loewner order after any number of updates
    for trial in range(30):
        p = int(rng.integers(4, 21))
        pairs = random_pairs(rng, p, p)
        sb = 0.5 + rng.random()
        a = LbfgsMetric(p, capacity=p, sigma=2.0 * sb)
        b = LbfgsMetric(p, capacity=p, sigma=sb)
        for s, y in pairs:
            a.push_pair(s, y)
            b.push_pair(s, y)
        diff = a.materialize_dense() - b.materialize_dense()
        assert np.linalg.eigvalsh(diff).min() > -1e-10
        assert np.linalg.eigvalsh(a.materialize_dense()).min() > 0
        assert np.linalg.eigvalsh(b.materialize_dense()).min() > 0


def test_positive_definite_after_random_streams(rng):
    for _ in range(20):
        p = int(rng.integers(3, 12))
        m = LbfgsMetric(p, capacity=6, sigma=0.5 + rng.random())
        for s, y in random_pairs(rng, p, 8):
            m.push_pair(s, y)
        assert np.linalg.eigvalsh(m.materialize_dense()).min() > 0


def test_inv_norm_estimate_empty():
    assert LbfgsMetric(4, sigma=4.0).inv_norm_estimate() == pytest.approx(0.25)


def top_inverse_eigenvalue(m):
    return np.linalg.eigvalsh(np.linalg.inv(m.materialize_dense())).max()


def test_inv_norm_estimate_with_history(rng):
    p = 6
    m = LbfgsMetric(p, sigma=1.3)
    for s, y in random_pairs(rng, p, 4):
        m.push_pair(s, y)
    assert m.inv_norm_estimate() == pytest.approx(top_inverse_eigenvalue(m), rel=1e-9)


@pytest.mark.parametrize("p, capacity, pushes", [
    (30, 4, 4),    # p > 2m: W has a null space, where H^{-1} is 1 / sigma
    (6, 4, 4),     # p <= 2m: W spans the whole space
    (5, 3, 7),     # p <= 2m after evictions
])
def test_inv_norm_estimate_is_exact(rng, p, capacity, pushes):
    for sigma in (0.05, 1.0, 40.0):
        m = LbfgsMetric(p, capacity=capacity, sigma=sigma)
        for s, y in random_pairs(rng, p, pushes):
            m.push_pair(s, y)
        assert m.inv_norm_estimate() == pytest.approx(top_inverse_eigenvalue(m),
                                                      rel=1e-9)


@pytest.mark.parametrize("p", [3, 4, 12])
def test_inv_norm_estimate_exact_for_rank_deficient_pairs(rng, p):
    # y = c s makes W rank-deficient; when every c exceeds sigma, 1 / sigma
    # is the top eigenvalue of H^{-1} iff the s vectors leave a direction out
    for scales in ((4.0, 5.0), (0.5, 8.0), (3.0, 3.0, 6.0), (3.0, 4.0, 5.0, 6.0)):
        m = LbfgsMetric(p, capacity=len(scales), sigma=2.0)
        for c in scales:
            s = rng.standard_normal(p)
            assert m.push_pair(s, c * s)
        assert m.inv_norm_estimate() == pytest.approx(top_inverse_eigenvalue(m),
                                                      rel=1e-9)


@pytest.mark.parametrize("p, capacity, pushes", [(30, 4, 4), (6, 4, 4), (5, 3, 7)])
def test_inv_spectrum_is_exact_and_follows_the_metric(rng, p, capacity, pushes):
    def dense_spectrum(m):
        eig = np.linalg.eigvalsh(np.linalg.inv(m.materialize_dense()))
        return eig[0], eig[-1]

    m = LbfgsMetric(p, capacity=capacity, sigma=0.7)
    assert m.inv_spectrum() == (1.0 / 0.7, 1.0 / 0.7)
    pairs = random_pairs(rng, p, pushes + 1)
    for s, y in pairs[:-1]:
        m.push_pair(s, y)
    for _ in range(2):  # a new pair, then a new sigma, must refresh it
        lo, hi = m.inv_spectrum()
        want_lo, want_hi = dense_spectrum(m)
        assert lo == pytest.approx(want_lo, rel=1e-8)
        assert hi == pytest.approx(want_hi, rel=1e-9) and hi == m.inv_norm_estimate()
        m.push_pair(*pairs[-1])
        m.adapt_h0(0.5, *pairs[-1])


def test_both_directions_match_oracles_after_eviction_and_seed_change(rng):
    p, capacity = 9, 3
    pairs = random_pairs(rng, p, 7)
    m = LbfgsMetric(p, capacity=capacity, sigma=1.4)
    for s, y in pairs:
        m.push_pair(s, y)
    assert m.pair_count == capacity
    kept = pairs[-capacity:]
    m.adapt_h0(0.5, *kept[-1])
    assert m.sigma != 1.4
    fwd = dense_bfgs_oracle(kept, m.sigma, p)
    inv = dense_inverse_oracle(kept, m.sigma, p)
    for _ in range(10):
        v = rng.standard_normal(p)
        for got, want in ((m.apply(v), fwd @ v), (m.inv_apply(v), inv @ v)):
            assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


def _inline_update(metric, t, s, y):
    """The outer loop's pair handling before `LbfgsMetric.update` held it."""
    accepted = False
    if float(s @ y) > 0.0:
        accepted = metric.push_pair(s, y)
        if accepted:
            metric.adapt_h0(t, s, y)
    if t == 1.0 and metric.capacity:
        metric.beta = 2.0 / (1.0 + 1.0 / metric.beta)
    return accepted


@pytest.mark.parametrize("capacity", [0, 1, 3])
def test_update_matches_the_inline_sequence(rng, capacity):
    # unit and fractional steps, with positive, zero and negative s'y
    steps = [(1.0, 1), (0.5, 1), (1.0, -1), (0.25, 1), (1.0, 0), (1.0, 1),
             (0.5, -1), (0.5, 0), (1.0, 1), (0.125, 1), (1.0, 1)]
    new = LbfgsMetric(5, capacity=capacity, sigma=3.0)
    old = LbfgsMetric(5, capacity=capacity, sigma=3.0)
    for t, sign in steps:
        s = rng.standard_normal(5)
        y = s + 0.3 * rng.standard_normal(5)
        if sign == 0:  # disjoint supports: s'y is exactly 0
            s[2:], y[:2] = 0.0, 0.0
        elif (s @ y > 0) != (sign > 0):
            y = -y
        assert new.update(t, s, y) == _inline_update(old, t, s, y)
        assert (new.sigma, new.beta, new.pair_count, new.floor_hits) == \
            (old.sigma, old.beta, old.pair_count, old.floor_hits)
        k = 2 * new.pair_count
        assert np.array_equal(new._rows[:k], old._rows[:k])
    if capacity:
        assert new.pair_count > 0 and new.beta < 2.0
    else:
        assert new.pair_count == 0 and new.beta == 2.0 and new.sigma == 3.0


def test_restricted_view_is_the_principal_submatrix(rng):
    # H[J, J] and its exact inverse, which is not H^{-1}[J, J]
    p = 30
    metric = LbfgsMetric(p, capacity=4, sigma=0.6)
    for s, y in random_pairs(rng, p, 5):
        metric.push_pair(s, y)
    idx = np.sort(rng.choice(p, size=11, replace=False))
    view = metric.restricted(idx)
    sub = metric.materialize_dense()[np.ix_(idx, idx)]
    assert (view.dim, view.pair_count, view.sigma) == (11, 4, 0.6)
    np.testing.assert_allclose(view.materialize_dense(), sub, rtol=0, atol=1e-13)
    v = rng.standard_normal(11)
    np.testing.assert_allclose(view.inv_apply(v), np.linalg.solve(sub, v), rtol=1e-11)
    inv_sub = np.linalg.inv(metric.materialize_dense())[np.ix_(idx, idx)]
    assert np.abs(inv_sub @ v - np.linalg.solve(sub, v)).max() > 1e-3
    lo, hi = np.linalg.eigvalsh(np.linalg.inv(sub))[[0, -1]]
    assert view.inv_spectrum() == pytest.approx((lo, hi), rel=1e-11)


def test_every_middle_is_one_inversion_of_one_kernel(rng, monkeypatch):
    # a refresh of the metric's middles and a view's middles each make one
    # np.linalg.inv call; over every coordinate the view keeps the metric's
    # forward middle bit for bit and its inverse middle to rounding, as it
    # forms its Gram in one product
    p = 12
    metric = LbfgsMetric(p, capacity=3, sigma=0.6)
    for s, y in random_pairs(rng, p, 4):
        metric.push_pair(s, y)
    shapes, real_inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(a.shape) or real_inv(a))
    m_inv, m_fwd = metric._middles()
    view = metric.restricted(np.arange(p))
    view_inv, view_fwd = view._middles()
    metric.inv_apply(np.ones(p)), view.inv_apply(np.ones(p))
    assert shapes == [(2, 6, 6), (2, 6, 6)]
    np.testing.assert_array_equal(view_fwd, m_fwd)
    assert np.abs(view_inv - m_inv).max() <= 1e-10 * np.abs(m_inv).max()


@pytest.mark.parametrize("p, count", [(30, 4), (7, 5)])
def test_cross_product_and_inverse_form_match_the_full_products(rng, p, count):
    # H[J, off] v from the view's columns is the J-part of the full apply,
    # and u' H^{-1}[J, J] u the full inverse apply's form, with v and u
    # scattered to full length; p = 7 leaves W no null space
    metric = LbfgsMetric(p, capacity=count, sigma=0.6)
    for s, y in random_pairs(rng, p, count + 1):
        metric.push_pair(s, y)
    order = rng.permutation(p)
    idx, off = np.sort(order[:p // 2]), np.sort(order[p // 2:])
    view = metric.restricted(idx)
    v = rng.standard_normal(off.size)
    full = np.zeros(p)
    full[off] = v
    want = metric.apply(full)[idx]
    got = metric.cross_apply(view, off, v)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    u = rng.standard_normal(idx.size)
    full = np.zeros(p)
    full[idx] = u
    want = float(full @ metric.inv_apply(full))
    assert metric.inv_form(view, u) == pytest.approx(want, rel=1e-12)


def test_cross_product_and_inverse_form_of_no_pairs():
    metric = LbfgsMetric(6, capacity=3, sigma=2.5)
    view = metric.restricted([0, 2])
    assert metric.cross_apply(view, np.array([1, 4]), np.ones(2)).tolist() == [0.0, 0.0]
    assert metric.inv_form(view, np.array([1.0, 2.0])) == 2.0


def test_restricted_view_of_no_pairs_is_the_seed():
    view = LbfgsMetric(8, capacity=3, sigma=2.5).restricted([1, 4, 6])
    np.testing.assert_array_equal(view.materialize_dense(), 2.5 * np.eye(3))
    assert view.inv_apply(np.ones(3)).tolist() == [0.4, 0.4, 0.4]


def test_restricted_view_refuses_updates(rng):
    metric = LbfgsMetric(6, capacity=2, sigma=1.0)
    s, y = random_pairs(rng, 6, 1)[0]
    metric.push_pair(s, y)
    view = metric.restricted([0, 2, 5])
    with pytest.raises(TypeError, match="snapshot"):
        view.push_pair(s[[0, 2, 5]], y[[0, 2, 5]])
    with pytest.raises(TypeError, match="snapshot"):
        view.adapt_h0(0.5, s[[0, 2, 5]], y[[0, 2, 5]])
    with pytest.raises(TypeError, match="snapshot"):
        view.update(1.0, s[[0, 2, 5]], y[[0, 2, 5]])
    assert metric.update(1.0, s, y)   # the metric itself still updates


@given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.integers(1, 12),
       st.integers(1, 5).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, 3 * m))))
def test_eviction_at_capacity_keeps_the_metric_of_the_last_pairs(seed, p, capacity_past):
    # each push past capacity evicts the oldest pair, so the stored rows are
    # bitwise those of a fresh metric fed only the last `capacity` pairs, and
    # both directions agree with it
    capacity, past = capacity_past
    rng = np.random.default_rng(seed)
    metric = LbfgsMetric(p, capacity=capacity, sigma=0.8)
    pairs = []
    for _ in range(capacity + past):
        s = rng.standard_normal(p)
        y = s * rng.uniform(0.5, 2.0, p)   # s'y > 0
        pairs.append((s, y))
        assert metric.push_pair(s, y)
    fresh = LbfgsMetric(p, capacity=capacity, sigma=0.8)
    for s, y in pairs[-capacity:]:
        fresh.push_pair(s, y)
    assert np.array_equal(metric._rows, fresh._rows)
    for _ in range(3):
        v = rng.standard_normal(p)
        for product in ("apply", "inv_apply"):
            got, want = getattr(metric, product)(v), getattr(fresh, product)(v)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _check_top_bound_and_cap(metric, pairs, sigma, rng):
    # the bound is the closed form over the stored pairs, above the exact
    # lambda_max(H), and the dual step cap is the bound over max ||W_i||^2
    bound = metric.top_bound()
    assert bound == pytest.approx(sigma + sum(float(y @ y) / float(s @ y) for s, y in pairs),
                                  rel=1e-12)
    top = np.linalg.eigvalsh(metric.materialize_dense()).max()
    assert bound >= top, (bound, top)
    terms = (RegularizerTerm(NormKind.L1, 1.0, Identity(metric.dim)),
             RegularizerTerm(NormKind.L1, 1.0,
                             ExplicitSparse(rng.standard_normal((3, metric.dim)))))
    norm = max(t.op.spectral_norm for t in terms)
    assert step_delta_cap(metric, terms) == bound / (norm * norm)
    assert step_delta_cap(metric, ()) == math.inf


@given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.integers(1, 12),
       st.integers(0, 4), st.integers(0, 7), st.booleans(),
       st.floats(min_value=0.05, max_value=20.0))
def test_top_bound_is_above_lambda_max(seed, p, capacity, pushes, proportional, sigma):
    # full metrics of capacity 0 and more, p <= 2m and p > 2m, with
    # rank-deficient pairs y = c s, a rejected pair and a seed change
    rng = np.random.default_rng(seed)
    metric = LbfgsMetric(p, capacity=capacity, sigma=sigma)
    pairs = []
    for _ in range(pushes):
        s = rng.standard_normal(p)
        y = (0.2 + 5.0 * rng.random()) * s if proportional else s + 0.5 * rng.standard_normal(p)
        if metric.push_pair(s, y):
            pairs = (pairs + [(s, y)])[-capacity:]
    assert metric.pair_count == len(pairs)
    _check_top_bound_and_cap(metric, pairs, sigma, rng)
    if not capacity:
        assert metric.top_bound() == sigma
    if pushes:
        bound = metric.top_bound()
        assert not metric.push_pair(s, -s)   # rejected, so the bound is kept
        assert metric.top_bound() == bound
        if float(s @ y) > 0.0:
            metric.adapt_h0(0.5 if proportional else 1.0, s, y)
            _check_top_bound_and_cap(metric, pairs, metric.sigma, rng)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.integers(2, 14),
       st.integers(0, 4), st.booleans())
def test_top_bound_of_a_view_is_its_metrics(seed, p, count, hole):
    # views with |J| <= 2m and > 2m, and with `hole` one stored pair that
    # is zero on J, so its gathered s_J'y_J is zero: the view keeps the
    # bound of the metric it was taken from, which holds for H_JJ too
    rng = np.random.default_rng(seed)
    metric = LbfgsMetric(p, capacity=max(count, 1), sigma=0.1 + 3.0 * rng.random())
    idx = np.sort(rng.choice(p, size=rng.integers(1, p), replace=False))
    pairs = []
    for i in range(count):
        s = rng.standard_normal(p)
        y = s + 0.5 * rng.standard_normal(p)
        if hole and i == count // 2:
            s[idx], y[idx] = 0.0, 0.0
        if metric.push_pair(s, y):
            pairs.append((s, y))
    view = metric.restricted(idx)
    if hole and count and metric.pair_count == count:
        assert (view._gram.diagonal() == 0.0).any()
    assert view.top_bound() == metric.top_bound()
    _check_top_bound_and_cap(view, pairs, metric.sigma, rng)
