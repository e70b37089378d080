import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepqn.lbfgs import LbfgsMetric


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


def test_sigma_floor_counted():
    m = LbfgsMetric(2, sigma=1e-7, sigma_floor=1e-8)
    s = np.array([1.0, 0.0])
    y = 1e-9 * s
    m.adapt_h0(1.0, s, y)
    assert m.sigma == 1e-8
    assert m.floor_hits == 1


@pytest.mark.parametrize("setting", [
    {"sigma": float("nan")}, {"sigma": float("inf")}, {"sigma": 0.0},
    {"sigma_floor": float("nan")}, {"sigma_floor": float("inf")},
    {"sigma_floor": -1e-8},
])
def test_rejects_bad_seed_scale(setting):
    # a nan sigma once passed the positivity test and hung the dual loop
    (name,) = setting
    with pytest.raises(ValueError, match=name):
        LbfgsMetric(4, **setting)


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
