import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from sepqn.operators import (
    FINITE_NONNEGATIVE,
    FINITE_POSITIVE,
    NONNEGATIVE,
    DimensionMismatch,
    ExplicitSparse,
    FirstDifference,
    GroupSelector,
    Identity,
    LinearOperator,
    as_csr,
    integer,
    optional,
    require,
    spectral_norm_estimate,
)


def make_pool(rng, p=23):
    mat = rng.standard_normal((9, p)) * (rng.random((9, p)) < 0.4)
    return [
        Identity(p),
        FirstDifference(p),
        GroupSelector(rng.choice(p, size=6, replace=False), p),
        ExplicitSparse(mat),
    ]


def test_identity_apply():
    op = Identity(3)
    assert np.array_equal(op.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    assert np.array_equal(op.apply_transpose([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_first_difference_apply():
    op = FirstDifference(3)
    assert op.output_dim == 2
    assert np.array_equal(op.apply([1.0, 4.0, 9.0]), [3.0, 5.0])


def test_first_difference_transpose():
    op = FirstDifference(3)
    a, b = 2.0, 7.0
    assert np.array_equal(op.apply_transpose([a, b]), [-a, a - b, b])


def test_explicit_sparse_apply():
    op = ExplicitSparse(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert np.array_equal(op.apply([3.0, 4.0]), [3.0, 8.0])


def test_group_selector_scatter():
    op = GroupSelector([1, 2], 4)
    assert op.output_dim == 2
    assert np.array_equal(op.apply_transpose([5.0, 6.0]), [0.0, 5.0, 6.0, 0.0])


def test_dimension_mismatch_carries_context():
    op = FirstDifference(5)
    with pytest.raises(DimensionMismatch) as exc:
        op.apply(np.ones(6))
    assert exc.value.expected == 5
    assert "FirstDifference" in str(exc.value)
    with pytest.raises(DimensionMismatch):
        op.apply_transpose(np.ones(5))


def test_norm_estimate_identity():
    assert Identity(7).norm_estimate() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("op, steps", [
    (Identity(20000), 1),
    (GroupSelector(range(3, 40, 3), 50), 2),
    (FirstDifference(200), 100),
])
def test_norm_estimate_stops_at_an_eigenvector(op, steps):
    # an isometry's first iterate is already an eigenvector of W'W, a
    # selector's second; the slow-converging first difference runs them all
    applies = []

    def apply(x):
        applies.append(1)
        return op._apply(x)

    norm = spectral_norm_estimate(apply, op._apply_transpose, op.input_dim)
    assert len(applies) == steps + (steps == 100)
    if steps < 100:
        assert norm == 1.0


def test_identity_norm_is_read_inside_the_base_method(monkeypatch):
    # an identity's norm is exact and skips the power iteration, but still
    # passes through LinearOperator.norm_estimate, so a wrapper installed
    # there sees it; a selector and a first difference keep their estimates
    seen, real = [], LinearOperator.norm_estimate
    monkeypatch.setattr(LinearOperator, "norm_estimate",
                        lambda op: seen.append(op) or real(op))
    ops = [Identity(20000), GroupSelector(range(3, 40, 3), 50), FirstDifference(30)]
    applies = []
    for op in ops:
        kernel = op._apply
        monkeypatch.setattr(op, "_apply", lambda x, k=kernel: applies.append(1) or k(x))
    assert ops[0].spectral_norm == 1.0 and applies == []
    assert ops[1].spectral_norm == 1.0 and len(applies) == 2
    assert ops[2].spectral_norm == pytest.approx(2.0 * np.cos(np.pi / 60), rel=1e-2)
    assert len(applies) == 2 + 101 and seen == ops


def test_norm_estimate_diagonal():
    op = ExplicitSparse(np.diag([3.0, 1.0]))
    assert op.norm_estimate() == pytest.approx(3.0, abs=1e-10)


def test_norm_estimate_first_difference_vs_svd_oracle():
    p = 50
    op = FirstDifference(p)
    dense = op.to_sparse().toarray()
    oracle = np.linalg.svd(dense, compute_uv=False)[0]
    assert oracle == pytest.approx(2.0 * np.sin(49.0 * np.pi / 100.0), abs=1e-12)
    assert op.norm_estimate() == pytest.approx(oracle, abs=1e-3)


def test_norm_estimate_zero_operator():
    op = ExplicitSparse(sp.csr_matrix((4, 6)))
    assert op.norm_estimate() == 0.0


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_adjoint_identity_random_pairs(seed):
    rng = np.random.default_rng(seed)
    for op in make_pool(rng):
        u = rng.standard_normal(op.input_dim)
        v = rng.standard_normal(op.output_dim)
        lhs = float(op.apply(u) @ v)
        rhs = float(u @ op.apply_transpose(v))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_adjoint_identity_100_pairs(rng):
    for op in make_pool(rng):
        for _ in range(100):
            u = rng.standard_normal(op.input_dim)
            v = rng.standard_normal(op.output_dim)
            lhs = float(op.apply(u) @ v)
            rhs = float(u @ op.apply_transpose(v))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_sparse_matvec_matches_dense_oracle(rng):
    dense = rng.standard_normal((20, 30)) * (rng.random((20, 30)) < 0.35)
    op = ExplicitSparse(dense)
    for _ in range(25):
        x = rng.standard_normal(30)
        want = dense @ x
        got = op.apply(x)
        assert np.linalg.norm(got - want) <= 1e-13 * max(1.0, np.linalg.norm(want))


def test_as_csr_canonical_form(rng):
    m = sp.coo_matrix(
        (np.array([1.0, 2.0, 3.0]), (np.array([0, 0, 1]), np.array([2, 2, 0]))),
        shape=(2, 4),
    )
    c = as_csr(m)
    assert c.has_canonical_format
    # duplicates summed, column indices strictly increasing within rows
    assert c[0, 2] == 3.0
    for i in range(c.shape[0]):
        cols = c.indices[c.indptr[i]:c.indptr[i + 1]]
        assert np.all(np.diff(cols) > 0)
    assert c.nnz == len(c.data)


def test_group_selector_validates_indices():
    with pytest.raises(ValueError):
        GroupSelector([5], 4)
    with pytest.raises(ValueError):
        GroupSelector([], 4)


@pytest.mark.parametrize("index", [0.5, 1.7, 2.0, np.float64(3.0)])
def test_group_selector_refuses_float_indices(index):
    # a float index once truncated silently: [0.5, 1.7] selected [0, 1]
    with pytest.raises(ValueError, match=re.escape(repr(index))):
        GroupSelector([4, index], 12)
    picked = GroupSelector([np.int64(4), np.int32(1), 7], 12).indices
    assert picked.tolist() == [1, 4, 7]


@pytest.mark.parametrize("make", [
    lambda dim: Identity(dim),
    lambda dim: FirstDifference(dim),
    lambda dim: GroupSelector([0, 1], dim),
])
def test_operator_sizes_are_integers(make):
    # a float size once truncated silently: Identity(2.5) had dim 2
    with pytest.raises(ValueError, match="dim"):
        make(12.5)
    assert make(np.int64(12)).input_dim == 12


def test_norm_estimate_deterministic(rng):
    dense = rng.standard_normal((12, 18))
    op = ExplicitSparse(dense)
    assert op.norm_estimate() == op.norm_estimate()


def _scipy_csr(a):
    m = sp.csr_matrix(a, dtype=np.float64)
    m.sum_duplicates()
    m.sort_indices()
    return m


@pytest.mark.parametrize("dense", [
    np.arange(1.0, 13.0).reshape(3, 4),                        # no zeros
    np.array([[0.0, 1.5, 0.0], [2.0, 0.0, -3.0], [0.0, 0.0, 0.0]]),
    np.zeros((4, 3)),
    np.array([[-0.0, 1.0], [0.0, -0.0]]),                      # -0.0 is a zero
    np.array([[np.nan, 0.0], [1.0, np.inf]]),                  # nan is not
    np.array([[1, 0, 3], [0, 0, -2]]),                         # integer values
    np.zeros((0, 5)),
    np.zeros((4, 0)),
    np.asfortranarray(np.arange(1.0, 31.0).reshape(5, 6)),
])
def test_as_csr_of_dense_matches_scipy_bytes(dense):
    got, want = as_csr(dense), _scipy_csr(dense)
    assert got.shape == want.shape and got.has_canonical_format
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def test_as_csr_of_dense_owns_its_values(rng):
    dense = rng.standard_normal((6, 4))
    m = as_csr(dense)
    dense[0, 0] = 99.0
    assert m[0, 0] != 99.0


@pytest.mark.parametrize("rule, good, bad", [
    (FINITE_POSITIVE, [1e-300, 2, np.float64(0.5)], [0.0, -1.0, np.nan, np.inf, None, "1"]),
    (FINITE_NONNEGATIVE, [0.0, 3, np.float32(2.0)], [-1e-300, np.nan, np.inf, None]),
    (NONNEGATIVE, [0.0, np.inf], [-1.0, np.nan, -np.inf, None]),
    (integer(1), [1, np.int64(5), np.int32(2)], [0, -3, 2.0, np.float64(3.0), 1.5, None]),
    (optional(FINITE_POSITIVE), [None, 0.5], [0.0, np.nan]),
])
def test_setting_rules_refuse_nan_and_name_the_setting(rule, good, bad):
    # each rule states what a good value meets, so nan and non-numbers fail
    for value in good:
        assert require("knob", value, rule) is value
    for value in bad:
        message = f"knob must be {rule.text}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            require("knob", value, rule)
