import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

import sepqn.problems as problems_mod
from sepqn.data import synth_dataset
from sepqn.operators import DimensionMismatch, FirstDifference, GroupSelector, Identity
from sepqn.problems import (
    BUILTIN_MODELS,
    CompositeProblem,
    LeastSquaresLoss,
    LogisticLoss,
    NormKind,
    RegularizerTerm,
    _logistic_losses,
    make_builtin,
)


def toy_logistic(rng, n=10, p=5):
    a = rng.standard_normal((n, p))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return LogisticLoss(a, y)


def test_logistic_value_at_zero_is_log_two(rng):
    loss = toy_logistic(rng)
    assert loss.value(np.zeros(5)) == pytest.approx(np.log(2.0), abs=1e-12)


@pytest.mark.parametrize("loss_cls", [LogisticLoss, LeastSquaresLoss])
@pytest.mark.parametrize("name", ["data", "labels", "weights", "ridge"])
def test_loss_inputs_are_fixed_at_construction(rng, loss_cls, name):
    # an assigned input once skipped every check: labels of 3 solved to a
    # "converged" non-logistic objective
    a = rng.standard_normal((6, 3))
    loss = loss_cls(a, np.where(rng.random(6) < 0.5, 1.0, -1.0), ridge=0.1)
    kept = getattr(loss, name)
    with pytest.raises(AttributeError, match="build a new loss"):
        setattr(loss, name, 3 * kept)
    assert getattr(loss, name) is kept


def _sparse(a):
    return sp.csr_matrix(a * (np.abs(a) > 1.0))   # about a third nonzero: stays CSR


@pytest.mark.parametrize("loss_cls", [LogisticLoss, LeastSquaresLoss])
@pytest.mark.parametrize("store", [np.asarray, _sparse], ids=["dense", "csr"])
def test_loss_arrays_are_read_only_copies(rng, loss_cls, store):
    # a write into labels once left the cached w*y stale, so value_grad mixed
    # old and new labels; the loss now stores copies it freezes, and the
    # caller's arrays stay writable
    a = store(rng.standard_normal((8, 4)))
    y = np.where(rng.random(8) < 0.5, 1.0, -1.0)
    w = np.full(8, 0.125)
    loss = loss_cls(a, y, weights=w)
    x = rng.standard_normal(4)
    v, g = loss.value_grad(x)
    stored = [loss.labels, loss.weights]
    stored += ([loss.data.data, loss.data.indices, loss.data.indptr]
               if sp.issparse(loss.data) else [loss.data])
    copy = pickle.loads(pickle.dumps(loss))
    for values in stored + [copy.labels, copy.weights]:
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 3
    y[0], w[0] = 3.0, 2.0
    (a.data if sp.issparse(a) else a)[0] = 5.0
    for kept in (loss, copy):
        v_after, g_after = kept.value_grad(x + 0.0)
        assert v_after == v and np.array_equal(g_after, g)


@pytest.mark.parametrize("data", [np.zeros((0, 3)), sp.csr_matrix((0, 3)), np.ones(4)],
                         ids=["no-rows", "no-rows-csr", "1-d"])
@pytest.mark.parametrize("build", [
    lambda a: LogisticLoss(a, np.ones(a.shape[0])),
    lambda a: LeastSquaresLoss(a, np.ones(a.shape[0])),
    lambda a: make_builtin("l1-logistic", a, np.ones(a.shape[0]), lam=0.1),
], ids=["LogisticLoss", "LeastSquaresLoss", "make_builtin"])
def test_design_must_be_2d_with_rows(build, data):
    # no rows once divided by zero for the default weights, and a 1-D design
    # failed in make_builtin on its missing column count
    with pytest.raises(ValueError, match="data must be 2-D with at least one row"):
        build(data)


def test_logistic_rejects_bad_labels(rng):
    a = rng.standard_normal((4, 3))
    with pytest.raises(ValueError, match="labels"):
        LogisticLoss(a, np.array([1.0, 0.0, 1.0, -1.0]))


def _bad_inputs(cause):
    a = np.ones((4, 3))
    y = np.array([1.0, -1.0, 1.0, -1.0])
    w = np.full(4, 0.25)
    if cause == "negative weight":
        w[1] = -1.0
    elif cause == "nan weight":
        w[2] = np.nan
    elif cause == "inf weight":
        w[0] = np.inf
    elif cause == "nan label":
        y[3] = np.nan
    elif cause == "inf label":
        y[0] = -np.inf
    elif cause == "nan dense value":
        a[1, 2] = np.nan
    elif cause == "inf sparse value":
        a[2, 0] = np.inf
        a = sp.csr_matrix(a)
    return a, y, w


@pytest.mark.parametrize("loss_cls", [LogisticLoss, LeastSquaresLoss])
@pytest.mark.parametrize("cause, message", [
    ("negative weight", "weights must be >= 0"),
    ("nan weight", "weights must be finite"),
    ("inf weight", "weights must be finite"),
    ("nan label", "labels must be finite"),
    ("inf label", "labels must be finite"),
    ("nan dense value", "data values must be finite"),
    ("inf sparse value", "data values must be finite"),
])
def test_loss_rejects_bad_inputs_at_construction(loss_cls, cause, message):
    a, y, w = _bad_inputs(cause)
    with pytest.raises(ValueError, match=message):
        loss_cls(a, y, weights=w)


def test_loss_accepts_zero_weights_and_huge_finite_values():
    a = np.array([[1e300, 0.0], [-1e300, 1.0]])
    loss = LeastSquaresLoss(a, np.array([0.5, -2.0]), weights=np.array([0.0, 1.0]))
    assert np.array_equal(loss.weights, [0.0, 1.0])


def test_logistic_stable_at_large_margins(rng):
    a = np.array([[1000.0], [-1000.0]])
    y = np.array([1.0, -1.0])
    loss = LogisticLoss(a, y)
    v, g = loss.value_grad(np.array([5.0]))
    assert np.isfinite(v) and np.all(np.isfinite(g))
    v2, _ = loss.value_grad(np.array([-5.0]))
    assert np.isfinite(v2)


def test_least_squares_exact_fit_zero(rng):
    a = rng.standard_normal((6, 4))
    x_true = rng.standard_normal(4)
    loss = LeastSquaresLoss(a, a @ x_true)
    v, g = loss.value_grad(x_true)
    assert v == pytest.approx(0.0, abs=1e-24)
    assert np.linalg.norm(g) <= 1e-12


def central_difference(fn, x, h=1e-6):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


def test_logistic_gradient_matches_finite_differences(rng):
    loss = toy_logistic(rng, n=10, p=5)
    x = rng.standard_normal(5)
    _, g = loss.value_grad(x)
    fd = central_difference(loss.value, x)
    assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))


@pytest.mark.parametrize("loss_cls", [LogisticLoss, LeastSquaresLoss])
def test_gradients_match_fd_at_20_random_points(rng, loss_cls):
    a = rng.standard_normal((15, 6))
    if loss_cls is LogisticLoss:
        y = np.where(rng.random(15) < 0.5, 1.0, -1.0)
    else:
        y = rng.standard_normal(15)
    loss = loss_cls(a, y, ridge=1e-3)
    for _ in range(20):
        x = rng.standard_normal(6)
        _, g = loss.value_grad(x)
        fd = central_difference(loss.value, x)
        assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))


def _fd_hessian_top_eig(loss, x, p, h=1e-5):
    hess = np.zeros((p, p))
    for j in range(p):
        e = np.zeros(p)
        e[j] = h
        _, gp = loss.value_grad(x + e)
        _, gm = loss.value_grad(x - e)
        hess[:, j] = (gp - gm) / (2 * h)
    return np.abs(np.linalg.eigvalsh(0.5 * (hess + hess.T))).max()


def test_logistic_curvature_below_lipschitz_bound(rng):
    # finite-difference Hessian spectral norm stays below ||A||^2/(4n)
    n, p = 12, 4
    a = rng.standard_normal((n, p))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    loss = LogisticLoss(a, y)
    bound = np.linalg.svd(a, compute_uv=False)[0] ** 2 / (4.0 * n)
    for _ in range(5):
        x = rng.standard_normal(p)
        assert _fd_hessian_top_eig(loss, x, p) <= bound * (1 + 1e-4)


def test_least_squares_curvature_below_lipschitz_bound(rng):
    # constant Hessian 2 A' A / n: the bound 2 ||A||^2 / n is tight
    n, p = 12, 4
    a = rng.standard_normal((n, p))
    loss = LeastSquaresLoss(a, rng.standard_normal(n))
    bound = 2.0 * np.linalg.svd(a, compute_uv=False)[0] ** 2 / n
    for _ in range(3):
        x = rng.standard_normal(p)
        top = _fd_hessian_top_eig(loss, x, p)
        assert top <= bound * (1 + 1e-4)
        assert top >= bound * (1 - 1e-4)


def test_dense_copy_only_when_no_larger(rng):
    # the loss picks the storage: a full CSR becomes a dense array whose
    # value and gradient agree with the ones taken through the CSR's products
    y = np.where(rng.random(60) < 0.5, 1.0, -1.0)
    full = sp.csr_matrix(rng.standard_normal((60, 8)))
    loss = LogisticLoss(full, y)
    assert isinstance(loss.data, np.ndarray) and loss.data.flags.c_contiguous
    x = rng.standard_normal(8)
    t = y * (full @ x)
    v_sparse = float(loss.weights @ np.logaddexp(0.0, -t))
    g_sparse = full.T @ (-loss.weights * y * expit(-t))
    v_dense, g_dense = loss.value_grad(x)
    assert abs(v_sparse - v_dense) <= 1e-14
    assert np.allclose(g_sparse, g_dense, rtol=0.0, atol=1e-14)
    # a tenth full: the CSR arrays are smaller than a dense copy
    thin = LogisticLoss(sp.random(60, 8, density=0.1, format="csr",
                                  random_state=1), y)
    assert sp.isspmatrix_csr(thin.data)


def test_multitask_block_diagonal_design_stays_csr():
    # r copies of a full block on the diagonal fill 1/r of the big matrix
    handle, _ = synth_dataset(seed=7, n=30, p=6)
    prob = make_builtin("multitask-dirty-logistic", handle.matrix,
                        np.arange(30) % 3.0, lam=0.02, group_weight=0.05)
    assert sp.isspmatrix_csr(prob.loss.data)
    assert prob.loss.data.shape == (90, 18)


def _equal_copy(loss, x):
    return x.copy()


def _next_float(loss, x):
    x2 = x.copy()
    x2[3] = np.nextafter(x2[3], np.inf)
    return x2


def _signed_zero(loss, x):
    # equal as floats, but not bit for bit
    x[0], x2 = 0.0, x.copy()
    x2[0] = -0.0
    loss.value(x)
    return x2


def _mutated_in_place(loss, x):
    # the memo keeps a copy of x, so a caller reusing its buffer is safe
    x *= 2.0
    return x


@pytest.mark.parametrize("make", [LogisticLoss, LeastSquaresLoss])
@pytest.mark.parametrize("change, products", [
    (_equal_copy, 0), (_next_float, 1), (_signed_zero, 1), (_mutated_in_place, 1),
])
def test_margin_memo(rng, matvec_calls, make, change, products):
    # a value_grad right after a value reuses its A x only at the bitwise-same
    # x, and is a fresh loss's (v, g) either way
    a = rng.standard_normal((30, 6))
    y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    x = rng.standard_normal(6)
    loss = make(a, y)
    loss.value(x)
    x_next = change(loss, x)
    before = len(matvec_calls)
    v, g = loss.value_grad(x_next)
    assert len(matvec_calls) - before == products
    want_v, want_g = make(loss.data, y).value_grad(x_next)
    assert v == want_v and np.array_equal(g, want_g)


def test_psi_value_l1():
    term = RegularizerTerm(NormKind.L1, 2.0, Identity(2))
    assert term.value(np.array([1.0, -3.0])) == pytest.approx(8.0)


def test_psi_value_l2_group():
    term = RegularizerTerm(NormKind.L2, 1.0, Identity(2))
    assert term.value(np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_psi_value_linf_with_offset():
    term = RegularizerTerm(NormKind.LINF, 0.5, Identity(2), offset=np.array([1.0, 0.0]))
    assert term.value(np.array([1.0, -3.0])) == pytest.approx(1.5)


def test_term_rejects_negative_weight():
    with pytest.raises(ValueError):
        RegularizerTerm(NormKind.L1, -0.5, Identity(3))


@pytest.mark.parametrize("weight, offset, message", [
    (np.nan, None, "weight must be finite"),
    (np.inf, None, "weight must be finite"),
    (1.0, [0.0, np.nan, 0.0], "offset entries must be finite"),
    (1.0, [0.0, 0.0, -np.inf], "offset entries must be finite"),
])
def test_term_rejects_non_finite_inputs_at_construction(weight, offset, message):
    with pytest.raises(ValueError, match=message):
        RegularizerTerm(NormKind.L1, weight, Identity(3), offset=offset)


@pytest.mark.parametrize("loss_cls", [LogisticLoss, LeastSquaresLoss])
@pytest.mark.parametrize("ridge", [np.nan, np.inf, -1e-3])
def test_loss_rejects_bad_ridge_at_construction(loss_cls, ridge):
    with pytest.raises(ValueError, match="ridge must be finite and >= 0"):
        loss_cls(np.eye(2), np.array([1.0, -1.0]), ridge=ridge)


@pytest.mark.parametrize("kind", ["l1", "L1", None])
def test_term_rejects_a_kind_that_is_not_a_norm_kind(kind):
    # a string kind once constructed and then failed mid-solve on the kernel table
    with pytest.raises(ValueError, match="kind"):
        RegularizerTerm(kind, 0.1, Identity(12))


def test_term_zero_weight_is_vacuous():
    term = RegularizerTerm(NormKind.L1, 0.0, Identity(3))
    assert term.value(np.ones(3)) == 0.0


def test_term_offset_length_checked():
    with pytest.raises(ValueError):
        RegularizerTerm(NormKind.L1, 1.0, Identity(3), offset=np.ones(2))


@given(st.floats(min_value=0.01, max_value=100.0),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_psi_positive_homogeneity(c, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(6)
    for kind in NormKind:
        term = RegularizerTerm(kind, 1.7, Identity(6))
        lhs = term.value(c * x)
        rhs = c * term.value(x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_objective_at_zero_logistic(rng):
    handle, _ = synth_dataset(seed=1, n=30, p=6)
    prob = make_builtin("l1-logistic", handle.matrix, handle.labels, lam=0.1)
    assert prob.objective(np.zeros(6)) == pytest.approx(np.log(2.0), abs=1e-12)


def test_objective_matches_direct_summation_oracle(rng):
    # lasso toy: objective equals loss plus lambda * ||x||_1, summed by hand
    n, p, lam = 5, 3, 0.3
    a = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    loss = LeastSquaresLoss(a, y)
    prob = CompositeProblem(loss, (RegularizerTerm(NormKind.L1, lam, Identity(p)),))
    for _ in range(10):
        x = rng.standard_normal(p)
        resid = a @ x - y
        want = float(resid @ resid) / n + lam * np.abs(x).sum()
        assert prob.objective(x) == pytest.approx(want, rel=1e-12)


def _groups(kind, index_sets, offsets=False):
    """An l1 term plus one group term per index set, over p = 12."""
    rng = np.random.default_rng(3)
    return [RegularizerTerm(NormKind.L1, 0.02, Identity(12))] + [
        RegularizerTerm(kind, 0.07, GroupSelector(g, 12),
                        rng.standard_normal(len(g)) if offsets else None)
        for g in index_sets]


def _penalty_problem(name):
    handle, _ = synth_dataset(seed=6, n=45, p=12)
    disjoint = [range(0, 3), range(3, 7), range(7, 12)]
    if name == "sparse-group":
        return make_builtin("sparse-group-logistic", handle.matrix, handle.labels,
                            lam=0.02, group_weight=0.05, groups=4)
    if name == "multitask":
        return make_builtin("multitask-dirty-logistic", handle.matrix,
                            np.arange(45) % 3.0, lam=0.02, group_weight=0.05)
    terms = {
        "offset-groups": lambda: _groups(NormKind.L2, disjoint, offsets=True),
        "overlapping-groups": lambda: _groups(
            NormKind.L2, [range(0, 5), range(4, 9), range(8, 12)]),
        "sup-norm-groups": lambda: _groups(NormKind.LINF, disjoint),
    }[name]()
    return CompositeProblem(LogisticLoss(handle.matrix, handle.labels), terms)


@pytest.mark.parametrize("name, sizes", [
    ("sparse-group", [1, 4]),
    ("multitask", [1, 12]),
    ("offset-groups", [1, 3]),
    ("overlapping-groups", [1, 1, 1, 1]),
    ("sup-norm-groups", [1, 1, 1, 1]),
])
def test_penalty_over_blocks_is_the_per_term_sum(name, sizes):
    # a fused block takes the weight out of its sum of group norms, so only
    # rounding separates it from the terms summed one by one
    prob = _penalty_problem(name)
    assert [len(b.terms) for b in prob.blocks] == sizes
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = rng.standard_normal(prob.dim)
        want = sum(t.value(x) for t in prob.terms)
        assert abs(prob.penalty(x) - want) <= 1e-15 * want


def test_problem_with_fused_blocks_pickles():
    prob = _penalty_problem("offset-groups")
    copy = pickle.loads(pickle.dumps(prob))
    x = np.random.default_rng(9).standard_normal(prob.dim)
    assert copy.objective(x) == prob.objective(x)


def test_objective_rejects_wrong_length_point():
    handle, _ = synth_dataset(seed=1, n=30, p=6)
    prob = make_builtin("l1-logistic", handle.matrix, handle.labels, lam=0.1)
    with pytest.raises(DimensionMismatch):
        prob.objective(np.zeros(7))


def test_fused_term_vanishes_on_constant_vector(rng):
    handle, _ = synth_dataset(seed=2, n=20, p=6)
    prob = make_builtin("fused-sparse-logistic", handle.matrix, handle.labels,
                        lam=0.1, fused_weight=0.2)
    x = np.full(6, 1.3)
    fused = prob.terms[1]
    assert fused.value(x) == 0.0


def test_objective_convex_on_segments(rng):
    handle, _ = synth_dataset(seed=3, n=60, p=12)
    models = [
        ("l1-logistic", {"lam": 0.05}),
        ("fused-sparse-logistic", {"lam": 0.05, "fused_weight": 0.05}),
        ("sparse-group-logistic", {"lam": 0.05, "group_weight": 0.05, "groups": 3}),
        ("fused-sparse-group-logistic",
         {"lam": 0.05, "fused_weight": 0.05, "group_weight": 0.05, "groups": 3}),
    ]
    multiclass = np.floor(3 * rng.random(60))
    problems = [make_builtin(name, handle.matrix, handle.labels, **kw)
                for name, kw in models]
    problems.append(make_builtin("multitask-dirty-logistic", handle.matrix,
                                 multiclass, lam=0.05, group_weight=0.05))
    for prob in problems:
        for _ in range(100):
            u = rng.standard_normal(prob.dim)
            v = rng.standard_normal(prob.dim)
            mid = prob.objective(0.5 * (u + v))
            assert mid <= 0.5 * (prob.objective(u) + prob.objective(v)) + 1e-10


def test_builtin_l1_structure(rng):
    handle, _ = synth_dataset(seed=4, n=10, p=7)
    prob = make_builtin("l1-logistic", handle.matrix, handle.labels, lam=0.4)
    assert prob.n_terms == 1
    t = prob.terms[0]
    assert t.kind is NormKind.L1 and t.weight == 0.4
    assert isinstance(t.op, Identity)
    assert not np.any(t.offset)


def test_builtin_fused_structure(rng):
    handle, _ = synth_dataset(seed=4, n=10, p=4)
    prob = make_builtin("fused-sparse-logistic", handle.matrix, handle.labels,
                        lam=0.4, fused_weight=0.2)
    assert prob.n_terms == 2
    assert isinstance(prob.terms[1].op, FirstDifference)
    assert prob.terms[1].op.output_dim == 3


def test_builtin_multitask_dimensions(rng):
    # p = 649 features, 10 classes -> dimension 6490 and 1 + 649 terms
    n, p, r = 40, 649, 10
    a = rng.standard_normal((n, p))
    labels = rng.integers(0, r, size=n).astype(float)
    prob = make_builtin("multitask-dirty-logistic", a, labels,
                        lam=0.01, group_weight=0.01)
    assert prob.dim == p * r
    assert prob.n_terms == 1 + p
    row_term = prob.terms[1]
    assert isinstance(row_term.op, GroupSelector)
    assert row_term.op.output_dim == r
    assert np.array_equal(row_term.op.indices, np.arange(r) * p)


def test_multitask_loss_is_task_summed(rng):
    n, p, r = 12, 3, 3
    a = rng.standard_normal((n, p))
    labels = rng.integers(0, r, size=n).astype(float)
    prob = make_builtin("multitask-dirty-logistic", a, labels,
                        lam=0.01, group_weight=0.01)
    x = rng.standard_normal(p * r)
    total = 0.0
    for k, cls in enumerate(np.unique(labels)):
        yk = np.where(labels == cls, 1.0, -1.0)
        lk = LogisticLoss(a, yk)
        total += lk.value(x[k * p:(k + 1) * p])
    assert prob.loss.value(x) == pytest.approx(total, rel=1e-12)


def test_multiclass_labels_rejected_outside_multitask(rng):
    a = rng.standard_normal((9, 4))
    labels = np.array([0.0, 1.0, 2.0] * 3)
    with pytest.raises(ValueError):
        make_builtin("l1-logistic", a, labels, lam=0.1)


def test_overlapping_groups_rejected(rng):
    handle, _ = synth_dataset(seed=5, n=10, p=6)
    with pytest.raises(ValueError, match="overlap"):
        make_builtin("sparse-group-logistic", handle.matrix, handle.labels,
                     lam=0.1, group_weight=0.1, groups=[[0, 1, 2], [2, 3]])


def test_group_lists_refuse_float_indices():
    # explicit group lists once truncated a float index silently
    handle, _ = synth_dataset(seed=5, n=10, p=6)
    with pytest.raises(ValueError, match="1.5"):
        make_builtin("sparse-group-logistic", handle.matrix, handle.labels,
                     lam=0.1, group_weight=0.1, groups=[[0, 1.5], [2, 3]])
    prob = make_builtin("sparse-group-logistic", handle.matrix, handle.labels, lam=0.1,
                        groups=[np.arange(3), [np.int64(3), 5]])
    assert [t.op.indices.tolist() for t in prob.terms[1:]] == [[0, 1, 2], [3, 5]]


@pytest.mark.parametrize("groups", [np.int64(3), np.int32(3), 3])
def test_group_count_may_be_any_integer(groups):
    handle, _ = synth_dataset(seed=5, n=10, p=6)
    prob = make_builtin("sparse-group-logistic", handle.matrix, handle.labels,
                        lam=0.1, groups=groups)
    assert prob.n_terms == 1 + 3


def test_empty_group_list_rejected():
    # an empty list once built the l1-only model, while a count of 0 is refused
    handle, _ = synth_dataset(seed=5, n=10, p=6)
    with pytest.raises(ValueError, match="groups must hold at least one index list"):
        make_builtin("sparse-group-logistic", handle.matrix, handle.labels,
                     lam=0.1, groups=[])


@pytest.mark.parametrize("groups", [3.0, np.float64(3.0), 2.5])
def test_float_group_count_rejected(groups):
    handle, _ = synth_dataset(seed=5, n=10, p=6)
    with pytest.raises(ValueError, match="groups"):
        make_builtin("sparse-group-logistic", handle.matrix, handle.labels,
                     lam=0.1, groups=groups)


def test_unknown_model_rejected(rng):
    handle, _ = synth_dataset(seed=5, n=10, p=6)
    with pytest.raises(ValueError, match="unknown model"):
        make_builtin("elastic-net", handle.matrix, handle.labels, lam=0.1)


def test_builtin_requires_positive_hyperparameters(rng):
    handle, _ = synth_dataset(seed=5, n=10, p=6)
    with pytest.raises(ValueError, match="lam must be finite and > 0, got 0.0"):
        make_builtin("l1-logistic", handle.matrix, handle.labels, lam=0.0)


@pytest.mark.parametrize("weights", [
    {"lam": float("nan")}, {"lam": float("inf")},
    {"lam": 0.1, "fused_weight": float("nan")},
])
def test_builtin_names_a_non_finite_hyperparameter(weights):
    # nan passes a plain `<= 0` test; the hyperparameter is named, not the term
    handle, _ = synth_dataset(seed=5, n=10, p=6)
    name = list(weights)[-1]
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
        make_builtin("fused-sparse-logistic", handle.matrix, handle.labels, **weights)


def test_builtin_model_list_is_complete():
    assert set(BUILTIN_MODELS) == {
        "l1-logistic", "fused-sparse-logistic", "sparse-group-logistic",
        "fused-sparse-group-logistic", "multitask-dirty-logistic",
    }


@pytest.mark.parametrize("loss_cls, curvature", [(LogisticLoss, 0.25),
                                                 (LeastSquaresLoss, 2.0)])
def test_lipschitz_bound_is_curvature_times_weighted_norm(rng, loss_cls, curvature):
    a = rng.standard_normal((30, 6))
    y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    loss = loss_cls(a, y, ridge=0.3)
    assert loss.CURVATURE == curvature
    assert loss.lipschitz_bound() == curvature * loss._weighted_norm_sq + 0.3


@pytest.mark.parametrize("model, families", [
    ("fused-sparse-logistic", ("fused_weight",)),
    ("sparse-group-logistic", ("group_weight",)),
    ("fused-sparse-group-logistic", ("fused_weight", "group_weight")),
    ("multitask-dirty-logistic", ("group_weight",)),
])
def test_family_weights_left_none_take_lam(rng, model, families):
    handle, _ = synth_dataset(seed=6, n=40, p=8)
    lam = 0.03
    implicit = make_builtin(model, handle.matrix, handle.labels, lam=lam, groups=2)
    explicit = make_builtin(model, handle.matrix, handle.labels, lam=lam, groups=2,
                            **{name: lam for name in families})
    assert [(t.kind, t.weight, repr(t.op)) for t in implicit.terms] == \
        [(t.kind, t.weight, repr(t.op)) for t in explicit.terms]
    x = rng.standard_normal(implicit.dim)
    assert implicit.objective(x) == explicit.objective(x)
    for name in families:  # an explicit weight must still be positive
        with pytest.raises(ValueError, match=name):
            make_builtin(model, handle.matrix, handle.labels, lam=lam, **{name: 0.0})


_EDGE_MARGINS = np.array([0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 746.0, -746.0,
                          1e308, -1e308, np.inf, -np.inf])


@pytest.mark.parametrize("margins", [
    _EDGE_MARGINS,
    np.random.default_rng(3).standard_normal(20000),
    30.0 * np.random.default_rng(4).standard_normal(20000),
])
def test_logistic_losses_match_logaddexp(margins):
    # one exp per sample, within 4 ulp of numpy's two-argument formula and
    # exact where that formula gives an infinity
    got = _logistic_losses(margins)
    want = np.logaddexp(0.0, -margins)
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])
    assert np.all(np.abs(got[finite] - want[finite]) <= 4 * np.spacing(want[finite]))


def _counting_sample_losses(monkeypatch, make):
    calls = []
    real = make._sample_losses

    def counting(self, ax):
        calls.append(1)
        return real(self, ax)

    monkeypatch.setattr(make, "_sample_losses", counting)
    return calls


@pytest.mark.parametrize("make", [LogisticLoss, LeastSquaresLoss])
def test_gradient_after_probe_evaluates_each_sample_once(rng, matvec_calls,
                                                         monkeypatch, make):
    losses = _counting_sample_losses(monkeypatch, make)
    a = rng.standard_normal((40, 7))
    y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    x = rng.standard_normal(7)
    loss = make(a, y, ridge=0.1)
    v_probe = loss.value(x)
    v, g = loss.value_grad(x.copy())
    assert (len(matvec_calls), len(losses)) == (1, 1)
    want_v, want_g = make(a, y, ridge=0.1).value_grad(x)
    assert v == v_probe == want_v and np.array_equal(g, want_g)


def _x_mutated(loss, x):
    x[2] += 1.0
    return x


@pytest.mark.parametrize("make", [LogisticLoss, LeastSquaresLoss])
@pytest.mark.parametrize("change", [_x_mutated])
def test_value_memo_is_keyed_on_everything_the_value_reads(rng, matvec_calls,
                                                           monkeypatch, make, change):
    # x is all the memo keys on, as the loss's inputs are fixed: x changed in
    # its own buffer evaluates afresh and equals a new loss's (v, g)
    losses = _counting_sample_losses(monkeypatch, make)
    a = rng.standard_normal((30, 6))
    y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    x = rng.standard_normal(6)
    loss = make(a, y)
    loss.value_grad(x)
    x_next = change(loss, x)
    v, g = loss.value_grad(x_next)
    assert (len(matvec_calls), len(losses)) == (2, 2)
    fresh = make(a, loss.labels, loss.weights, loss.ridge)
    want_v, want_g = fresh.value_grad(x_next.copy())
    assert v == want_v and np.array_equal(g, want_g)


def _blocked_design(rng, ridge, make):
    # at least three row blocks, the last one ragged
    p = 64
    rows = problems_mod._BLOCK_BYTES // (8 * p)
    n = 3 * rows + 37
    a = rng.standard_normal((n, p))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    loss = make(a, y, ridge=ridge)
    return loss, a, y, 0.1 * rng.standard_normal(p)


@pytest.mark.parametrize("make", [LogisticLoss, LeastSquaresLoss])
def test_blocked_pass_matches_the_one_shot_products(rng, make):
    ridge = 0.05
    loss, a, y, x = _blocked_design(rng, ridge, make)
    sizes = [block.shape[0] for _, block, _ in loss._row_blocks]
    assert len(sizes) >= 4 and sizes[-1] < sizes[0] and len(set(sizes[:-1])) == 1
    assert all(np.shares_memory(block, loss.data) for _, block, _ in loss._row_blocks)
    ax = a @ x
    w = loss.weights
    if make is LogisticLoss:
        losses, c = _logistic_losses(y * ax), -w * y * expit(-y * ax)
    else:
        losses, c = (ax - y) * (ax - y), 2.0 * w * (ax - y)
    v, g = loss.value_grad(x)
    # the value is the unblocked one bit for bit; the gradient's blocks sum
    # in another order
    assert v == float(w @ losses) + 0.5 * ridge * float(x @ x)
    want = a.T @ c + ridge * x
    assert np.abs(g - want).max() <= 1e-14 * np.abs(want).max()
    assert loss.value(x.copy()) == v


@pytest.mark.parametrize("make", [LogisticLoss, LeastSquaresLoss])
def test_value_then_gradient_is_one_blocked_pass(rng, matvec_calls, monkeypatch, make):
    losses = _counting_sample_losses(monkeypatch, make)
    loss, _, _, x = _blocked_design(rng, 0.05, make)
    loss.value(x)
    loss.value_grad(x.copy())
    assert (len(matvec_calls), len(losses)) == (len(loss._row_blocks), 1)


def test_csr_design_is_one_block(rng):
    a = _sparse(rng.standard_normal((400, 300)))
    loss = LogisticLoss(a, np.where(rng.random(400) < 0.5, 1.0, -1.0))
    assert sp.issparse(loss.data)
    ((rows, block, block_t),) = loss._row_blocks
    assert rows == slice(0, 400) and block is loss.data and block_t.shape == (300, 400)
    # the transpose is a view: it shares the stored design's arrays, no copy
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(block_t, name), getattr(loss.data, name))
