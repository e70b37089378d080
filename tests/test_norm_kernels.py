"""Each norm kind's prox is derived from its dual-ball projection; these tests
hold it to the closed forms it replaced and to its edge cases."""
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from sepqn import BaselineConfig, admm_solve, solve
from sepqn.data import synth_dataset
from sepqn.operators import ExplicitSparse, Identity
from sepqn.problems import CompositeProblem, LogisticLoss, NormKind, RegularizerTerm
from sepqn.projections import KERNELS, SEGMENTED

sizes_strategy = st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=8)


def _draw(sizes, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(sum(sizes)) * rng.choice([1e-3, 1.0, 1e3])
    return rng, v, np.cumsum([0] + sizes[:-1])


@given(sizes_strategy, st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.sampled_from([0.05, 0.5, 3.0, 1e3]), st.booleans())
def test_prox_matches_closed_forms(sizes, seed, threshold, segmented):
    _, v, starts = _draw(sizes, seed)
    seg = (starts,) if segmented else ()
    scale = np.abs(v).max()
    # l1: soft-threshold, elementwise
    got = KERNELS[NormKind.L1].prox(v, threshold, *seg)
    want = np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * scale)
    # l2: (1 - t / ||v_s||)_+ v_s on each segment s
    pieces = np.split(v, starts[1:]) if segmented else [v]
    want = np.concatenate([max(0.0, 1.0 - threshold / np.linalg.norm(piece)) * piece
                           for piece in pieces])
    got = KERNELS[NormKind.L2].prox(v, threshold, *seg)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * scale)


@given(sizes_strategy, st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.sampled_from(list(NormKind)), st.booleans())
def test_zero_threshold_prox_is_identity(sizes, seed, kind, segmented):
    rng, v, starts = _draw(sizes, seed)
    v[rng.random(v.size) < 0.2] = 0.0
    seg = (starts,) if segmented and kind in SEGMENTED else ()
    got = KERNELS[kind].prox(v, 0.0, *seg)
    assert got is not v
    assert got.tobytes() == v.tobytes()


def test_l2_kernels_on_an_empty_vector():
    k = KERNELS[NormKind.L2]
    empty = np.zeros(0)
    assert k.norm(empty) == 0.0
    for radius in (0.0, 1.0):
        assert k.project(empty, radius).shape == (0,)
        assert k.prox(empty, radius).shape == (0,)


def test_zero_row_l2_term_solves():
    # a term over an operator with no rows adds nothing to the objective
    handle, _ = synth_dataset(seed=3, n=60, p=8)
    loss = LogisticLoss(handle.matrix, handle.labels)
    empty = RegularizerTerm(NormKind.L2, 0.1, ExplicitSparse(np.zeros((0, 8))))
    prob = CompositeProblem(loss, (RegularizerTerm(NormKind.L1, 0.02, Identity(8)), empty))
    x = np.random.default_rng(0).standard_normal(8)
    assert empty.value(x) == 0.0
    assert prob.penalty(x) == prob.terms[0].value(x)
    sol = solve(prob)
    ref = admm_solve(prob, BaselineConfig(kind="admm", tolerance=1e-10))
    assert sol.trace.status == "converged"
    assert abs(sol.objective - ref.objective) <= 1e-6 * abs(ref.objective)

