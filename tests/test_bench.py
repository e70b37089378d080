import numpy as np
import pytest
import scipy.sparse as sp

import sepqn
import sepqn.solver as solver_mod
from sepqn import scd
from sepqn.bench import row_work
from sepqn.operators import ExplicitSparse, FirstDifference, GroupSelector, Identity
from sepqn.problems import CompositeProblem, LogisticLoss, NormKind, RegularizerTerm
from sepqn.solver import SolverConfig, solve


def _three_term_problem(p=12):
    handle, _ = sepqn.synth_dataset(seed=3, n=60, p=p, sparsity=0.5)
    w = sp.random(5, p, density=0.5, random_state=1, format="csr")
    terms = (RegularizerTerm(NormKind.L1, 0.02, Identity(p)),
             RegularizerTerm(NormKind.L1, 0.01, FirstDifference(p)),
             RegularizerTerm(NormKind.L2, 0.01, ExplicitSparse(w)))
    return CompositeProblem(LogisticLoss(handle.matrix, handle.labels), terms), w


@pytest.mark.parametrize("settings, counted", [
    ({}, "surrogate_solves"),   # its third row re-solves at the floor
    ({"inner_tolerance": 0.0, "max_inner": 300}, "failed_checks"),
])
def test_row_work_prices_each_rows_events(monkeypatch, settings, counted):
    # the model over a row's recorded counts equals the row's events priced
    # one by one: each recovery at the pair count of the metric it ran
    # over, each projection of the stacked duals, three passes over them per
    # iteration, and one data pass per new epoch
    prob, w = _three_term_problem()
    p, s = prob.dim, sum(t.op.output_dim for t in prob.terms)
    # per row's point: (the point, pair count per recovery, projections)
    events = []
    make_recovery, real_solve = scd._recovery, solver_mod.continuation_solve

    def counting_recovery(metric, x_k, grad_k, blocks):
        recover = make_recovery(metric, x_k, grad_k, blocks)
        return lambda z: events[-1][1].append(metric.pair_count) or recover(z)

    def spy(metric, x_k, grad_k, terms, **kwargs):
        if not events or events[-1][0] is not x_k:
            events.append((x_k, [], []))
        return real_solve(metric, x_k, grad_k, terms, **kwargs)

    monkeypatch.setattr(scd, "_recovery", counting_recovery)
    monkeypatch.setattr(solver_mod, "continuation_solve", spy)
    for kind in (NormKind.L1, NormKind.L2):
        project = scd._PROJECT_RAW[kind]
        monkeypatch.setitem(scd._PROJECT_RAW, kind, lambda *a, project=project: (
            events[-1][2].append(1) or project(*a)))
    rows = solve(prob, SolverConfig(max_outer=4, **settings)).trace.rows
    monkeypatch.undo()

    applies = 2 * (p + 2 * (p - 1) + 2 * w.nnz)
    data = prob.loss.data
    pass_cost = 2 * (data.nnz if sp.issparse(data) else data.size) + 4 * data.shape[0]
    want, epochs = [], 1
    for row, (_, ks, projections) in zip(rows, events):
        recoveries = sum(4 * k * p + 4 * k * k + 2 * p + applies + p + s for k in ks)
        want.append(float(recoveries + len(projections) // len(prob.terms) * s
                          + 3 * row.inner_iterations * s
                          + (row.epochs - epochs) * pass_cost))
        epochs = row.epochs
    assert len(events) == len(rows) == 4
    assert max(max(ks) for _, ks, _ in events) > 0
    assert any(getattr(r, counted) > (counted == "surrogate_solves") for r in rows)
    assert any(r.dual_backtracks for r in rows)
    assert row_work(prob, rows, 10) == want


@pytest.mark.parametrize("term", [
    RegularizerTerm(NormKind.L2, 0.1, GroupSelector([0, 1], 12)),
    RegularizerTerm(NormKind.LINF, 0.1, Identity(12)),
])
def test_row_work_refuses_terms_the_sweeps_do_not_build(term):
    prob, _ = _three_term_problem()
    prob = CompositeProblem(prob.loss, prob.terms + (term,))
    with pytest.raises(ValueError, match="no cost"):
        row_work(prob, [], 10)
