"""Per-layer spans recorded from outside the solver.

The tracer replaces each traced entry point with a wrapper at the site where
the solver actually looks the call up, and restores the originals on exit:

- `solver` calls `continuation_solve` and `line_search` through its own
  module globals, so those globals are wrapped;
- `scd` binds projections and norms from its `_PROJECT_RAW`/`_NORM_RAW`
  tables and operator kernels as `op._apply`/`op._apply_transpose` on each
  `solve_surrogate` call, so the table entries and the kernel methods of each
  operator class are wrapped;
- the `LbfgsMetric` methods, `LogisticLoss.value`/`value_grad`,
  `CompositeProblem.penalty` and `LinearOperator.norm_estimate` are wrapped on
  their classes.

A wrapper adds its call's duration to a per-name total and subtracts it from
the enclosing span, so each total is self time. Spans are aggregated in
memory as they close. Counts read from return values (inner iterations,
line-search probes, accepted curvature pairs) are kept next to the spans.
"""
from __future__ import annotations

import contextlib
import time
import weakref
from collections import defaultdict

from sepqn import lbfgs, operators, problems, scd, solver
from sepqn.problems import NormKind

__all__ = ["Tracer", "SITES", "PER_LAYER_TIMED", "PER_LAYER_COUNTS"]


def _on_inner(tracer, result, args):
    tracer.counts["scd.inner_iters"] += result.inner_iterations
    tracer.counts["scd.dual_backtracks"] += result.backtracks
    tracer.counts["scd.rounds"] += len(result.rounds)
    if not result.converged:
        tracer.counts["scd.inner_limit_hits"] += 1


def _on_line_search(tracer, result, args):
    tracer.counts["solver.line_search.probes"] += result[2]


def _on_push_pair(tracer, result, args):
    if result:
        tracer.counts["lbfgs.pairs_accepted"] += 1


def _on_adapt_h0(tracer, result, args):
    metric = args[0]
    seen = tracer.floor_seen.get(metric, 0)
    tracer.counts["lbfgs.floor_hits"] += metric.floor_hits - seen
    tracer.floor_seen[metric] = metric.floor_hits


# (owner, attribute or dict key, span name, result hook); an owner is a
# module's globals, a kernel table, or a class
SITES = (
    (solver.__dict__, "continuation_solve", "scd.continuation", _on_inner),
    (solver.__dict__, "line_search", "solver.line_search", _on_line_search),
    (scd._NORM_RAW, NormKind.L1, "scd.norm.l1", None),
    (scd._NORM_RAW, NormKind.L2, "scd.norm.l2", None),
    (scd._PROJECT_RAW, NormKind.L1, "projections.l1", None),
    (scd._PROJECT_RAW, NormKind.L2, "projections.l2", None),
    (operators.Identity, "_apply", "operators.Identity.apply", None),
    (operators.Identity, "_apply_transpose", "operators.Identity.transpose", None),
    (operators.FirstDifference, "_apply", "operators.FirstDifference.apply", None),
    (operators.FirstDifference, "_apply_transpose",
     "operators.FirstDifference.transpose", None),
    (operators.GroupSelector, "_apply", "operators.GroupSelector.apply", None),
    (operators.GroupSelector, "_apply_transpose",
     "operators.GroupSelector.transpose", None),
    (operators.LinearOperator, "norm_estimate", "operators.norm_estimate", None),
    (lbfgs.LbfgsMetric, "inv_apply", "lbfgs.inv_apply", None),
    (lbfgs.LbfgsMetric, "apply", "lbfgs.apply", None),
    (lbfgs.LbfgsMetric, "inv_norm_estimate", "lbfgs.inv_norm_estimate", None),
    (lbfgs.LbfgsMetric, "push_pair", "lbfgs.push_pair", _on_push_pair),
    (lbfgs.LbfgsMetric, "adapt_h0", "lbfgs.adapt_h0", _on_adapt_h0),
    (problems.LogisticLoss, "value_grad", "problems.value_grad", None),
    (problems.LogisticLoss, "value", "problems.value", None),
    (problems.CompositeProblem, "penalty", "problems.penalty", None),
)

# spans the benchmark opens around its own calls into a layer
OWN_SPANS = ("data.gen", "problems.build", "solver.solve")

PER_LAYER_TIMED = OWN_SPANS + tuple(site[2] for site in SITES)

PER_LAYER_COUNTS = (
    "solver.outer_iters", "solver.epochs", "solver.line_search.probes",
    "scd.inner_iters", "scd.inner_limit_hits", "scd.dual_backtracks", "scd.rounds",
    "lbfgs.pairs_accepted", "lbfgs.floor_hits",
)


def _lookup(owner, key):
    return owner[key] if isinstance(owner, dict) else owner.__dict__[key]


def _assign(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Self time and call count per span name, plus counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.floor_seen = weakref.WeakKeyDictionary()
        self._stack = [0.0]   # child time of each open span, outermost first

    def wrap(self, name, fn, hook=None):
        self_s, calls, stack = self.self_s, self.calls, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                stack[-1] += dt
                calls[name] += 1
            if hook is not None:
                hook(tracer, result, args)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """Span around a call the benchmark itself makes."""
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.self_s[name] += dt - stack.pop()
            stack[-1] += dt
            self.calls[name] += 1

    @contextlib.contextmanager
    def installed(self, skip=()):
        """Wrap every site in SITES except the span names in `skip`."""
        saved = []
        try:
            for owner, key, name, hook in SITES:
                if name in skip:
                    continue
                original = _lookup(owner, key)
                saved.append((owner, key, original))
                _assign(owner, key, self.wrap(name, original, hook))
            yield self
        finally:
            for owner, key, original in reversed(saved):
                _assign(owner, key, original)

    def note_solution(self, sol):
        """Counters read from a finished solve's trace."""
        self.counts["solver.outer_iters"] += sol.trace.iterations
        self.counts["solver.epochs"] += sol.trace.epochs

    def snapshot(self) -> dict:
        out = {}
        for name in PER_LAYER_TIMED:
            out[name + ".s"] = self.self_s.get(name, 0.0)
            out[name + ".calls"] = self.calls.get(name, 0)
        for name in PER_LAYER_COUNTS:
            out[name] = self.counts.get(name, 0)
        return out
