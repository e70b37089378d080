"""Correctness gate, time-to-accuracy, and the traced-pass reconciliation.

f* is the smaller of the independent reference objective and the best
objective any solve of the same problem reached in the run. A solve fails if
it raised, stopped with a status other than `converged`, ended more than
1e-6 relative above f*, or never came within 1e-8 relative of f*. The first
three make its output wrong; the last is a solve whose output agrees with
the reference to the repository's 1e-6 consensus tolerance but that stopped
short of the accuracy tts_s is defined by.
"""
from __future__ import annotations

TTS_TARGET = 1e-8       # relative suboptimality that defines tts_s
FINAL_TOLERANCE = 1e-6  # largest accepted relative gap of the final objective

__all__ = ["TTS_TARGET", "FINAL_TOLERANCE", "relative_gap", "f_star",
           "time_to_target", "judge", "reconcile"]


def relative_gap(objective: float, f_best: float) -> float:
    return (objective - f_best) / abs(f_best)


def f_star(reference: float, records) -> float:
    """min(reference, every objective the records reached)."""
    seen = [reference]
    for rec in records:
        if rec.get("objective") is not None:
            seen.append(rec["objective"])
        seen.extend(obj for _, obj in rec.get("rows", ()))
    return min(seen)


def time_to_target(rows, f_best: float, target: float = TTS_TARGET):
    """Trace seconds at the first row within `target` of f*, else None."""
    for seconds, objective in rows:
        if relative_gap(objective, f_best) <= target:
            return seconds
    return None


def judge(record: dict, f_best: float):
    """(failure reason or None, whether the output is wrong, tts or None)."""
    if record.get("error"):
        return f"raised {record['error']}", True, None
    if record["status"] != "converged":
        return f"stopped with status {record['status']!r}", True, None
    gap = relative_gap(record["objective"], f_best)
    if gap > FINAL_TOLERANCE:
        return f"ended {gap:.2e} relative above f*", True, None
    tts = time_to_target(record["rows"], f_best)
    if tts is None:
        return f"never came within {TTS_TARGET:g} of f* (final gap {gap:.2e})", False, None
    return None, False, tts


def reconcile(snapshot: dict, expected_layers) -> list:
    """Problems with a traced pass's accounting; empty when it reconciles.

    - every loss evaluation is one data pass, so value and value_grad calls
      add up to the solver's epoch count exactly;
    - every outer iteration runs at least one continuation solve;
    - every layer the workload exercises shows at least one call.
    """
    found = []
    passes = snapshot["problems.value_grad.calls"] + snapshot["problems.value.calls"]
    if passes != snapshot["solver.epochs"]:
        found.append(f"value_grad.calls + value.calls = {passes} != "
                     f"solver.epochs = {snapshot['solver.epochs']}")
    if snapshot["scd.continuation.calls"] < snapshot["solver.outer_iters"]:
        found.append(f"scd.continuation.calls = {snapshot['scd.continuation.calls']} < "
                     f"solver.outer_iters = {snapshot['solver.outer_iters']}")
    for name in sorted(expected_layers):
        if snapshot.get(name + ".calls", 0) == 0:
            found.append(f"{name} saw no calls")
    return found
