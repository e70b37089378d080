"""Child process of the benchmark: evaluates references or measures solves.

    python3 perfbench/worker.py reference --workload W --seed S --cache DIR --digest D
    python3 perfbench/worker.py measure --workload W --seed S --seconds T --trace 0|1

`run.py` starts it with `src` on PYTHONPATH and BLAS threads pinned in the
environment, and reads the JSON object it prints as its last line. The
measuring child is started fresh for each run, so its peak resident set
belongs to one workload alone.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

import sepqn
from sepqn import solve

import tracing
import workloads

SETUP_SAMPLES = 15   # setups per untraced run, topping up the passes' own
SETUP_TOP_UP_S = 3.0


def reference(workload, seed, cache_dir: Path, digest: str) -> dict:
    """f at each model's reference point, on the seed's problem.

    The points are cached per workload and source digest, since they do not
    depend on the seed.
    """
    path = cache_dir / f"{workload.name}-{digest}.json"
    if path.is_file():
        points = json.loads(path.read_text())
    else:
        points = {}
        for label, _, _ in workload.models:
            x, status = workloads.reference_point(workload, label)
            points[label] = {"x": x.tolist(), "status": status}
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(points))
        os.replace(tmp, path)
    matrix, labels = workloads.generate(workload, seed)
    return {
        label: {"objective": float(problem.objective(np.array(points[label]["x"]))),
                "status": points[label]["status"]}
        for label, problem in workloads.build(workload, matrix, labels)
    }


def warm_up(workload):
    """Solve every model of the workload once at toy size, untimed, so the
    first timed solve does not pay one-time import and first-call costs."""
    handle, _ = sepqn.synth_dataset(seed=0, n=60, p=12)
    for _, problem in workloads.build(workload, handle.matrix, handle.labels):
        solve(problem, workloads.solver_config(workload))


def set_up(workload, seed, span):
    """Generate the seed's dataset and build its problems: (seconds, problems)."""
    gc.collect()
    t0 = time.perf_counter()
    with span("data.gen"):
        matrix, labels = workloads.generate(workload, seed)
    with span("problems.build"):
        built = workloads.build(workload, matrix, labels)
    return time.perf_counter() - t0, built


def _no_span(name):
    return contextlib.nullcontext()


def run_pass(workload, seed, tracer=None) -> dict:
    """Generate, build and solve the workload's problems once.

    Timed regions: setup is generation plus construction; each solve is the
    `solve` call alone, on a problem built for it.
    """
    span = tracer.span if tracer is not None else _no_span
    config = workloads.solver_config(workload)
    clock = time.perf_counter
    setup, built = set_up(workload, seed, span)
    done = []
    for label, problem in built:
        gc.collect()
        sol, error = None, None
        t0 = clock()
        try:
            with span("solver.solve"):
                sol = solve(problem, config)
        except Exception as exc:  # a failed solve is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = clock() - t0
        if sol is not None and tracer is not None:
            tracer.note_solution(sol)
        done.append((label, problem, sol, seconds, error))
    return {"setup_s": setup, "done": done}


def describe(done) -> list:
    """JSON records of a pass's solves. The objective is re-evaluated at the
    returned point, outside any timed or traced region."""
    records = []
    for label, problem, sol, seconds, error in done:
        rec = {"label": label, "seconds": seconds, "error": error}
        if sol is not None:
            rec.update(
                status=sol.trace.status,
                objective=float(problem.objective(sol.x)),
                outer=sol.trace.iterations,
                epochs=sol.trace.epochs,
                inner=sum(r.inner_iterations for r in sol.trace.rows),
                rows=[[r.seconds, r.objective] for r in sol.trace.rows],
            )
        records.append(rec)
    return records


def measure(workload, seed, seconds, trace, skip=()) -> dict:
    """Passes over the workload's problems until `seconds` have elapsed.

    Without tracing every pass is timed, and set-ups alone are repeated
    afterwards until there are SETUP_SAMPLES of them or SETUP_TOP_UP_S have
    passed. With tracing, untraced and traced passes alternate, at least one
    of each, and each traced pass reports its own span totals.
    """
    warm_up(workload)
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        layers = None
        if traced:
            tracer = tracing.Tracer()
            with tracer.installed(skip=skip):
                result = run_pass(workload, seed, tracer)
            layers = tracer.snapshot()
        else:
            result = run_pass(workload, seed)
        passes.append({"traced": traced, "setup_s": result["setup_s"],
                       "solves": describe(result["done"]), "layers": layers})
        # free this pass's inputs before the next pass builds its own, so the
        # peak resident set holds one pass
        del result
        if len(passes) >= 1 + trace and time.perf_counter() - start >= seconds:
            break
    extra_setup = []
    top_up_end = time.perf_counter() + SETUP_TOP_UP_S
    while (not trace and len(passes) + len(extra_setup) < SETUP_SAMPLES
           and time.perf_counter() < top_up_end):
        extra_setup.append(set_up(workload, seed, _no_span)[0])
    return {
        "passes": passes,
        "extra_setup_s": extra_setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("reference", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache", type=Path)
    parser.add_argument("--digest", default="")
    args = parser.parse_args(argv)
    source = Path(sepqn.__file__).resolve().parent
    expected = Path(__file__).resolve().parent.parent / "src" / "sepqn"
    if source != expected:
        print(f"error: imported sepqn from {source}, expected {expected}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.mode == "reference":
        out = reference(workload, args.seed, args.cache, args.digest)
    else:
        out = measure(workload, args.seed, args.seconds, args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
