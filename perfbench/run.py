"""Wall-clock benchmark of `sepqn.solve`: time to 1e-8 on seeded workloads.

    python3 perfbench/run.py --workload trio --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the solver is imported from its
`src` directory, never from an installed copy. Each run starts two child
processes one after the other, both with BLAS pinned to one thread: the first
computes (or reads from `.perfbench/cache`) the independent reference
objectives, the second measures. With `--trace 0` the last line of standard
output is a JSON object with the end-to-end metrics; with `--trace 1` it
holds the per-layer metrics of the traced passes. The full record of a run,
with its environment, goes to `.perfbench/results/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
DEADLINE_S = 170.0   # every run, children included, ends within this
CHILD_ENV = {        # one load-generating process, one BLAS thread
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def source_digest() -> str:
    """sha256 over the solver's and the benchmark's sources."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "sepqn").glob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or None


def environment(args, digest) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "child_env": CHILD_ENV, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "commit": commit(), "source_sha256": digest, "machine": platform.machine(),
    }


def child(args, deadline) -> dict:
    """Run worker.py with `args`; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for the next child process")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                          env=env, stdout=subprocess.PIPE, timeout=remaining, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge_run(measured, refs):
    """Gate every solve: (failures, wrong outputs, tts sum of each pass, f*).

    A solve that never reaches the target adds its whole solve time to tts.
    """
    records = [rec for p in measured["passes"] for rec in p["solves"]]
    best = {label: gate.f_star(ref["objective"],
                               [r for r in records if r["label"] == label])
            for label, ref in refs.items()}
    failures = []
    wrong = 0
    tts = []
    for p in measured["passes"]:
        total = 0.0
        for rec in p["solves"]:
            reason, is_wrong, t = gate.judge(rec, best[rec["label"]])
            if reason is not None:
                failures.append(f"{rec['label']}: {reason}")
                wrong += is_wrong
                t = rec["seconds"]
            total += t
        tts.append(total)
    return failures, wrong, tts, best


def spread(values) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q[0],
            "q3": q[2], "min": min(values), "max": max(values)}


def end_to_end(measured, tts, failures, attempted) -> tuple:
    passes = measured["passes"]
    samples = {
        "solve_s": [sum(r["seconds"] for r in p["solves"]) for p in passes],
        "tts_s": tts,
        "setup_s": [p["setup_s"] for p in passes] + measured["extra_setup_s"],
    }
    metrics = {name: {"value": statistics.median(v), "unit": "s"}
               for name, v in samples.items()}
    metrics["peak_rss_mb"] = {"value": measured["peak_rss_mb"], "unit": "MB"}
    metrics["success_rate"] = {"value": 1.0 - len(failures) / attempted, "unit": "ratio"}
    return metrics, {name: spread(v) for name, v in samples.items()}


def per_layer(measured, workload) -> tuple:
    traced = [p for p in measured["passes"] if p["traced"]]
    plain = [p for p in measured["passes"] if not p["traced"]]
    problems = []
    for p in traced:
        problems += gate.reconcile(p["layers"], workload.layers)
    first = traced[0]["layers"]
    metrics = {}
    for name in first:
        if name.endswith(".s"):
            value = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": "s"}
        else:
            if any(p["layers"][name] != first[name] for p in traced):
                problems.append(f"{name} differs between traced passes")
            metrics[name] = {"value": first[name], "unit": "count"}
    wall = [sum(r["seconds"] for r in p["solves"]) for p in traced]
    base = [sum(r["seconds"] for r in p["solves"]) for p in plain]
    metrics["trace.overhead_s"] = {
        "value": statistics.median(wall) - statistics.median(base), "unit": "s"}
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "sepqn" / "__init__.py").is_file():
        print(f"error: no solver sources at {ROOT / 'src' / 'sepqn'}; run from the "
              "root of a sepqn checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    digest = source_digest()
    env = environment(args, digest)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    refs = child(["reference", *common, "--cache", str(STATE / "cache"),
                  "--digest", digest[:16]], deadline)
    measured = child(["measure", *common, "--seconds", str(args.seconds),
                      "--trace", str(args.trace)], deadline)

    attempted = sum(len(p["solves"]) for p in measured["passes"])
    failures, wrong, tts, best = judge_run(measured, refs)
    record = {"env": env, "references": refs, "f_star": best, "failures": failures}
    if args.trace:
        metrics, problems = per_layer(measured, workload)
        record["reconciliation"] = problems
        for line in problems:
            print(f"reconciliation: {line}", file=sys.stderr)
    else:
        metrics, record["spread"] = end_to_end(measured, tts, failures, attempted)
        problems = []
    for line in failures:
        print(f"failed solve: {line}", file=sys.stderr)
    record["metrics"] = metrics
    record["passes"] = [{"traced": p["traced"], "setup_s": p["setup_s"],
                         "solves": [{k: v for k, v in r.items() if k != "rows"}
                                    for r in p["solves"]]}
                        for p in measured["passes"]]

    out_dir = STATE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong and not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
