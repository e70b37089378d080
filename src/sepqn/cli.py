"""Benchmark command-line surface.

Subcommands: `solve` runs one solver on one model and writes the solution
vector, a trace CSV, and a summary; `compare` runs several solvers and adds a
consensus report of pairwise final-objective gaps; `bench` sweeps problem
sizes and reports per-outer-iteration cost ratios; `synth` writes a seeded
synthetic dataset in LIBSVM form; `check` runs the fast invariant suite.

Artifacts are deterministic for a fixed spec and seed. By default the trace
CSV's seconds column is written as zeros to keep files byte-reproducible;
pass --timing to record wall-clock seconds instead (and accept
non-reproducible bytes). The default output directory comes from the
SEPQN_OUT_DIR environment variable, falling back to ./runs.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from dataclasses import dataclass, field, fields

from . import checks
from .baselines import (SCD_DIRECT_SETTINGS, BaselineConfig, admm_solve, fista_solve,
                        scd_direct_solve)
from .bench import AXES, cost_ratios, run_axis
from .data import read_libsvm, synth_dataset, write_libsvm
from .operators import FINITE_NONNEGATIVE, FINITE_POSITIVE, Rule, optional, require
from .problems import BUILTIN_MODELS, make_builtin
from .solver import SolverConfig, solve

__all__ = ["RunSpec", "run", "main", "TRACE_COLUMNS"]

TRACE_COLUMNS = ("iter", "objective", "step", "inner_iters", "epochs",
                 "seconds", "sigma", "beta")

SOLVER_KINDS = ("sepqn", "fista", "admm", "scd-direct")


# flags that set a config field; each default lives in its config alone
SOLVER_FLAGS = (
    ("--max-outer", "max_outer", int),
    ("--outer-tol", "outer_tolerance", float),
    ("--inner-tol", "inner_tolerance", float),
    ("--max-inner", "max_inner", int),
    ("--memory", "lbfgs_memory", int),
)
BASELINE_FLAGS = (
    ("--baseline-iters", "max_iterations", int),
    ("--baseline-tol", "tolerance", float),
    ("--rho", "rho", float),
)
# scd-direct's metric is fixed, so --memory sets sepqn's config alone; every
# other solver flag sets scd-direct's too, over baselines.SCD_DIRECT_SETTINGS
SCD_DIRECT_FLAGS = tuple(f for f in SOLVER_FLAGS if f[0] != "--memory")
# what a flag's help adds to "sets <Config>.<field>"
FLAG_NOTES = {
    "--memory": " for sepqn only",
    "--inner-tol": ", fixing every surrogate's tolerance (absent: the forcing rule)",
}


@dataclass
class RunSpec:
    model: str = "l1-logistic"
    data_path: str = None            # LIBSVM file; None -> synthetic
    solvers: tuple = ("sepqn",)
    lam: float = 0.01
    fused_weight: float = None
    group_weight: float = None
    num_groups: int = 10
    ridge: float = 0.0
    seed: int = 0
    synth_n: int = 500
    synth_p: int = 100
    synth_sparsity: float = 0.5
    out_dir: str = None
    timing: bool = False
    solver_config: SolverConfig = field(default_factory=SolverConfig)
    scd_direct_config: SolverConfig = field(
        default_factory=lambda: SolverConfig(**SCD_DIRECT_SETTINGS))
    baseline_config: BaselineConfig = field(default_factory=BaselineConfig)

    def __post_init__(self):
        require("model", self.model,
                Rule(BUILTIN_MODELS.__contains__, f"one of {BUILTIN_MODELS}"))
        require("solvers", self.solvers, Rule(
            lambda s: 0 < len(set(s)) == len(s) and set(s) <= set(SOLVER_KINDS),
            f"distinct names of {SOLVER_KINDS}"))
        # a family weight left None takes lam, and a ridge of 0 adds nothing
        require("lam", self.lam, FINITE_POSITIVE)
        require("fused_weight", self.fused_weight, optional(FINITE_POSITIVE))
        require("group_weight", self.group_weight, optional(FINITE_POSITIVE))
        require("ridge", self.ridge, FINITE_NONNEGATIVE)


def _out_dir(path):
    """path, else $SEPQN_OUT_DIR, else ./runs."""
    return path or os.environ.get("SEPQN_OUT_DIR", "runs")


def _load_problem(spec: RunSpec):
    if spec.data_path is not None:
        handle = read_libsvm(spec.data_path)
    else:
        handle, _ = synth_dataset(
            seed=spec.seed, n=spec.synth_n, p=spec.synth_p,
            sparsity=spec.synth_sparsity,
        )
    return make_builtin(spec.model, handle.matrix, handle.labels, lam=spec.lam,
                        fused_weight=spec.fused_weight, group_weight=spec.group_weight,
                        groups=spec.num_groups, ridge=spec.ridge), handle


def _run_one(spec: RunSpec, solver, problem):
    if solver == "sepqn":
        return solve(problem, spec.solver_config)
    if solver == "scd-direct":
        return scd_direct_solve(problem, spec.scd_direct_config)
    if solver == "fista":
        return fista_solve(problem, spec.baseline_config)
    return admm_solve(problem, spec.baseline_config)


def write_trace_csv(trace, path, timing=False):
    with open(path, "w") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for r in trace.rows:
            seconds = r.seconds if timing else 0.0
            fh.write(
                f"{r.iteration},{r.objective:.17g},{r.step:.17g},"
                f"{r.inner_iterations},{r.epochs},{seconds:.6f},"
                f"{r.sigma:.17g},{r.beta:.17g}\n"
            )


def write_vector(x, path):
    with open(path, "w") as fh:
        for v in x:
            fh.write(f"{v:.17g}\n")


def write_summary(path, entries):
    with open(path, "w") as fh:
        for key, value in entries:
            if isinstance(value, float):
                fh.write(f"{key}: {value:.17g}\n")
            else:
                fh.write(f"{key}: {value}\n")


def run(spec: RunSpec) -> int:
    """Execute one RunSpec, write artifacts, return a process exit status."""
    try:
        problem, handle = _load_problem(spec)
    except (ValueError, OSError) as exc:   # OSError: a missing or unreadable --data
        print(f"error: bad-problem: {exc}", file=sys.stderr)
        return 2
    out = _out_dir(spec.out_dir)
    os.makedirs(out, exist_ok=True)

    results = {}
    for solver in spec.solvers:
        tag = f"{solver}_" if len(spec.solvers) > 1 else ""
        try:
            sol = _run_one(spec, solver, problem)
        except Exception as exc:  # surfaced with a machine-readable reason
            print(f"error: solver-failed: {solver}: {exc}", file=sys.stderr)
            return 3
        results[solver] = sol
        write_vector(sol.x, os.path.join(out, f"{tag}solution.txt"))
        write_trace_csv(sol.trace, os.path.join(out, f"{tag}trace.csv"),
                        timing=spec.timing)
        entries = [
            ("solver", solver),
            ("model", spec.model),
            ("status", sol.trace.status),
            ("iterations", sol.trace.iterations),
            ("final_objective", float(sol.objective)),
            ("initial_objective", float(sol.trace.initial_objective)),
            ("epochs", sol.trace.epochs),
            ("n", handle.n),
            ("p", handle.p),
            ("nnz", handle.nnz),
            ("seed", spec.seed),
            ("lambda", float(spec.lam)),
        ]
        if solver in ("sepqn", "scd-direct"):
            # which exit fired, and the surrogates that hit max_inner before
            # certifying their gap
            entries.append(("stop_reason", sol.trace.stop_reason))
            entries.append(("inner_unconverged",
                            sum(not r.inner_converged for r in sol.trace.rows)))
        if spec.timing and sol.trace.rows:
            entries.append(("wall_seconds", float(sol.trace.rows[-1].seconds)))
        write_summary(os.path.join(out, f"{tag}summary.txt"), entries)
        print(f"{solver}: status={sol.trace.status} objective={sol.objective:.12g} "
              f"iterations={sol.trace.iterations}")

    if len(spec.solvers) > 1:
        lines = []
        worst = 0.0
        for first, second in itertools.combinations(results, 2):
            a, b = results[first].objective, results[second].objective
            rel = abs(a - b) / max(abs(a), abs(b), 1e-30)
            worst = max(worst, rel)
            lines.append((f"{first} vs {second}", rel))
        lines.append(("worst_pairwise", worst))
        write_summary(os.path.join(out, "consensus.txt"), lines)
        print(f"consensus: worst pairwise relative gap {worst:.3e}")
    return 0


def _cmd_solve(args) -> int:
    if args.solver == "scd-direct" and hasattr(args, "lbfgs_memory"):
        raise ValueError("--memory does not apply to scd-direct, whose metric is fixed")
    return run(_spec_from_args(args, solvers=(args.solver,)))


def _cmd_compare(args) -> int:
    solvers = tuple(s.strip() for s in args.solvers.split(",") if s.strip())
    return run(_spec_from_args(args, solvers=solvers))


def _cmd_bench(args) -> int:
    axes = AXES if args.axis == "all" else (args.axis,)
    status = 0
    rows = ["axis,size,outer_iterations,mean_work,ratio"]
    for axis in axes:
        points = run_axis(axis, doublings=args.doublings, seed=args.seed)
        ratios = cost_ratios(points)
        for i, pt in enumerate(points):
            ratio = ratios[i - 1] if i > 0 else float("nan")
            rows.append(f"{pt.axis},{pt.size},{pt.outer_iterations},"
                        f"{pt.mean_work:.17g},{ratio:.17g}")
        shown = ", ".join(f"{r:.3f}" for r in ratios)
        ok = all(1.7 <= r <= 2.3 for r in ratios)
        if not ok:
            status = 4
        print(f"bench {axis}: cost ratios [{shown}] "
              f"{'within' if ok else 'OUTSIDE'} [1.7, 2.3]")
    # made only once the sweeps ran, so a refused setting leaves no directory
    out = _out_dir(args.out)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "bench.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    return status


def _cmd_synth(args) -> int:
    handle, record = synth_dataset(
        seed=args.seed, n=args.n, p=args.p, sparsity=args.sparsity,
        model=args.generative,
    )
    write_libsvm(handle, args.out)
    truth_path = args.out + ".truth"
    write_vector(record["x_true"], truth_path)
    print(f"wrote {args.out} (n={handle.n}, p={handle.p}, nnz={handle.nnz}) "
          f"and {truth_path}")
    return 0


def _cmd_check(args) -> int:
    failures = checks.run_all()
    return 1 if failures else 0


def _config(args, cls, flags, defaults=None):
    """cls built from the flags given; the others keep `defaults`, else cls's."""
    given = {name: getattr(args, name) for _, name, _ in flags if hasattr(args, name)}
    return cls(**{**(defaults or {}), **given})


def _spec_from_args(args, solvers) -> RunSpec:
    given = {f.name: getattr(args, f.name) for f in fields(RunSpec)
             if hasattr(args, f.name)}
    given.update(
        solvers=solvers,
        solver_config=_config(args, SolverConfig, SOLVER_FLAGS),
        scd_direct_config=_config(args, SolverConfig, SCD_DIRECT_FLAGS, SCD_DIRECT_SETTINGS),
        baseline_config=_config(args, BaselineConfig, BASELINE_FLAGS),
    )
    return RunSpec(**given)


def _add_problem_args(p):
    # an absent flag sets no attribute, so RunSpec's or the config's default holds
    arg = functools.partial(p.add_argument, default=argparse.SUPPRESS)
    arg("--model", choices=BUILTIN_MODELS)
    arg("--data", dest="data_path", help="LIBSVM file (default: synthetic)")
    arg("--lambda", dest="lam", type=float)
    arg("--fused-weight", type=float)
    arg("--group-weight", type=float)
    arg("--num-groups", type=int)
    arg("--ridge", type=float)
    arg("--seed", type=int)
    arg("--synth-n", type=int)
    arg("--synth-p", type=int)
    arg("--synth-sparsity", type=float)
    arg("--out", dest="out_dir", help="output dir (default $SEPQN_OUT_DIR or ./runs)")
    arg("--timing", action="store_true", help="write wall-clock seconds into trace CSVs")
    for cls, flags in ((SolverConfig, SOLVER_FLAGS), (BaselineConfig, BASELINE_FLAGS)):
        for flag, name, kind in flags:
            arg(flag, dest=name, type=kind,
                help=f"sets {cls.__name__}.{name}{FLAG_NOTES.get(flag, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sepqn",
                                     description="structured composite solver benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver")
    _add_problem_args(p_solve)
    p_solve.add_argument("--solver", default="sepqn", choices=SOLVER_KINDS)
    p_solve.set_defaults(func=_cmd_solve)

    p_cmp = sub.add_parser("compare", help="run several solvers and report consensus")
    _add_problem_args(p_cmp)
    p_cmp.add_argument("--solvers", default="sepqn,fista,admm")
    p_cmp.set_defaults(func=_cmd_compare)

    p_bench = sub.add_parser("bench", help="size sweeps with cost ratios")
    p_bench.add_argument("--axis", default="all", choices=AXES + ("all",))
    p_bench.add_argument("--doublings", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=_cmd_bench)

    p_synth = sub.add_parser("synth", help="write a synthetic LIBSVM dataset")
    p_synth.add_argument("--n", type=int, default=500)
    p_synth.add_argument("--p", type=int, default=100)
    p_synth.add_argument("--sparsity", type=float, default=0.5)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--generative", default="logistic",
                         choices=("logistic", "least-squares"))
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    p_check = sub.add_parser("check", help="run the invariant suite")
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: bad-arguments: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:   # an output path that cannot be made or written
        print(f"error: bad-output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
