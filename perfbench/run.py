"""Certificate benchmark for commlab: one closed-loop client, three workloads.

    python3 perfbench/run.py --workload certify-mix --seed 1 --seconds 30 --trace 0

Every job is one ``commlab.cli.run(RunConfig)`` call, so it dispatches,
computes, runs its checks and writes ``report.csv`` and its artifacts as
``commlab <subcommand>`` does; an independent oracle then reads the artifacts
back (outside the job timing).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs the same jobs with every public commlab function wrapped
from outside and prints per-layer self times and exact work counts.  The
last line of standard output is one JSON object with the result.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import oracle
import tracing
from workloads import SCALES, WORKLOADS, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

END_TO_END_UNITS = {
    "certs_per_s": "1/s",
    "cert_p50_s": "s",
    "cert_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Seed baselines measured with in-library timers on a 2-core OpenBLAS box.
ROADMAP_BASELINES = {
    "minimize.penalty_gradient.us_per_call": (52.0, "us"),
    "anderson.verify_positive_commutator.b60_s": (1.65, "s"),
    "liealg.is_semisimple.sl8_s": (0.23, "s"),
}

# Span name -> (job kind, metric): the span of the largest job of that kind,
# 60 blocks and sl(8) at full scale.
LARGEST_JOB_SPANS = {
    "anderson.verify_positive_commutator": ("anderson-verify", "anderson.verify_positive_commutator.b60_s"),
    "liealg.is_semisimple": ("lie-semisimple", "liealg.is_semisimple.sl8_s"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# environment and set-up time


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(repeats: int) -> list[float]:
    """Wall time from spawning a fresh interpreter until ``import commlab`` returns.

    CLOCK_MONOTONIC is shared by parent and child, so the child stamps the
    end and the parent the start.  One spawn first warms the bytecode cache.
    """
    code = "import time, commlab; print(repr(time.monotonic()))"
    out = []
    for i in range(repeats + 1):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        if i:
            out.append(float(proc.stdout.strip()) - start)
    return out


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    with open("/proc/self/maps") as handle:
        libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment(args) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
    }


# ---------------------------------------------------------------------------
# running jobs


class Runner:
    """Runs jobs through ``cli.run`` and checks them with their oracle.

    ``after_job(job, out_dir)`` runs between the job and its oracle; the
    self-test uses it to corrupt an artifact.
    """

    def __init__(self, cli, work_dir: str, after_job=None):
        self.cli = cli
        self.work_dir = work_dir
        self.after_job = after_job
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def out_dir(self, slot: int) -> str:
        return os.path.join(self.work_dir, "out", str(slot))

    def run(self, job, slot: int) -> tuple[float, bool]:
        """Wall time of the ``cli.run`` call and whether the job passed."""
        out = self.out_dir(slot)
        cfg = self.cli.RunConfig(output_dir=out, **job.config)
        self.attempted += 1
        start = time.perf_counter()
        try:
            rep = self.cli.run(cfg)
        except Exception as exc:  # raising is one of the ways a job fails
            return self._fail(job, exc, time.perf_counter() - start)
        elapsed = time.perf_counter() - start
        try:
            if not rep.passed:
                raise oracle.OracleError("report has failing checks")
            if self.after_job is not None:
                self.after_job(job, out)
            job.check(out)
        except Exception as exc:  # oracle misses and unreadable artifacts alike
            return self._fail(job, exc, elapsed)
        return elapsed, True

    def _fail(self, job, exc: Exception, elapsed: float) -> tuple[float, bool]:
        self.failed += 1
        self.errors.append(f"{job.kind} size={job.size}: {type(exc).__name__}: {exc}")
        return elapsed, False

    def run_all(self, jobs) -> list[tuple[float, bool]]:
        return [self.run(job, slot) for slot, job in enumerate(jobs)]


def host_steal_s() -> float:
    """CPU seconds the hypervisor has taken from this machine's vCPUs so far."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, pct, beyond)."""
    ordered = sorted(times)
    n = len(ordered)
    i = n - 11 if n > 10 else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n - 1 - i


def measure(runner: Runner, workload: Workload, seconds: float) -> dict:
    """Warm up with one round, then run whole rounds for ``seconds`` of job time."""
    rounds = workload.rounds()
    runner.run_all(next(rounds))
    times: list[float] = []
    by_kind: dict[str, list[float]] = {}
    round_rates: list[float] = []
    steal_start, wall_start = host_steal_s(), time.perf_counter()
    while sum(times) < seconds:
        jobs = next(rounds)
        outcomes = runner.run_all(jobs)
        for job, (elapsed, _) in zip(jobs, outcomes):
            times.append(elapsed)
            by_kind.setdefault(f"{job.kind}/{job.size}", []).append(elapsed)
        round_rates.append(sum(ok for _, ok in outcomes) / sum(e for e, _ in outcomes))
    steal = (host_steal_s() - steal_start) / (time.perf_counter() - wall_start)
    value, pct, beyond = tail(times)
    return {
        "times": times,
        "by_kind": by_kind,
        "rounds": len(round_rates),
        "steal": steal,
        # The median over rounds keeps a burst of host steal in one round
        # from moving the rate of the whole run.
        "certs_per_s": statistics.median(round_rates),
        "cert_p50_s": statistics.median(times),
        "cert_tail_s": value,
        "tail_pct": pct,
        "tail_beyond": beyond,
    }


def traced_pass(runner: Runner, plan, tracer: tracing.Tracer, modules) -> dict:
    """Run the plan once with every traced function wrapped."""
    tracer.install(modules)
    wall = 0.0
    try:
        for slot, job in enumerate(plan):
            tracer.job = slot
            wall += runner.run(job, slot)[0]
    finally:
        tracer.uninstall()
    spans, counts = tracer.drain()
    counts["staircase.offers"] = tracing.child_calls(
        spans, "numkit.project_residual", "staircase.staircase_form")
    rows = [row for slot, job in enumerate(plan) if job.kind == "minimize"
            for row in oracle.read_csv(os.path.join(runner.out_dir(slot), "restarts.csv"))]
    counts["minimize.iterations"] = sum(int(r["iters"]) for r in rows)
    counts["minimize.feasible"] = sum(float(r["feasibility"]) <= 1e-6 for r in rows)
    largest_spans: dict[str, list[float]] = {metric: [] for _, metric in LARGEST_JOB_SPANS.values()}
    for s in spans:
        if s[0] in LARGEST_JOB_SPANS:
            kind, metric = LARGEST_JOB_SPANS[s[0]]
            if plan[s[4]].size == max(j.size for j in plan if j.kind == kind):
                largest_spans[metric].append(s[2] - s[1])
    return {"wall": wall, "spans": spans, "counts": counts,
            "functions": tracing.aggregate(spans), "largest": largest_spans}


def traced_run(runner: Runner, workload: Workload, seconds: float, modules) -> dict:
    """Alternate traced and untraced passes over the workload's first round.

    The plan is fixed, so the work counts of every traced pass must agree
    exactly; self times are averaged over the traced passes.
    """
    plan = next(workload.rounds())
    runner.run_all(plan)
    tracer = tracing.Tracer()
    passes: list[dict] = []
    untraced: list[float] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(traced_pass(runner, plan, tracer, modules))
        untraced.append(sum(e for e, _ in runner.run_all(plan)))

    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{workload.seed}.csv")
    tracing.write_spans(span_file, passes[-1]["spans"])

    metrics: dict[str, tuple[float, str]] = {}
    module_self = {mod: 0.0 for mod in tracing.TRACED}
    for mod, functions in tracing.TRACED.items():
        for fn in functions:
            name = f"{mod}.{fn}"
            per_pass = [p["functions"].get(name, {"calls": 0, "self_s": 0.0}) for p in passes]
            self_s = statistics.fmean(f["self_s"] for f in per_pass)
            module_self[mod] += self_s
            metrics[f"{name}.calls"] = (per_pass[0]["calls"], "count")
            metrics[f"{name}.self_s"] = (self_s, "s")
    counts = passes[0]["counts"]
    for name, (unit, _) in tracing.EXACT_COUNTS.items():
        metrics[name] = (counts.get(name, 0), unit)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics["minimize.penalty_gradient.us_per_call"] = (1e6 * ratio(
        metrics["minimize.penalty_gradient.self_s"][0], metrics["minimize.penalty_gradient.calls"][0]), "us")
    restarts = counts.get("minimize.restarts", 0)
    metrics["minimize.feasible_ratio"] = (ratio(counts.get("minimize.feasible", 0), restarts), "ratio")
    metrics["minimize.converged_ratio"] = (ratio(counts.get("minimize.converged", 0), restarts), "ratio")
    metrics["staircase.accept_ratio"] = (
        ratio(sum(j.size for j in plan if j.kind == "staircase"), counts["staircase.offers"]), "ratio")
    for metric in passes[0]["largest"]:
        values = [v for p in passes for v in p["largest"][metric]]
        metrics[metric] = (statistics.median(values) if values else 0.0, "s")
    for mod, value in module_self.items():
        metrics[f"{mod}.self_s"] = (value, "s")
    traced_s = statistics.fmean(p["wall"] for p in passes)
    untraced_s = statistics.fmean(untraced)
    metrics["trace.traced_pass_s"] = (traced_s, "s")
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return {
        "metrics": metrics,
        "passes": len(passes),
        "plan_jobs": len(plan),
        "counts_repeat": all(p["counts"] == counts for p in passes),
        "module_self": module_self,
        "span_file": span_file,
    }


# ---------------------------------------------------------------------------
# reporting


def print_end_to_end(args, result, setup, runner, rss_mb) -> dict:
    times = result["times"]
    print(f"perfbench {args.workload}: seed {args.seed}, {len(times)} jobs in "
          f"{result['rounds']} rounds, {sum(times):.2f} s of job time (untraced, closed loop, 1 client); "
          f"host steal {result['steal']:.1%} of one vCPU")
    metrics = {
        "certs_per_s": result["certs_per_s"],
        "cert_p50_s": result["cert_p50_s"],
        "cert_tail_s": result["cert_tail_s"],
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup),
    }
    notes = {
        "certs_per_s": f"median over {result['rounds']} rounds",
        "cert_tail_s": f"p{result['tail_pct']:.1f} of {len(times)} jobs, {result['tail_beyond']} beyond",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    for name, value in metrics.items():
        print(f"  {name:<14} {value:12.6g} {END_TO_END_UNITS[name]:<5} {notes.get(name, '')}")
    print("  median job time by kind/size: " + ", ".join(
        f"{k} {statistics.median(v):.4g} s" for k, v in sorted(result["by_kind"].items())))
    frac = runner.failed / runner.attempted
    print(f"  {'failed_frac':<14} {frac:12.6g} {'ratio':<5} {runner.failed} of {runner.attempted} jobs attempted")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}


def print_traced(args, traced) -> dict:
    metrics = traced["metrics"]
    print(f"perfbench {args.workload} traced: seed {args.seed}, {traced['passes']} traced passes "
          f"of {traced['plan_jobs']} jobs, alternating with untraced passes")
    print(f"  tracing overhead {metrics['trace.overhead_frac'][0]:+.2%} "
          f"({metrics['trace.traced_pass_s'][0]:.4f} s traced vs "
          f"{metrics['trace.untraced_pass_s'][0]:.4f} s untraced per pass)")
    ranked = sorted(traced["module_self"].items(), key=lambda kv: -kv[1])
    total = sum(v for _, v in ranked) or 1.0
    print("  self time per pass by module: " + ", ".join(
        f"{m} {v:.4f} s ({v / total:.0%})" for m, v in ranked if v > 0))
    name, value = max(((k[:-len(".self_s")], v) for k, (v, _) in metrics.items()
                       if k.count(".") == 2 and k.endswith(".self_s")), key=lambda kv: kv[1])
    print(f"  largest function self time: {name} {value:.4f} s per pass")
    print(f"  exact work counts (repeat across passes: {'yes' if traced['counts_repeat'] else 'NO'}):")
    for name, (unit, meaning) in tracing.EXACT_COUNTS.items():
        print(f"    {name:<28} {metrics[name][0]:>16.0f} {unit:<5} [count] {meaning}")
    print("  against ROADMAP seed baselines:")
    for name, (base, unit) in ROADMAP_BASELINES.items():
        print(f"    {name:<44} {metrics[name][0]:10.4g} {unit} (baseline {base:g} {unit})")
    print(f"  spans of the last traced pass: {os.path.relpath(traced['span_file'], ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"    {name:<46} {value:14.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "commlab", "__init__.py")):
        print(f"perfbench: no commlab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("COMMLAB_SEED", None)   # seeds come from the workload seed only
    sys.path.insert(0, SRC)
    scale = SCALES[args.scale]
    setup = measure_setup(scale.setup_repeats)

    modules = {name: importlib.import_module(f"commlab.{name}") for name in tracing.TRACED}
    cli = modules["cli"]
    print("env " + json.dumps(environment(args), sort_keys=True))
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workload = Workload(args.workload, args.seed, work_dir, scale)
        runner = Runner(cli, work_dir)
        if args.trace:
            traced = traced_run(runner, workload, args.seconds, modules)
            metrics = print_traced(args, traced)
        else:
            result = measure(runner, workload, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = print_end_to_end(args, result, setup, runner, rss_mb)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):   # left in place while another run uses it
            os.rmdir(os.path.dirname(work_dir))
    for line in runner.errors[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
