"""hrfrontier benchmark: one closed-loop client driving the package from outside.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dense-frontier --seed 1 --seconds 30 --trace 0

Workloads (see ``jobs.py``): ``cli-cold``, ``dense-frontier``, ``statewise``.
One process runs one job at a time and starts the next only when the last
has finished; ``cli-cold`` jobs are ``python -m hrfrontier.cli`` children,
never more than one alive.  BLAS is pinned to one thread, in this process and
in every child.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles, then runs the layer probes, and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it are a
readable report.  A fuller record (environment, per-class timings, sweep
points, failures) goes to ``.bench_out/`` and, when tracing, every span too.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported here or in any child.
BLAS_PIN = {
    var: "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import compileall  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import spans as spanlib  # noqa: E402

SETUP_REPEATS = 3
#: Rounds of the in-process ``cli.main`` and ``verification_report`` probes.
PROBE_ROUNDS = 3
CLI_SPANS = {f"cli.{command}" for command in ("frontier", "multiperiod", "hj", "mhr", "verify")}

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
}

#: Per-layer metric -> (span name, statistic, unit).  ``ms`` is mean self
#: time per call; ``count:<key>`` is the mean of a span count per call.
SPAN_METRICS = {
    "cli.warm_ms": ("cli.warm", "ms", "ms"),
    "cli.frontier_ms": ("cli.frontier", "ms", "ms"),
    "cli.multiperiod_ms": ("cli.multiperiod", "ms", "ms"),
    "cli.hj_ms": ("cli.hj", "ms", "ms"),
    "cli.mhr_ms": ("cli.mhr", "ms", "ms"),
    "cli.verify_ms": ("cli.verify", "ms", "ms"),
    "benchmark.verify_ms": ("benchmark.verify", "ms", "ms"),
    "market.from_json_ms": ("market.from_json", "ms", "ms"),
    "market.gram_cells": ("market.from_json", "count:gram_cells", "count"),
    "linalg.cholesky_ref_ms": ("linalg.cholesky_ref", "ms", "ms"),
    "frontier.special_ms": ("frontier.special", "ms", "ms"),
    "frontier.coeffs_ms": ("frontier.coeffs", "ms", "ms"),
    "frontier.points_ms": ("frontier.points", "ms", "ms"),
    "kernel.hj_bounds_ms": ("kernel.hj_bounds", "ms", "ms"),
    "multiperiod.propagate_ms": ("multiperiod.propagate", "ms", "ms"),
    "market.from_scenarios_ms": ("market.from_scenarios", "ms", "ms"),
    "market.state_cells": ("market.from_scenarios", "count:state_cells", "count"),
    "moments.payoff_build_ms": ("moments.payoff_build", "ms", "ms"),
    "moments.states": ("moments.payoff_build", "count:states", "count"),
    "kernel.frontier_ms": ("kernel.frontier", "ms", "ms"),
    "kernel.check_ms": ("kernel.check", "ms", "ms"),
    "monotone.mhr_small_ms": ("monotone.mhr_small", "ms", "ms"),
    "monotone.mhr_large_ms": ("monotone.mhr_large", "ms", "ms"),
    "monotone.hj_bound_ms": ("monotone.hj_bound", "ms", "ms"),
    "monotone.hj_dirs_evaluated": ("monotone.hj_bound", "count:directions_evaluated", "count"),
    "multiperiod.tree_ms": ("multiperiod.tree", "ms", "ms"),
    "multiperiod.tree_leaves": ("multiperiod.tree", "count:leaves", "count"),
    "bench.check_ms": ("bench.check", "ms", "ms"),
}

OTHER_PER_LAYER = {
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.out_bytes": "bytes",
    "monotone.mhr_states": "count",
    "monotone.hj_useful_frac": "ratio",
    "process.peak_rss_mb": "MB",
    "trace.overhead_frac": "ratio",
    "monotone.mhr_exp": "slope",
    "market.from_scenarios_exp": "slope",
    "multiperiod.tree_exp": "slope",
    "frontier.special_exp": "slope",
    **{f"{layer}.busy_ms": "ms" for layer in spanlib.LAYERS},
    **{f"{layer}.errors": "count" for layer in spanlib.LAYERS},
}

PER_LAYER = {name: unit for name, (_s, _k, unit) in SPAN_METRICS.items()}
PER_LAYER.update(OTHER_PER_LAYER)


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "dense-frontier", "statewise"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and exit; used to time set-up in a fresh process")
    return parser.parse_args(argv)


def checkout_paths() -> tuple[str, str]:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hrfrontier", "__init__.py")):
        fail("run from the root of an hrfrontier checkout (no src/hrfrontier here)")
    return root, src


def set_up(workload: str, seed: int, root: str, src: str):
    """Imports, seeded inputs and warm-up jobs; returns the workload object."""
    sys.path.insert(0, src)
    import hrfrontier
    import jobs

    if not os.path.abspath(hrfrontier.__file__).startswith(src + os.sep):
        fail(f"hrfrontier imported from {hrfrontier.__file__}, not from {src}")
    os.makedirs(os.path.join(root, ".bench_tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(root, ".bench_tmp"))
    wl = jobs.WORKLOADS[workload](seed, workdir)
    # Warm-up only fills caches; the timed loop counts any failing job.
    Loop(wl).run_slots(range(wl.WARMUP), spanlib.NullTracer())
    return wl


def time_setups(args, root: str) -> list[float]:
    """Wall time of complete set-ups, each in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            fail(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return times


class Loop:
    """Closed loop over whole cycles of a workload's job slots."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.cycles = 0
        self.times: list[float] = []
        self.labels: list[str] = []
        self.modes: list[int] = []
        self.failures: list[dict] = []

    def run_slots(self, slots, tracer, mode: int = 0) -> None:
        """One job per slot; output checks run after each job's timer stops."""
        import jobs

        wl = self.wl
        variant = self.cycles % jobs.VARIANTS
        for slot in slots:
            tracer.job = len(self.times)
            problems: list[str] = []
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.job"):
                    out = wl.run(slot, variant, tracer)
            except Exception as exc:  # a job that raises counts as failed
                out = None
                problems.append(f"{type(exc).__name__}: {exc}")
            self.times.append(time.perf_counter() - t0)
            self.labels.append(wl.label(slot))
            self.modes.append(mode)
            if out is not None:
                with tracer.span("bench.check"):
                    try:
                        problems += wl.check(slot, variant, out)
                    except Exception as exc:
                        problems.append(f"check raised {type(exc).__name__}: {exc}")
                if tracer.enabled:
                    wl.after_job(out, tracer)
            if problems:
                self.failures.append({"job": wl.label(slot), "problems": problems[:5]})

    def run(self, seconds: float, tracers: list) -> dict:
        """Runs whole cycles until ``seconds`` have passed.

        Cycle ``i`` runs under ``tracers[i % len(tracers)]``, so traced and
        untraced cycles alternate and share whatever the host is doing.
        Every tracer gets at least one cycle.
        """
        start = time.perf_counter()
        while True:
            mode = self.cycles % len(tracers)
            self.run_slots(range(len(self.wl.slots)), tracers[mode], mode)
            self.cycles += 1
            if time.perf_counter() - start >= seconds and self.cycles >= len(tracers):
                break
        return {"times": self.times, "labels": self.labels, "modes": self.modes,
                "failures": self.failures}


def untraced_times(result: dict) -> list[float]:
    return [t for t, mode in zip(result["times"], result["modes"]) if mode == 0]


def end_to_end(result: dict, setup_times: list[float]) -> dict:
    times_ms = [t * 1e3 for t in untraced_times(result)]
    return {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": len(times_ms) / (sum(times_ms) / 1e3),
        "job_ms_p50": statistics.median(times_ms),
        "job_ms_p90": statistics.quantiles(times_ms, n=10, method="inclusive")[8],
    }


def per_class(result: dict) -> dict:
    by_label = defaultdict(list)
    for label, t, mode in zip(result["labels"], result["times"], result["modes"]):
        if mode == 0:
            by_label[label].append(t * 1e3)
    return {
        label: {"jobs": len(v), "median_ms": statistics.median(v)}
        for label, v in sorted(by_label.items())
    }


def span_metrics(stats: dict, jobs_count: int) -> dict:
    """Per-layer metrics from one source of spans that ran ``jobs_count`` jobs."""
    out = {}
    for metric, (name, what, _unit) in SPAN_METRICS.items():
        st = stats.get(name)
        if st is None:
            continue
        if what == "ms":
            out[metric] = st.self_s / st.calls * 1e3
        else:
            out[metric] = st.counts.get(what.split(":", 1)[1], 0.0) / st.calls
    cli_calls = [st for name, st in stats.items() if name in CLI_SPANS]
    if cli_calls:
        out["cli.out_bytes"] = (sum(st.counts.get("out_bytes", 0) for st in cli_calls)
                                / sum(st.calls for st in cli_calls))
    mhr = [stats[name] for name in ("monotone.mhr_small", "monotone.mhr_large") if name in stats]
    if mhr:
        out["monotone.mhr_states"] = (sum(st.counts.get("states", 0) for st in mhr)
                                      / sum(st.calls for st in mhr))
    if "monotone.hj_bound" in stats:
        # Sweep counters are optional; without them no direction is wasted.
        counts = stats["monotone.hj_bound"].counts
        evaluated = counts.get("directions_evaluated", 0)
        tried = evaluated + counts.get("directions_skipped", 0)
        out["monotone.hj_useful_frac"] = evaluated / tried if tried else 1.0
    busy = defaultdict(float)
    for name, st in stats.items():
        busy[name.split(".", 1)[0]] += st.self_s
    for layer in spanlib.LAYERS:
        if layer in busy:
            out[f"{layer}.busy_ms"] = busy[layer] / jobs_count * 1e3
    return out


def traced_run(args, wl, src: str, out_dir: str) -> tuple[dict, dict, dict]:
    """Alternating untraced and traced cycles, then probes of every layer.

    A layer metric comes from this workload's traced cycles when its jobs
    call that layer; otherwise from one traced cycle of each other workload,
    then from the in-process CLI and ``verify`` probes.  So every per-layer
    metric is measured in every traced run.
    """
    import jobs
    import sweep

    own = spanlib.Tracer()
    result = Loop(wl).run(args.seconds, [spanlib.NullTracer(), own])
    traced_jobs = result["modes"].count(1)
    sources = [("own", own, traced_jobs)]
    result["extra_attempted"] = 0
    cli = wl
    for name, cls in jobs.WORKLOADS.items():
        if name == wl.name:
            continue
        tracer = spanlib.Tracer()
        other = cls(args.seed, tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.dirname(wl.workdir)))
        cover = Loop(other).run(0.0, [tracer])
        sources.append((name, tracer, len(cover["times"])))
        result["failures"] += cover["failures"]
        result["extra_attempted"] += len(cover["times"])
        if name == "cli-cold":
            cli = other
    probes = spanlib.Tracer()
    for _ in range(PROBE_ROUNDS):
        cli.warm_main(probes)
        with probes.span("benchmark.verify"):
            jobs.verification_report()
    sources.append(("probes", probes, PROBE_ROUNDS))

    metrics = {}
    for _name, tracer, count in reversed(sources):
        metrics.update(span_metrics(spanlib.aggregate(tracer.spans), count))
    for layer in spanlib.LAYERS:
        metrics[f"{layer}.errors"] = sum(tracer.errors[layer] for _n, tracer, _c in sources)
    untraced = untraced_times(result)
    traced_s = sum(t for t, mode in zip(result["times"], result["modes"]) if mode == 1)
    metrics["trace.overhead_frac"] = 1.0 - (traced_jobs / traced_s) / (len(untraced) / sum(untraced))
    metrics.update(sweep.startup_probes(jobs.child_env(src)))
    slopes, points = sweep.scaling_sweep(args.seed)
    metrics.update(slopes)
    if wl.name == "cli-cold":
        metrics["process.peak_rss_mb"] = sweep.cli_peak_rss_mb(
            wl.env, [wl.argv(command) for command in wl.CYCLE]
        )
    else:
        metrics["process.peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(os.path.join(out_dir, f"{wl.name}-seed{args.seed}-spans.jsonl"), "w",
              encoding="utf-8") as handle:
        for name, tracer, _count in sources:
            tracer.write(handle, name)
    return result, metrics, points


def environment(args, root: str) -> dict:
    import numpy
    import scipy

    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as handle:
                    commit = handle.read().strip()
        else:
            commit = ref
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "hrfrontier")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": blas,
        "blas_thread_pin": BLAS_PIN,
        "clients": 1,
        "loop": "closed",
    }


def report(args, result: dict, e2e: dict, metrics: dict, points: dict, env: dict) -> None:
    """The readable lines printed above the result line."""
    import sweep

    print(f"# hrfrontier benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(untraced_times(result))} untraced jobs timed, one closed-loop client")
    print("# env " + json.dumps(env, sort_keys=True))
    for label, info in per_class(result).items():
        print(f"#   class {label:<22} {info['jobs']:>6} jobs  median {info['median_ms']:.3f} ms")
    attempted = len(result["times"]) + result.get("extra_attempted", 0)
    for name, unit in END_TO_END.items():
        print(f"{name:<28} {e2e[name]:>14.6g} {unit}")
    print(f"{'fail_frac':<28} {len(result['failures']) / attempted:>14.6g} ratio")
    if args.trace:
        print("# waiting time is zero by construction: one thread, one client, closed loop")
        for name, unit in PER_LAYER.items():
            print(f"{name:<28} {metrics[name]:>14.6g} {unit}")
        for label, then, now in sweep.reanchor_rows({**metrics, **points}):
            print(f"# re-anchor {label:<34} then {then:>9.3f} ms  now {now:>9.3f} ms")
    for failure in result["failures"][:5]:
        print(f"# FAILED {failure['job']}: {failure['problems']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    root, src = checkout_paths()
    # Build: byte-compile the package so no run times bytecode compilation.
    if not compileall.compile_dir(src, quiet=1):
        fail("byte-compiling src failed")
    if args.setup_only:
        set_up(args.workload, args.seed, root, src)
        return 0

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    setup_times = time_setups(args, root)
    wl = set_up(args.workload, args.seed, root, src)
    try:
        if args.trace:
            result, metrics, points = traced_run(args, wl, src, out_dir)
            missing = [name for name in PER_LAYER if name not in metrics]
            if missing:
                fail(f"per-layer metrics not measured: {missing}")
        else:
            result = Loop(wl).run(args.seconds, [spanlib.NullTracer()])
            metrics, points = {}, {}
    finally:
        shutil.rmtree(os.path.join(root, ".bench_tmp"), ignore_errors=True)

    e2e = end_to_end(result, setup_times)
    attempted = len(result["times"]) + result.get("extra_attempted", 0)
    failed = len(result["failures"])
    env = environment(args, root)
    report(args, result, e2e, metrics, points, env)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({
            "env": env,
            "end_to_end": e2e,
            "fail_frac": failed / attempted,
            "setup_times_s": setup_times,
            "per_layer": metrics,
            "sweep_points_ms": points,
            "classes": per_class(result),
            "failures": result["failures"][:50],
        }, handle, indent=1, sort_keys=True)

    chosen = (
        {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}
        if args.trace
        else {name: (e2e[name], unit) for name, unit in END_TO_END.items()}
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
