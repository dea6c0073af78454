"""Benchmark for droneprivacy: the ``front``, ``sweep`` and ``audit`` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload front --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each
    python3 perfbench/run.py --workload audit --smoke  # tiny sizes, a few seconds

The library is imported from ``src/`` of the checkout this file sits in;
nothing is installed.  Inputs come from ``--seed`` only.  With ``--trace 0``
the run sets up several times, then repeats passes while the next one is
expected to end within ``--seconds`` (at least one pass), each on a set-up
of its own.  Every operation is timed in every pass and rescaled by the
reference kernel of ``calibrate.py``, timed just before and after it, so
that the machine's slow spells shift the figures less; the end-to-end
metrics are built from each operation's median over the passes
(``setup_s`` from the median rescaled set-up).  The process restarts
itself once with a fixed ``PYTHONHASHSEED``.  With ``--trace 1``
it sets up once with spans, runs one untraced and one traced pass, replays
the hot paths for per-layer shares and measures the baseline rows; it
reports the per-layer metrics.

The second-to-last output line is a JSON report (provenance, every metric
with its unit, error rate, digest, failures); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Both are also written,
with the spans of a traced run, under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_REPEATS = 10  # before the first pass; every pass runs on a set-up of its own besides
IMPORT_REPEATS = 3
# String hashes, and so the layout of dicts and sets keyed by route stops, change with the hash seed;
# with a random seed per process, per-item times jumped by up to 17% between runs of the same input.
HASH_SEED = "0"

SPEC_PATH = ROOT / "BENCHMARK.json"  # metric names and units, in output order

BENCH_SPANS = ("setup", "pass", "replay", "phase.")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["front", "sweep", "audit", "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0, help="measure passes for this long (at least one)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes: checks the harness, not the speed")
    return parser.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


def git_sha() -> str | None:
    """HEAD of the repository rooted at ROOT, or None when ROOT is not a git work tree."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def cli_import_s(repeats: int = IMPORT_REPEATS) -> float:
    """Median time to start the interpreter and import the CLI module, the fixed part of ``cli_s``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import droneprivacy.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60, capture_output=True)
        times.append(perf_counter() - t0)
    return median(times)


def calibrated(passes) -> list[dict[tuple[str, int], float]]:
    """Each pass's operation times rescaled by the mean of the reference kernel's times just before
    and just after the operation."""
    from calibrate import REFERENCE_S

    scaled = []
    for p in passes:
        times = {}
        for key, seconds in p.seconds.items():
            kernel, i = p.kernel_s[key[0]], p.probe_index[key]
            times[key] = seconds * REFERENCE_S / ((kernel[i] + kernel[i + 1]) / 2)
        scaled.append(times)
    return scaled


def end_to_end(setup_times, passes, seconds) -> dict[str, float]:
    """Every operation is timed in every pass; a metric sums or ranks each operation's median pass.

    ``seconds`` holds each pass's operation times, raw or calibrated.
    """
    from workloads import percentile

    typical = {key: median([times[key] for times in seconds]) for key in seconds[0]}
    phase = {name: [t for (ph, _), t in typical.items() if ph == name] for name in ("solve", "verify", "template", "cli")}
    verify = phase["verify"]
    solve, routes = phase["solve"], passes[0].routes
    if not solve:  # audit has no solve phase: its work is the verification
        solve, routes = verify, len(verify)
    return {
        "setup_s": median(setup_times),
        "wall_s": sum(typical.values()),
        "routes_per_s": routes / sum(solve),
        "cli_s": median(phase["cli"]),
        "verify_per_s": len(verify) / sum(verify),
        "verify_p50_ms": percentile(verify, 0.50) * 1e3,
        "verify_p99_ms": percentile(verify, 0.99) * 1e3,
        "template_s": sum(phase["template"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, extra: dict[str, float]) -> dict[str, float]:
    from workloads import percentile

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    calls, busy, counts = tracer.totals("search.enumerate_routes")
    routes = counts.get("routes", 0)
    out.update({"search.enumerate_routes.routes": routes, "search.enumerate_routes.busy_s": busy,
                "search.enumerate_routes.routes_per_s": ratio(routes, busy)})
    calls, busy, counts = tracer.totals("search.pareto_front")
    out.update({"search.pareto_front.calls": calls, "search.pareto_front.busy_s": busy,
                "search.pareto_front.routes": counts.get("routes", 0),
                "search.pareto_front.front_points": counts.get("front_points", 0)})
    calls, busy, counts = tracer.totals("search.min_avg_risk_sweep")
    out.update({"search.min_avg_risk_sweep.busy_s": busy, "search.min_avg_risk_sweep.cells": counts.get("cells", 0),
                "search.min_avg_risk_sweep.routes": counts.get("routes", 0)})
    calls, busy, _ = tracer.totals("search.ParetoAccumulator.offer")
    kept = tracer.totals("replay.front")[2].get("kept", 0)
    out.update({"search.ParetoAccumulator.offer.calls": calls, "search.ParetoAccumulator.offer.busy_s": busy,
                "search.ParetoAccumulator.offer.kept_ratio": ratio(kept, calls)})
    for name in ("search.evaluate", "risk.privacy_risks", "geometry.wait_times", "model.validate_route",
                 "observer.posterior_matrix", "heuristics.instantiate_template"):
        calls, busy, _ = tracer.totals(name)
        out[f"{name}.calls"] = calls
        out[f"{name}.busy_s"] = busy
    durations = tracer.durations("observer.posterior_matrix")
    out["observer.posterior_matrix.p99_ms"] = percentile(durations, 0.99) * 1e3 if durations else 0.0
    _, busy, counts = tracer.totals("observer.enumerate_worlds")
    out["observer.enumerate_worlds.worlds"] = counts.get("worlds", 0)
    out["observer.enumerate_worlds.worlds_per_s"] = ratio(counts.get("worlds", 0), busy)
    calls, busy, counts = tracer.totals("heuristics.instantiate_template")
    out["heuristics.instantiate_template.orderings"] = counts.get("orderings", 0)
    out["heuristics.instantiate_template.orderings_per_s"] = ratio(counts.get("orderings", 0), busy)
    out["heuristics.instantiate_template.exact_ratio"] = ratio(counts.get("exact", 0), calls)
    for name in ("heuristics.closed_form_risks", "geometry.generate", "io.load_scenario", "io.write_front_csv"):
        out[f"{name}.busy_s"] = tracer.totals(name)[1]
    out["io.write_front_csv.bytes"] = tracer.totals("io.write_front_csv")[2].get("bytes", 0)
    calls, busy, _ = tracer.totals("cli.pareto")
    out["cli.pareto.wall_s"] = ratio(busy, calls)
    self_times = tracer.self_times()
    out["bench.self_s"] = sum(t for name, t in self_times.items() if name.startswith(BENCH_SPANS))
    out.update(extra)
    return out


def load_digests() -> dict:
    path = BENCH_DIR / "digests.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def run_workload(args) -> int:
    import droneprivacy

    if Path(droneprivacy.__file__).resolve().parent != SRC / "droneprivacy":
        print(f"error: imported droneprivacy from {droneprivacy.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import baselines
    from tracer import Tracer
    from workloads import FULL, SMOKE, WORKLOADS, Ledger

    declared = json.loads(SPEC_PATH.read_text())["per_layer" if args.trace else "end_to_end"]
    sizes = SMOKE if args.smoke else FULL
    mode = "smoke" if args.smoke else "full"
    outdir = BENCH_DIR / "out" / f"{args.workload}-{mode}-seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    cls = WORKLOADS[args.workload]
    off = Tracer(False)

    if args.trace:
        tracer = Tracer(True)
        workload = cls(sizes, args.seed, ROOT, outdir)
        with tracer.span("setup"):
            workload.setup(tracer)
        gc.collect()
        gc.freeze()
        untraced = workload.run_pass(off, ledger)
        with tracer.span("pass"):
            traced = workload.run_pass(tracer, ledger)
        with tracer.span("replay"):
            workload.replay(tracer, ledger)
        passes = [untraced, traced]
        extra = {name: value for name, (value, _) in baselines.measure(sizes, ledger).items()}
        extra["cli.import_s"] = cli_import_s()
        extra["trace.overhead_s"] = traced.wall_s - untraced.wall_s
        metrics = per_layer(tracer, extra)
        raw_metrics, kernel_s = None, None
        tracer.write(outdir / "trace.json")
    else:
        from calibrate import REFERENCE_S, time_kernel

        setup_times, raw_setup_times = [], []

        def set_up():
            fresh = cls(sizes, args.seed, ROOT, outdir)
            gc.collect()
            before = time_kernel()
            t0 = perf_counter()
            fresh.setup(off)
            elapsed = perf_counter() - t0
            raw_setup_times.append(elapsed)
            setup_times.append(elapsed * REFERENCE_S / ((before + time_kernel()) / 2))
            return fresh

        for _ in range(SETUP_REPEATS):
            set_up()
        passes = []
        start = perf_counter()
        # Start another pass only while it is expected to end within the measuring time.  Every pass
        # runs on a set-up of its own, so that the medians also average over where in memory the
        # inputs landed: separate set-ups of the same seed differed by up to 10% in verify p50.
        while not passes or perf_counter() - start + median([p.wall_s for p in passes]) <= args.seconds:
            gc.unfreeze()
            workload = set_up()
            gc.collect()
            gc.freeze()
            passes.append(workload.run_pass(off, ledger))
        metrics = end_to_end(setup_times, passes, calibrated(passes))
        raw_metrics = end_to_end(raw_setup_times, passes, [p.seconds for p in passes])
        kernel_s = median([t for p in passes for times in p.kernel_s.values() for t in times])

    digest = passes[0].digest
    with ledger.op("digest repeats across passes") as problems:
        if any(p.digest != digest for p in passes):
            problems.append("passes produced different outputs")
    digests = load_digests()
    expected = digests.get(mode, {}).get(args.workload) if args.seed == DEFAULT_SEED else None
    if expected is not None:
        with ledger.op("digest matches the recorded one") as problems:
            if digest != expected:
                problems.append(f"digest {digest} != recorded {expected}")

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    with ledger.op("every metric measured") as problems:
        if missing:
            problems.append(f"missing {missing}")
    result_metrics = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    report = {
        "provenance": provenance(args),
        "passes": len(passes),
        "kernel_s": kernel_s,
        "raw_metrics": raw_metrics,
        "error_rate": ledger.failed / ledger.attempted,
        "digest": digest,
        "digest_expected": expected,
        "failures": ledger.messages,
        "metrics": result_metrics,
    }
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": result_metrics,
    }
    for message in ledger.messages:
        print(f"FAILED {message}", file=sys.stderr)
    (outdir / "result.json").write_text(json.dumps({"report": report, "result": result}, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in a fresh process, so that ``peak_rss_mb`` belongs to that workload."""
    status = 0
    for name in ("front", "sweep", "audit"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:45s} {entry['value']:>16.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "droneprivacy" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print(f"error: no droneprivacy sources under {SRC} or no {SPEC_PATH.name}; run from a full checkout",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:  # restart this process with a fixed hash seed
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
