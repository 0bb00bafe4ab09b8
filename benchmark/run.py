"""Benchmark entry point: set-up, end-to-end and per-layer numbers for stagmt.

    python3 benchmark/run.py --workload closures --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. With ``--trace 0`` it times set-up
in fresh processes, then runs the workload untraced in one more fresh
process and reports the end-to-end metrics, scaled to the host's usual
speed (``hostspeed.py``); with ``--trace 1`` it runs the traced worker and
reports the per-layer metrics. Every outcome is checked
against the workload's reference. The last line of stdout is the result
object; the line before it, and a file under ``benchmark/results/``, hold
the run's context (interpreter, host, seed, sample counts, tracing
overhead). See ``benchmark/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from hostspeed import speed_scale
from worker import MIN_SAMPLES
from workloads import BENCH_DIR, REPO_ROOT, SRC_DIR, WORKLOADS, grammar_source

WORKER = BENCH_DIR / "worker.py"
TIME_SETUP = BENCH_DIR / "time_setup.py"
RESULTS_DIR = BENCH_DIR / "results"
# Fresh processes timed for set-up, after one untimed one that leaves the
# bytecode cache behind, as an installed package has it.
SETUP_RUNS = 10
# Everything, set-up included, ends inside this many seconds.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(script: Path, args, deadline: float):
    """Run a benchmark script in a fresh interpreter; the JSON value on the
    last line of its stdout."""
    timeout = deadline - monotonic()
    command = " ".join([script.name, *args])
    if timeout <= 0:
        raise BenchError(f"out of time before {command} could start")
    try:
        proc = subprocess.run([sys.executable, str(script), *args], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{command} ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{command} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metrics(values: dict[str, float], kind: str) -> dict:
    """Values with the units BENCHMARK.json declares for `kind`; exactly the
    declared metrics, or the run fails."""
    doc = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in doc[kind]}
    if set(values) != set(units):
        raise BenchError(f"measured {sorted(values)}, BENCHMARK.json declares "
                         f"{sorted(units)}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    setup = [str(SRC_DIR), *map(grammar_source, workload.grammars)]
    _child(TIME_SETUP, setup, deadline)
    setups = [_child(TIME_SETUP, setup, deadline) for _ in range(SETUP_RUNS)]
    out = _child(WORKER, [workload.name, "--seed", str(args.seed),
                          "--seconds", str(args.seconds)], deadline)
    passes = out["passes"]
    attempted = sum(len(p["latencies_s"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    if attempted < MIN_SAMPLES:
        raise BenchError(f"only {attempted} latencies; the run is too short")
    # Each pass's timings are scaled to the host's usual speed (hostspeed.py).
    scales = [speed_scale(p["loops_s"]) for p in passes]
    # Each statistic is taken per pass, over identical work, then its median
    # over the passes. Pooled percentiles over a population of a few distinct
    # latencies would sit on the gap between two of them and jump across it.
    deciles = [statistics.quantiles(p["latencies_s"], n=10, method="inclusive")
               for p in passes]
    metrics = _metrics({
        "setup_s": statistics.median(s["setup_s"] * speed_scale(s["loops_s"])
                                     for s in setups),
        "sentences_per_s": statistics.median(
            (len(p["latencies_s"]) - p["failed"]) / (p["wall_s"] * k)
            for p, k in zip(passes, scales)),
        "latency_p50_ms": 1000.0 * statistics.median(
            d[4] * k for d, k in zip(deciles, scales)),
        "latency_p90_ms": 1000.0 * statistics.median(
            d[8] * k for d, k in zip(deciles, scales)),
        "peak_rss_mb": out["peak_rss_mb"],
    }, "end_to_end")
    context = {"samples": {"setup": len(setups), "latency": attempted,
                           "passes": len(passes)},
               "measured_s": sum(p["wall_s"] for p in passes),
               "host_speed": statistics.median(scales),
               "unscaled": {
                   "setup_s": statistics.median(s["setup_s"] for s in setups),
                   "sentences_per_s": statistics.median(
                       (len(p["latencies_s"]) - p["failed"]) / p["wall_s"] for p in passes),
                   "latency_p50_ms": 1000.0 * statistics.median(d[4] for d in deciles),
                   "latency_p90_ms": 1000.0 * statistics.median(d[8] for d in deciles)},
               "tracing_overhead": None,
               "attempted": attempted, "failed": failed}
    return metrics, context


def per_layer(args, deadline: float, spans_path: Path) -> tuple[dict, dict]:
    out = _child(WORKER, [args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(spans_path)],
                 deadline)
    if not out["counts_repeat"]:
        raise BenchError("per-layer counts differ between passes of one run")
    metrics = _metrics(out["metrics"], "per_layer")
    context = {"samples": {"traced_passes": out["passes"], "spans": out["spans"],
                           "sentences": out["attempted"]},
               "plain_pass_s": out["plain_pass_s"],
               "traced_pass_s": out["traced_pass_s"],
               "tracing_overhead": out["tracing_overhead"],
               "spans_file": str(spans_path.relative_to(REPO_ROOT)),
               "attempted": out["attempted"], "failed": out["failed"]}
    return metrics, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    if not (SRC_DIR / "stagmt" / "__init__.py").is_file():
        print(f"error: no stagmt sources under {SRC_DIR}; run from a source checkout",
              file=sys.stderr)
        return 2
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, context = per_layer(args, deadline, RESULTS_DIR / f"{stem}.spans.jsonl")
        else:
            metrics, context = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = context.pop("attempted"), context.pop("failed")
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": platform.node(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "failed_share": failed / attempted, **context}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (RESULTS_DIR / f"{stem}.json").write_text(
        json.dumps({"context": context, **result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
