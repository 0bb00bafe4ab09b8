"""One fresh process that runs a workload.

    python3 benchmark/worker.py WORKLOAD --seed N --seconds S [--trace SPANS_FILE]

It loads the workload's grammars and drives ``stagmt.pipeline.translate_line``
as ``stagmt translate`` does: one thread, one client in a closed loop, each
sentence sent when the previous one has come back, best level only. Every
outcome is checked against the workload's reference. Untraced, it prints
each pass's latencies and host-speed loop samples, and peak RSS. With
``--trace`` it alternates plain and traced passes, writes the spans to
SPANS_FILE and prints per-layer numbers and the tracing overhead. Either
way it prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from time import perf_counter

from hostspeed import HostSampler, loop_seconds
from workloads import SRC_DIR, WORKLOADS, grammar_source, load_references, pass_orders

# An untraced run collects at least this many latencies, so that ten of
# them lie beyond their p90. The reported p90 is taken per pass (README.md).
MIN_SAMPLES = 100
# Measuring never runs past this, so a run ends well inside its time limit.
MAX_MEASURE_S = 80.0
# Rounds of grammar loading timed in a traced run.
LOAD_ROUNDS = 15


def load_grammars(grammar_keys) -> dict:
    """Import stagmt from the checkout's sources and load the grammars."""
    sys.path.insert(0, str(SRC_DIR))
    import stagmt
    if not stagmt.__file__.startswith(str(SRC_DIR)):
        raise SystemExit(f"stagmt imported from {stagmt.__file__}, not {SRC_DIR}")
    return {key: stagmt.load_grammar(grammar_source(key)) for key in grammar_keys}


def outcome_of(result) -> dict:
    return {"translations": list(result.translations), "cost": result.best.cost,
            "levels": [[level.cost, len(level.derivations)] for level in result.levels],
            "error": None}


def error_outcome(code: str) -> dict:
    return {"translations": [], "cost": None, "levels": [], "error": code}


def matches(outcome: dict, expected: dict | None) -> bool:
    """Same translations, best cost and error code, and every priority level
    the result reports has its reference derivation count. A result may leave
    out levels above the best, which it never translates."""
    if expected is None:
        return False
    if any(outcome[k] != expected[k] for k in ("translations", "cost", "error")):
        return False
    reference = dict(map(tuple, expected["levels"]))
    levels = outcome["levels"]
    if expected["levels"] and (not levels or levels[0] != expected["levels"][0]):
        return False
    return all(reference.get(cost) == n for cost, n in levels)


class PassStats:
    """What one or more passes did, as the caller of translate_line sees it."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.no_parse = 0
        self.levels = 0
        self.derivations = 0
        self.candidates = 0
        self.crash_reported = False

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def counts(self) -> dict[str, int]:
        return {"parser.no_parse": self.no_parse,
                "parser.levels_built": self.levels,
                "parser.derivations_built": self.derivations,
                "pipeline.candidates": self.candidates}


def run_pass(order, grammars, references, stats: PassStats, translate,
             host: HostSampler | None = None) -> None:
    """Translate each (grammar key, line) in turn and check it; between
    sentences, let `host` time its loop."""
    from stagmt.errors import StagError

    for key, line in order:
        result = None
        start = perf_counter()
        try:
            result = translate(line, grammars[key])
            latency = perf_counter() - start
            outcome = outcome_of(result)
        except StagError as exc:
            latency = perf_counter() - start
            outcome = error_outcome(exc.code)
        except Exception as exc:  # a crash is a failed sentence, not a dead run
            latency = perf_counter() - start
            outcome = error_outcome(f"crash: {type(exc).__name__}")
            if not stats.crash_reported:
                stats.crash_reported = True
                traceback.print_exc(file=sys.stderr)
        stats.latencies.append(latency)
        if not matches(outcome, references.get((key, line))):
            stats.failed += 1
        if outcome["error"] == "no-parse":
            stats.no_parse += 1
        if result is not None:
            stats.levels += len(result.levels)
            stats.derivations += sum(len(level.derivations) for level in result.levels)
            stats.candidates += len(result.candidates)
        if host is not None:
            host.between_sentences()


def measure(workload, grammars, references, seed: int, seconds: float) -> dict:
    """Closed loop over whole passes until `seconds` and MIN_SAMPLES are met.
    A pass's wall time leaves out the host-speed loop's samples."""
    from stagmt.pipeline import translate_line

    passes = []
    attempted = 0
    orders = pass_orders(workload, seed)
    loop_seconds()  # the loop's first round runs cold; leave it out
    start = perf_counter()
    while True:
        stats, host = PassStats(), HostSampler()
        t0 = perf_counter()
        run_pass(next(orders), grammars, references, stats, translate_line, host)
        wall = perf_counter() - t0 - sum(host.samples[1:])
        passes.append({"wall_s": wall, "latencies_s": stats.latencies,
                       "failed": stats.failed, "loops_s": host.samples})
        attempted += stats.attempted
        elapsed = perf_counter() - start
        if elapsed >= MAX_MEASURE_S:
            break
        if elapsed >= seconds and attempted >= MIN_SAMPLES:
            break
    return {"passes": passes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def _peak_alloc_pass(order, grammars, references, stats: PassStats) -> float:
    """Largest tracemalloc peak of one parse call over a pass, in MB."""
    import tracemalloc

    import stagmt.pipeline

    original = stagmt.pipeline.parse
    peaks = []

    def parse_traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    stagmt.pipeline.parse = parse_traced
    try:
        run_pass(order, grammars, references, stats, stagmt.pipeline.translate_line)
    finally:
        stagmt.pipeline.parse = original
    return max(peaks) / 2**20


def measure_traced(workload, grammars, references, seed: int, seconds: float,
                   spans_path: str) -> dict:
    """Per-layer numbers from traced passes, alternating with plain passes."""
    import stagmt.grammar_io
    from stagmt.pipeline import translate_line
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    load = tracer.wrap("grammar_io.load_grammar", stagmt.grammar_io.load_grammar)
    load_rounds = []
    for _ in range(LOAD_ROUNDS):
        start = perf_counter()
        for key in workload.grammars:
            load(grammar_source(key))
        load_rounds.append(perf_counter() - start)

    def traced_translate(line, grammar):
        tracer.sentence = f"{len(traced_walls)}:{line}"
        return tracer.call("pipeline.translate_line", translate_line, line, grammar)

    orders = pass_orders(workload, seed)
    plain_walls, traced_walls, layers, counts = [], [], [], []
    plain, traced = PassStats(), PassStats()
    start = perf_counter()
    while not plain_walls or perf_counter() - start < seconds:
        order = next(orders)
        stats = PassStats()
        first = len(tracer.spans)
        # Alternate which pass of a pair goes first, so neither always
        # follows the other.
        for traced_pass in (False, True) if len(plain_walls) % 2 == 0 else (True, False):
            t0 = perf_counter()
            if traced_pass:
                with tracer.patched():
                    run_pass(order, grammars, references, stats, traced_translate)
                traced_walls.append(perf_counter() - t0)
            else:
                run_pass(order, grammars, references, plain, translate_line)
                plain_walls.append(perf_counter() - t0)
        layer = layer_metrics(tracer.spans, first, len(tracer.spans))
        layers.append(layer)
        counts.append({**stats.counts(),
                       **{k: v for k, v in layer.items() if not k.endswith("_ms")}})
        traced.latencies += stats.latencies
        traced.failed += stats.failed
        if perf_counter() - start >= MAX_MEASURE_S:
            break

    peak_alloc = _peak_alloc_pass(next(orders), grammars, references, plain)
    tracer.write(spans_path)

    metrics = {"grammar_io.load_ms": 1000.0 * statistics.median(load_rounds),
               "parser.peak_alloc_mb": peak_alloc}
    for name in layers[0]:
        if name.endswith("_ms"):
            metrics[name] = statistics.median(layer[name] for layer in layers)
    # Medians do not add up; phase 1 is what the median parse time leaves.
    metrics["parser.phase1_ms"] = metrics["parser.parse_ms"] - metrics["parser.phase2_ms"]
    metrics.update(counts[0])
    derivations = metrics["parser.derivations_built"]
    candidates = metrics["pipeline.candidates"]
    metrics["parser.kept_ratio"] = candidates / derivations if derivations else 0.0
    metrics["derive.compose_per_candidate"] = (
        metrics["derive.compose_calls"] / candidates if candidates else 0.0)
    return {"metrics": metrics,
            "counts_repeat": all(c == counts[0] for c in counts),
            "attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed,
            "passes": len(traced_walls), "spans": len(tracer.spans),
            "plain_pass_s": statistics.median(plain_walls),
            "traced_pass_s": statistics.median(traced_walls),
            "tracing_overhead": statistics.median(
                t / p for t, p in zip(traced_walls, plain_walls)) - 1.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", metavar="SPANS_FILE",
                        help="run traced and write the spans to this file")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    grammars = load_grammars(workload.grammars)
    references = load_references(workload.name)
    if args.trace:
        out = measure_traced(workload, grammars, references, args.seed,
                             args.seconds, args.trace)
    else:
        out = measure(workload, grammars, references, args.seed, args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
