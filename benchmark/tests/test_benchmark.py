"""Tests of the benchmark itself: inputs, references, checking and counts.

    PYTHONPATH=src python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import make_references  # noqa: E402
import worker  # noqa: E402
from workloads import (  # noqa: E402
    GRAMMAR_FILES,
    WORKLOADS,
    load_references,
    pass_orders,
    reference_path,
)


def _grammars(workload):
    return worker.load_grammars(workload.grammars)


def _passes(name, seed, n=3):
    orders = pass_orders(WORKLOADS[name], seed)
    return [next(orders) for _ in range(n)]


def test_same_seed_gives_same_inputs():
    for name in WORKLOADS:
        assert _passes(name, 11) == _passes(name, 11)
    assert _passes("closures", 11) != _passes("closures", 12)


def test_every_pass_is_the_whole_population():
    for name, workload in WORKLOADS.items():
        for order in _passes(name, 5):
            assert Counter(order) == Counter(workload.population)


def test_population_sizes():
    assert len(WORKLOADS["closures"].population) == 170
    assert len(WORKLOADS["deep_chain"].population) == 7
    assert len(WORKLOADS["ambiguous"].population) == 20
    for workload in WORKLOADS.values():
        assert len(set(workload.population)) == len(workload.population)


def test_closures_are_the_regression_corpus():
    sys.path.insert(0, str(BENCH_DIR.parent / "tests"))
    try:
        import support
    finally:
        sys.path.pop(0)
    expected = [(g, line) for g in ("chase", "ditransitive", "embedded")
                for line in support.corpus(g)]
    assert list(WORKLOADS["closures"].population) == expected


def test_each_reference_file_covers_its_population():
    for name, workload in WORKLOADS.items():
        assert set(load_references(name)) == set(workload.population), name


def test_references_are_reproducible_without_the_parser():
    docs = make_references.build_references()
    for name, doc in docs.items():
        assert make_references.render(doc) == reference_path(name).read_text(
            encoding="utf-8"), name


def test_ambiguous_grammar_passes_check(capsys):
    from stagmt.cli import main

    assert main(["check", "-g", str(GRAMMAR_FILES["ambiguous"])]) == 0
    assert capsys.readouterr().out.startswith("OK, 9 pairs")


def test_a_wrong_reference_entry_counts_as_failed():
    workload = WORKLOADS["ambiguous"]
    grammars = _grammars(workload)
    references = load_references("ambiguous")
    from stagmt.pipeline import translate_line

    clean = worker.PassStats()
    worker.run_pass(workload.population, grammars, references, clean, translate_line)
    assert (clean.attempted, clean.failed) == (20, 0)

    key = next(k for k, e in references.items() if e["error"] is None)
    references[key] = dict(references[key], translations=["Tom lists Jerry."])
    wrong = worker.PassStats()
    worker.run_pass(workload.population, grammars, references, wrong, translate_line)
    assert (wrong.attempted, wrong.failed) == (20, 1)


def test_outcome_may_leave_out_levels_above_the_best():
    expected = {"translations": ["T."], "cost": 1, "levels": [[1, 3], [2, 6]],
                "error": None}
    assert worker.matches(dict(expected), expected)
    assert worker.matches(dict(expected, levels=[[1, 3]]), expected)
    assert not worker.matches(dict(expected, levels=[[2, 6]]), expected)
    assert not worker.matches(dict(expected, levels=[[1, 3], [2, 5]]), expected)
    assert not worker.matches(dict(expected, cost=2), expected)
    assert not worker.matches(worker.error_outcome("no-parse"), expected)
    assert not worker.matches(dict(expected), None)


def test_per_layer_counts_repeat_across_runs(tmp_path):
    workload = WORKLOADS["ambiguous"]
    grammars = _grammars(workload)
    references = load_references("ambiguous")
    runs = [worker.measure_traced(workload, grammars, references, seed, 0.0,
                                  str(tmp_path / f"{seed}.spans.jsonl"))
            for seed in (1, 2)]
    for run in runs:
        assert run["counts_repeat"] and run["failed"] == 0
    assert (tmp_path / "1.spans.jsonl").read_text(encoding="utf-8").count("\n") == runs[0]["spans"]
    counts = [{k: v for k, v in run["metrics"].items()
               if not k.endswith(("_ms", "_mb"))} for run in runs]
    assert counts[0] == counts[1]
    assert counts[0]["parser.derivations_built"] == 65
    assert counts[0]["pipeline.candidates"] == 16


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "ambiguous",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_setup_is_timed_in_a_fresh_process():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "time_setup.py"), str(BENCH_DIR.parent / "src"),
         "chase", str(GRAMMAR_FILES["ambiguous"])],
        capture_output=True, text=True, timeout=60, check=True)
    out = json.loads(proc.stdout)
    assert out["setup_s"] > 0
    assert len(out["loops_s"]) == 5 and min(out["loops_s"]) > 0
