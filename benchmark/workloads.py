"""Benchmark workloads: fixed sentence populations and their references.

A workload is a population of (grammar, sentence) inputs. The population is
fixed; the seed only decides the order in which each pass visits it, so
every pass does the same work and per-layer counts repeat exactly.

This module does not import stagmt: the worker times a fresh-process import
of the package, and nothing may import it before that clock starts.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "references"

# Grammar keys are builtin grammar names, or files owned by the benchmark.
GRAMMAR_FILES = {"ambiguous": BENCH_DIR / "grammars" / "ambiguous.grammar"}

# The closures population is the regression corpus of the test suite,
# copied here so the benchmark does not depend on test helpers.
CHASE_WORDS = ("Tom-i", "Jerry-lul", "ccossnunta")
CHASE_WORDS_SWAPPED = ("Jerry-ka", "Tom-ul", "ccossnunta")
DITRANS_WORDS = ("Tom-i", "Mary-eykey", "Jerry-lul", "cwunta")
EMBEDDED_WORDS = ("Mary-ka", "Tom-i", "Jerry-lul", "ccossnunta", "malhanta")
CHASE_NEGATIVES = (
    "Tom-i Jerry-ka ccossnunta.",
    "Tom-ul Jerry-lul ccossnunta.",
    "Tom-i ccossnunta.",
    "Jerry-lul ccossnunta.",
    "ccossnunta.",
    "Tom-i Jerry-lul Tom-ul ccossnunta.",
)
DITRANS_NEGATIVES = (
    "Tom-i Jerry-lul cwunta.",
    "Tom-i Mary-eykey cwunta.",
    "Tom-i Mary-eykey Jerry-lul Tom-i cwunta.",
)
EMBEDDED_NEGATIVES = (
    "Mary-ka ccossnunta malhanta.",
    "Mary-ka Tom-i Jerry-lul malhanta.",
    "Tom-i Jerry-lul ccossnunta malhanta.",
)
CHASE_GLUED = (
    "Tomi Jerrylul ccossnunta.",
    "Jerrylul Tomi ccossnunta.",
)

# Depths 8 (about 0.9 s) and 10 (about 2.7 s) are left out: a run needs 100
# latencies for p90, and with depth 8 collecting them alone takes about 40 s
# on a fast machine and 60 s on a slow one.
CHAIN_DEPTHS = tuple(range(1, 8))

AMBIGUOUS_WORDS = ("Tom-i", "Jerry-lul", "Jerry-lul", "Jerry-lul", "nayelhanta")


def permutation_closure(words) -> tuple[str, ...]:
    return tuple(" ".join(order) + "."
                 for order in sorted(set(itertools.permutations(words))))


def chain_sentence(depth: int) -> str:
    """Object fronted over `depth` embedding verbs."""
    return ("Jerry-lul " + "Mary-ka " * depth + "Tom-i ccossnunta"
            + " malhanta" * depth + ".")


def chain_translation(depth: int) -> str:
    return "Mary says " * depth + "Tom chases Jerry."


@dataclass(frozen=True)
class Workload:
    name: str
    grammars: tuple[str, ...]
    population: tuple[tuple[str, str], ...]  # (grammar key, sentence)


def _closures() -> Workload:
    population = (
        [("chase", s) for s in permutation_closure(CHASE_WORDS)
         + permutation_closure(CHASE_WORDS_SWAPPED)
         + CHASE_NEGATIVES + CHASE_GLUED]
        + [("ditransitive", s) for s in permutation_closure(DITRANS_WORDS)
           + DITRANS_NEGATIVES]
        + [("embedded", s) for s in permutation_closure(EMBEDDED_WORDS)
           + EMBEDDED_NEGATIVES])
    return Workload("closures", ("chase", "ditransitive", "embedded"),
                    tuple(population))


def _deep_chain() -> Workload:
    return Workload("deep_chain", ("embedded",),
                    tuple(("embedded", chain_sentence(d)) for d in CHAIN_DEPTHS))


def _ambiguous() -> Workload:
    return Workload("ambiguous", ("ambiguous",),
                    tuple(("ambiguous", s)
                          for s in permutation_closure(AMBIGUOUS_WORDS)))


WORKLOADS = {w.name: w for w in (_closures(), _deep_chain(), _ambiguous())}


def grammar_source(key: str) -> str:
    """What load_grammar is given for a grammar key."""
    path = GRAMMAR_FILES.get(key)
    return key if path is None else str(path)


def pass_orders(workload: Workload, seed: int):
    """Endless sequence of passes, each the whole population in seeded order."""
    rng = random.Random(seed)
    while True:
        order = list(workload.population)
        rng.shuffle(order)
        yield order


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_references(name: str) -> dict[tuple[str, str], dict]:
    """Expected outcome per (grammar key, sentence) of a workload."""
    doc = json.loads(reference_path(name).read_text(encoding="utf-8"))
    return {(e["grammar"], e["line"]): e["expect"] for e in doc["entries"]}
