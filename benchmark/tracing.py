"""Spans around the calls between stagmt's modules, recorded from outside.

A span wraps one call into a public function at the module attribute the
caller looks up: ``stagmt.parser.build_derived_tree`` (the parser composing
a grouping) is a different span from ``stagmt.pipeline.build_derived_tree``
(the pipeline composing a candidate for rendering), and
``stagmt.derive.build_derived_tree`` catches the composition that
``canonicalize`` does internally. Spans live in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

# (module, attribute) pairs wrapped while tracing; the span name is the
# module's short name plus the attribute.
PATCH_POINTS = (
    ("stagmt.pipeline", "tokenize"),
    ("stagmt.pipeline", "parse"),
    ("stagmt.parser", "build_derived_tree"),
    ("stagmt.parser", "dominance_violations"),
    ("stagmt.parser", "canonicalize"),
    ("stagmt.derive", "build_derived_tree"),
    ("stagmt.pipeline", "transfer_derivation"),
    ("stagmt.pipeline", "realize"),
    ("stagmt.pipeline", "yield_surface"),
    ("stagmt.pipeline", "build_derived_tree"),
    ("stagmt.pipeline", "render_tree"),
)

# Span record fields, kept as lists for speed.
NAME, SENTENCE, PARENT, START, END, SIZE = range(6)

COMPOSE_SPANS = ("parser.build_derived_tree", "derive.build_derived_tree",
                 "pipeline.build_derived_tree")


class Tracer:
    """Records spans: name, sentence id, parent span, start, end, and the
    length of the call's result where it has one (tokens of a tokenized
    sentence, violations found by a dominance check)."""

    def __init__(self):
        self.spans: list[list] = []
        self.sentence: str | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, self.sentence, parent, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(index)
        span[START] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            self._stack.pop()
        if hasattr(out, "__len__"):
            span[SIZE] = len(out)
        return out

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextmanager
    def patched(self):
        """Route every patch point through this tracer for the block."""
        saved = []
        try:
            for module_name, attr in PATCH_POINTS:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                short = module_name.rpartition(".")[2]
                setattr(module, attr, self.wrap(f"{short}.{attr}", original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        keys = ("name", "sentence", "parent", "start", "end", "size")
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                record = dict(zip(keys, span))
                record["id"] = index
                out.write(json.dumps(record) + "\n")


def layer_metrics(spans: list[list], first: int, last: int) -> dict[str, float]:
    """Per-layer milliseconds and counts over spans[first:last] (one pass)."""
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    child_time: dict[int, float] = {}
    parse_ids = set()
    for index in range(first, last):
        span = spans[index]
        name = span[NAME]
        duration = span[END] - span[START]
        total[name] = total.get(name, 0.0) + duration
        count[name] = count.get(name, 0) + 1
        if span[PARENT] >= 0:
            child_time[span[PARENT]] = child_time.get(span[PARENT], 0.0) + duration
        if name == "pipeline.parse":
            parse_ids.add(index)

    pipeline_self = sum(
        spans[i][END] - spans[i][START] - child_time.get(i, 0.0)
        for i in range(first, last) if spans[i][NAME] == "pipeline.translate_line")
    phase2 = sum(child_time.get(i, 0.0) for i in parse_ids)
    rejects = sum(1 for i in range(first, last)
                  if spans[i][NAME] == "parser.dominance_violations" and spans[i][SIZE])
    tokens = sum(spans[i][SIZE] or 0 for i in range(first, last)
                 if spans[i][NAME] == "pipeline.tokenize")

    def ms(name):
        return 1000.0 * total.get(name, 0.0)

    return {
        "morphotok.tokenize_ms": ms("pipeline.tokenize"),
        "morphotok.tokens": tokens,
        "parser.parse_ms": ms("pipeline.parse"),
        "parser.phase1_ms": ms("pipeline.parse") - 1000.0 * phase2,
        "parser.phase2_ms": 1000.0 * phase2,
        "parser.compositions": count.get("parser.build_derived_tree", 0),
        "parser.dominance_rejects": rejects,
        "derive.compose_calls": sum(count.get(n, 0) for n in COMPOSE_SPANS),
        "derive.compose_ms": sum(ms(n) for n in COMPOSE_SPANS),
        "derive.canonicalize_ms": ms("parser.canonicalize"),
        "transfer.transfer_ms": ms("pipeline.transfer_derivation"),
        "generator.realize_ms": ms("pipeline.realize"),
        "generator.yield_ms": ms("pipeline.yield_surface"),
        "pipeline.render_ms": ms("pipeline.render_tree"),
        "pipeline.self_ms": 1000.0 * pipeline_self,
    }
