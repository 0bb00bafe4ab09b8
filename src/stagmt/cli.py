"""Command-line front end.

Subcommands:
  translate     source sentences in, target sentences out
  parse         show source derivations and derived trees
  check         validate a grammar file
  permutations  try every reordering of a sentence's words

Exit status: 0 on success, 1 when an input failed to process (no parse,
unknown word, untranslatable derivation), 2 for unusable invocations or
grammars. With --format json, one JSON object is printed per input line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .derive import render_derivation, render_tree
from .errors import (GrammarError, GrammarValidationError, LimitExceededError,
                     StagError)
from .grammar_io import builtin_grammar_names, load_grammar
from .model import Grammar
from .morphotok import tokenize
from .parser import parse
from .pipeline import translate_line
from .transfer import transfer_steps

# 8! = 40,320 orders; every order is parsed, and all are enumerated first
MAX_PERMUTED_WORDS = 8


def _load(args) -> Grammar:
    try:
        return load_grammar(args.grammar)
    except OSError as exc:
        raise SystemExit(f"error: {exc}")
    except GrammarError as exc:
        raise SystemExit(f"error: unusable grammar: {exc}")


def _input_lines(args) -> list[tuple[int, str]]:
    """Numbered nonblank input lines, from argv words or stdin."""
    if args.sentence:
        return [(1, " ".join(args.sentence))]
    return [(n, line) for n, line in enumerate((l.strip() for l in sys.stdin), 1)
            if line]


def _emit_json(obj) -> None:
    print(json.dumps(obj, ensure_ascii=False, sort_keys=True))


def _report(args, lineno: int, line: str, exc: StagError, **fields) -> None:
    """Report a failed input line on stderr and, with --format json, as an
    error object holding fields besides the error's."""
    print(f"line {lineno}: {exc.code}: {exc}", file=sys.stderr)
    if args.format == "json":
        _emit_json({"input": line, "line": lineno, "error": exc.code,
                    "message": str(exc), **fields})


def cmd_translate(args) -> int:
    grammar = _load(args)
    status = 0
    for lineno, line in _input_lines(args):
        try:
            result = translate_line(line, grammar, all_levels=args.all_derivations)
        except StagError as exc:
            status = 1
            _report(args, lineno, line, exc, translation="ERROR")
            if args.format != "json":
                print("ERROR")
            continue

        if args.format == "json":
            _emit_json({
                "input": line,
                "translation": result.best.surface,
                "candidates": [{
                    "cost": c.cost,
                    "pairs": list(c.source.derivation.uses),
                    "translation": c.surface,
                    "source_tree": render_tree(c.source, grammar),
                    "target_tree": render_tree(c.target, grammar),
                    "derivation": render_derivation(c.source.derivation,
                                                    grammar).split("\n"),
                    "transfer": transfer_steps(c.source.derivation,
                                               c.target.derivation, grammar),
                } for c in result.candidates],
            })
            continue

        print(result.best.surface)
        if args.show in ("derivation", "both") or args.trace_transfer:
            for candidate in result.candidates:
                print(f"# cost {candidate.cost}")
                print(render_derivation(candidate.source.derivation, grammar))
                if args.trace_transfer:
                    for step in transfer_steps(candidate.source.derivation,
                                               candidate.target.derivation, grammar):
                        print(f"  {step}")
        if args.show in ("derived", "both"):
            for candidate in result.candidates:
                print(f"source: {render_tree(candidate.source, grammar)}")
                print(f"target: {render_tree(candidate.target, grammar)}")
    return status


def cmd_parse(args) -> int:
    grammar = _load(args)
    status = 0
    for lineno, line in _input_lines(args):
        try:
            sentence = tokenize(line, grammar)
            levels = parse(sentence, grammar, all_levels=args.all_derivations)
        except StagError as exc:
            status = 1
            _report(args, lineno, line, exc)
            continue
        if args.format == "json":
            _emit_json({
                "input": line,
                "levels": [{
                    "cost": level.cost,
                    "derivations": [{
                        "pairs": list(tree.derivation.uses),
                        "derivation": render_derivation(tree.derivation,
                                                        grammar).split("\n"),
                        "tree": render_tree(tree, grammar),
                    } for tree in level.trees],
                } for level in levels],
            })
            continue
        for level in levels:
            print(f"cost {level.cost}: {len(level.trees)} derivation(s)")
            for tree in level.trees:
                if args.show in ("derivation", "both"):
                    print(render_derivation(tree.derivation, grammar))
                if args.show in ("derived", "both"):
                    print(render_tree(tree, grammar))
    return status


def cmd_check(args) -> int:
    try:
        grammar = load_grammar(args.grammar)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GrammarValidationError as exc:
        for diagnostic in exc.diagnostics:
            print(str(diagnostic))
        print(f"invalid: {len(exc.diagnostics)} problem(s)")
        return 1
    except GrammarError as exc:
        print(f"error: {exc} [{exc.code}]", file=sys.stderr)
        return 1
    print(f"OK, {len(grammar.pairs)} pairs")
    return 0


def cmd_permutations(args) -> int:
    grammar = _load(args)
    status = 0
    for lineno, line in _input_lines(args):
        try:
            sentence = tokenize(line, grammar)
            surfaces = [token.surface for token in sentence.tokens]
            if len(surfaces) > MAX_PERMUTED_WORDS:
                raise LimitExceededError(
                    f"{len(surfaces)} words have too many orders to try; "
                    f"the limit is {MAX_PERMUTED_WORDS}")
        except StagError as exc:
            status = 1
            _report(args, lineno, line, exc)
            continue
        ok = 0
        orders = sorted(set(itertools.permutations(surfaces)))
        rows = []
        for order in orders:
            candidate = " ".join(order) + sentence.terminator
            try:
                result = translate_line(candidate, grammar)
                rows.append((candidate, result.best.cost, result.best.surface))
                ok += 1
            except StagError:
                rows.append((candidate, None, None))
        if args.format == "json":
            _emit_json({
                "input": line,
                "parsed": ok,
                "total": len(orders),
                "orders": [{"sentence": s, "parses": c is not None, "cost": c,
                            "translation": t} for s, c, t in rows],
            })
        else:
            width = max(len(s) for s, _, _ in rows)
            for candidate, cost, translation in rows:
                parses = "yes" if translation is not None else "no"
                cost_cell = "-" if cost is None else str(cost)
                print(f"{candidate:<{width}} | {parses:<3} | {cost_cell:>4} | "
                      f"{translation if translation is not None else '-'}")
            print(f"{ok}/{len(orders)} orders parse")
    return status


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="stagmt",
        description="Synchronous tree-adjoining transfer translation.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, sentences=True):
        p.add_argument("-g", "--grammar", required=True,
                       help="grammar file path, or builtin name: "
                            + ", ".join(builtin_grammar_names()))
        if sentences:
            p.add_argument("--format", choices=("text", "json"), default="text")
            p.add_argument("sentence", nargs="*",
                           help="input words (reads stdin when omitted)")

    p = sub.add_parser("translate", help="translate sentences")
    common(p)
    p.add_argument("--all-derivations", action="store_true",
                   help="carry every priority level through, not just the best")
    p.add_argument("--show", choices=("translation", "derivation", "derived", "both"),
                   default="translation",
                   help="extra detail after each translation line")
    p.add_argument("--trace-transfer", action="store_true",
                   help="print each resolved source-to-target correspondence")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("parse", help="show source derivations")
    common(p)
    p.add_argument("--all-derivations", action="store_true")
    p.add_argument("--show", choices=("derivation", "derived", "both"),
                   default="both")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("check", help="validate a grammar file")
    common(p, sentences=False)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("permutations",
                       help="parse every reordering of the given words")
    common(p)
    p.set_defaults(fn=cmd_permutations)

    return top


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    except StagError as exc:
        print(f"error: {exc} [{exc.code}]", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
