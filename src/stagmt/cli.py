"""Command-line front end.

Subcommands:
  translate     source sentences in, target sentences out
  parse         show source derivations and derived trees
  check         validate a grammar file
  permutations  try every reordering of a sentence's words

Exit status: 0 on success, 1 when an input failed to process (no parse,
unknown word, untranslatable derivation), 2 for unusable invocations or
grammars. With --format json, one JSON object is printed per input line.
In a permutations table an order that has no parse or an unknown stem is
"no"; any other error fails the whole input line. Each order that parses is
numbered by its family, in order of first appearance: the orders whose best
translations share a target derivation up to use numbering and pair names
(``transfer.target_key``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .derive import render_derivation, render_tree
from .errors import (GrammarError, GrammarValidationError, LexicalGapError,
                     LimitExceededError, NoParseError, StagError)
from .grammar_io import builtin_grammar_names, load_grammar
from .morphotok import tokenize
from .parser import parse
from .pipeline import translate_line
from .transfer import target_key, transfer_steps

# 8! = 40,320 orders; every order is parsed, and all are enumerated first
MAX_PERMUTED_WORDS = 8


def _input_lines(args) -> list[tuple[int, str]]:
    """Numbered nonblank input lines, from argv words or stdin."""
    if args.sentence:
        return [(1, " ".join(args.sentence))]
    return [(n, line) for n, line in enumerate((l.strip() for l in sys.stdin), 1)
            if line]


def _emit_json(obj) -> None:
    print(json.dumps(obj, ensure_ascii=False, sort_keys=True))


def _run_lines(args, work) -> int:
    """Load the grammar, then call work(line, grammar) on each numbered
    nonblank input line. A line whose work raises a StagError is reported on
    stderr and, with --format json, as an error object (translate also marks
    it ERROR on stdout), and the batch goes on. Returns the exit status."""
    try:
        grammar = load_grammar(args.grammar)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GrammarError as exc:
        print(f"error: unusable grammar: {exc}", file=sys.stderr)
        return 2
    status = 0
    for lineno, line in _input_lines(args):
        try:
            work(line, grammar)
        except StagError as exc:
            status = 1
            print(f"line {lineno}: {exc.code}: {exc}", file=sys.stderr)
            failed = {"translation": "ERROR"} if args.command == "translate" else {}
            if args.format == "json":
                _emit_json({"input": line, "line": lineno, "error": exc.code,
                            "message": str(exc), **failed})
            elif failed:
                print("ERROR")
    return status


def cmd_translate(args) -> int:
    def work(line, grammar):
        result = translate_line(line, grammar, all_levels=args.all_derivations)
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
                    "transfer": transfer_steps(c.source.derivation, c.transferred,
                                               grammar),
                } for c in result.candidates],
            })
            return
        out = [result.best.surface]
        if args.show in ("derivation", "both") or args.trace_transfer:
            for candidate in result.candidates:
                out.append(f"# cost {candidate.cost}")
                out.append(render_derivation(candidate.source.derivation, grammar))
                if args.trace_transfer:
                    out.extend(f"  {step}" for step in transfer_steps(
                        candidate.source.derivation, candidate.transferred, grammar))
        if args.show in ("derived", "both"):
            for candidate in result.candidates:
                out.append(f"source: {render_tree(candidate.source, grammar)}")
                out.append(f"target: {render_tree(candidate.target, grammar)}")
        print("\n".join(out))
    return _run_lines(args, work)


def cmd_parse(args) -> int:
    def work(line, grammar):
        levels = parse(tokenize(line, grammar), grammar,
                       all_levels=args.all_derivations)
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
            return
        out = []
        for level in levels:
            out.append(f"cost {level.cost}: {len(level.trees)} derivation(s)")
            for tree in level.trees:
                if args.show in ("derivation", "both"):
                    out.append(render_derivation(tree.derivation, grammar))
                if args.show in ("derived", "both"):
                    out.append(render_tree(tree, grammar))
        print("\n".join(out))
    return _run_lines(args, work)


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
    def work(line, grammar):
        sentence = tokenize(line, grammar)
        if len(sentence) > MAX_PERMUTED_WORDS:
            raise LimitExceededError(
                f"{len(sentence)} words have too many orders to try; "
                f"the limit is {MAX_PERMUTED_WORDS}")
        rows = []  # (order, cost, family, translation); None when it does not parse
        families: dict[tuple, int] = {}
        for order in sorted(set(itertools.permutations(
                token.surface for token in sentence.tokens))):
            candidate = " ".join(order) + sentence.terminator
            try:
                best = translate_line(candidate, grammar).best
            except (NoParseError, LexicalGapError):
                rows.append((candidate, None, None, None))
                continue
            key = target_key(best.target, grammar)
            rows.append((candidate, best.cost,
                         families.setdefault(key, len(families) + 1), best.surface))
        ok = sum(cost is not None for _, cost, _, _ in rows)
        if args.format == "json":
            _emit_json({
                "input": line,
                "parsed": ok,
                "total": len(rows),
                "families": len(families),
                "orders": [{"sentence": s, "parses": c is not None, "cost": c,
                            "family": f, "translation": t} for s, c, f, t in rows],
            })
            return
        width = max(len(s) for s, _, _, _ in rows)
        for candidate, cost, family, translation in rows:
            parses = "yes" if cost is not None else "no"
            cost_cell = "-" if cost is None else str(cost)
            family_cell = "-" if family is None else f"f{family}"
            print(f"{candidate:<{width}} | {parses:<3} | {cost_cell:>4} | "
                  f"{family_cell:<2} | {translation or '-'}")
        n = len(families)
        print(f"{ok}/{len(rows)} orders parse, {n} famil{'y' if n == 1 else 'ies'}")
    return _run_lines(args, work)


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
    except StagError as exc:
        print(f"error: {exc} [{exc.code}]", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
