#!/usr/bin/env python3
"""Referee the chart parser against the brute-force enumerator, corpus-wide.

Every permutation of each study sentence's words — parseable or not — is fed
to both the parser and the blind oracle; any disagreement is printed with the
derivations present on only one side. So is the sentence with one particle
written as a word of its own (``Tom i Jerry-lul ccossnunta.``), once per
particle: the lexical check refuses it, so neither side may derive it,
although its lexical stream parses. Each line is checked twice: every
derivation (``all_derivations``) against the oracle's, and the cheapest
level that ``parse`` returns, the one translate uses, against the oracle's
derivations of least cost, or ``no-parse`` where the oracle finds none.
Every tree of every level that ``parse`` returns is refereed too: the
parser reads it off its instance tree without composing it, so reading its
root must compose it with every check, and composing its derivation afresh
(``build_derived_tree``) must read off the same words, joins, spans,
canonical derivation and dominance verdict. Exit status 1 on any mismatch,
so this can run in CI.

Usage: python3 scripts/oracle_audit.py [--grammar NAME ...] [--max-uses N]
"""

import argparse
import itertools
import sys
import time
from pathlib import Path

try:
    import stagmt  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stagmt.derive import (build_derived_tree, dominance_violations,
                           render_derivation)
from stagmt.errors import LexicalGapError, NoParseError, StagError
from stagmt.grammar_io import load_grammar
from stagmt.morphotok import tokenize
from stagmt.oracle import (OracleBound, assert_equivalence,
                           brute_force_derivations)
from stagmt.parser import parse

SENTENCES = {
    "chase": ("Tom-i", "Jerry-lul", "ccossnunta"),
    "ditransitive": ("Tom-i", "Mary-eykey", "Jerry-lul", "cwunta"),
    "embedded": ("Mary-ka", "Tom-i", "Jerry-lul", "ccossnunta", "malhanta"),
    "ambiguous": ("Tom-i", "Jerry-lul", "Jerry-lul", "Jerry-lul", "nayelhanta"),
}
# grammars that are not shipped with the package, by file; the benchmark's
# three-object grammar makes phase 2 group a set's instances in 3! ways
GRAMMAR_FILES = {"ambiguous": Path(__file__).resolve().parents[1] / "benchmark"
                 / "grammars" / "ambiguous.grammar"}


def show(label: str, derivations, grammar) -> None:
    for derivation in derivations:
        print(f"  {label}:")
        for row in render_derivation(derivation, grammar).splitlines():
            print(f"    {row}")


def cheapest_agrees(sentence, grammar, bound: OracleBound) -> bool:
    """Whether parse's cheapest level, or no-parse, is the oracle's
    derivations of least cost, in ranking order; each side printed if not."""
    try:
        parsed = parse(sentence, grammar)[0].derivations
    except NoParseError:
        parsed = ()
    except LexicalGapError:     # refused before either side derives it
        return True
    found = brute_force_derivations(sentence, grammar, bound)
    least = min((d.cost(grammar) for d in found), default=None)
    wanted = tuple(d for d in found if d.cost(grammar) == least)
    if parsed == wanted:
        return True
    print(f"{' '.join(sentence.lex_stream)}: cheapest level "
          f"parser={len(parsed)} oracle={len(wanted)} [DISAGREE]")
    show("parser's cheapest level", parsed, grammar)
    show("oracle's least cost", wanted, grammar)
    return False


def parsed_agree(sentence, grammar) -> bool:
    """Whether every tree of every level that parse returns composes when
    its root is read and reads off what composing its derivation does;
    each tree that does not is printed."""
    try:
        levels = parse(sentence, grammar, all_levels=True)
    except (NoParseError, LexicalGapError):
        return True
    agree = True
    for tree in (tree for level in levels for tree in level.trees):
        try:
            tree.root
            composed = build_derived_tree(tree.derivation, grammar)
        except StagError as exc:
            differ = [f"composing: {exc.code}: {exc}"]
        else:
            differ = [fact for fact in ("words", "joins", "spans", "derivation")
                      if getattr(tree, fact) != getattr(composed, fact)]
            if (dominance_violations(tree, grammar)
                    != dominance_violations(composed, grammar)):
                differ.append("dominance")
        if differ:
            agree = False
            print(f"{' '.join(sentence.lex_stream)}: parsed tree differs from "
                  f"composing in {', '.join(differ)} [DISAGREE]")
            show("parsed", (tree.derivation,), grammar)
    return agree


def audit(name: str, words, bound: OracleBound, verbose: bool) -> int:
    grammar = load_grammar(str(GRAMMAR_FILES.get(name, name)))
    lines = [" ".join(order) + "."
             for order in sorted(set(itertools.permutations(words)))]
    lines += [" ".join(words[:k] + (word.replace("-", " "),) + words[k + 1:]) + "."
              for k, word in enumerate(words) if "-" in word]
    mismatches = 0
    start = time.perf_counter()
    for line in lines:
        sentence = tokenize(line, grammar)
        report = assert_equivalence(sentence, grammar, bound)
        if verbose or not report.match:
            print(report.summary())
        if not report.match:
            mismatches += 1
            show("parser only", report.only_parser, grammar)
            show("oracle only", report.only_oracle, grammar)
        elif not (cheapest_agrees(sentence, grammar, bound)
                  and parsed_agree(sentence, grammar)):
            mismatches += 1
    elapsed = time.perf_counter() - start
    print(f"{name}: {len(lines)} lines audited, {mismatches} mismatch(es), "
          f"{elapsed:.2f}s")
    return mismatches


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grammar", action="append", choices=sorted(SENTENCES))
    ap.add_argument("--max-uses", type=int, default=12,
                    help="oracle search bound on pair uses per derivation")
    ap.add_argument("--verbose", action="store_true",
                    help="print a line per sentence, not only disagreements")
    args = ap.parse_args()
    bound = OracleBound(max_uses=args.max_uses)
    total = 0
    for name in args.grammar or sorted(SENTENCES):
        total += audit(name, SENTENCES[name], bound, args.verbose)
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
