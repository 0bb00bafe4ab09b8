#!/usr/bin/env python3
"""Referee the chart parser against the brute-force enumerator, corpus-wide.

Every permutation of each study sentence's words — parseable or not — is fed
to both the parser and the blind oracle; any disagreement is printed with the
derivations present on only one side. Exit status 1 on any mismatch, so this
can run in CI.

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

from stagmt.derive import render_derivation
from stagmt.grammar_io import load_grammar
from stagmt.morphotok import tokenize
from stagmt.oracle import OracleBound, assert_equivalence

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


def audit(name: str, words, bound: OracleBound, verbose: bool) -> int:
    grammar = load_grammar(str(GRAMMAR_FILES.get(name, name)))
    lines = [" ".join(order) + "."
             for order in sorted(set(itertools.permutations(words)))]
    mismatches = 0
    start = time.perf_counter()
    for line in lines:
        report = assert_equivalence(tokenize(line, grammar), grammar, bound)
        if verbose or not report.match:
            print(report.summary())
        if report.match:
            continue
        mismatches += 1
        for derivation in report.only_parser:
            print("  parser only:")
            for row in render_derivation(derivation, grammar).splitlines():
                print(f"    {row}")
        for derivation in report.only_oracle:
            print("  oracle only:")
            for row in render_derivation(derivation, grammar).splitlines():
                print(f"    {row}")
    elapsed = time.perf_counter() - start
    print(f"{name}: {len(lines)} orders audited, {mismatches} mismatch(es), "
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
