#!/usr/bin/env python3
"""Word-order study: which permutations parse, at what cost, saying what.

For each grammar the study takes the word multiset of a reference sentence,
parses every distinct ordering, and tabulates minimal cost, scrambling-set
count, and translation. Orders are then grouped into families by the shape
of their target derivation (which argument landed in which target slot);
within a family, word order is pure scrambling, so the translation must be
constant. Closures whose words carry ambiguous case frames (two nominatives,
say) legitimately split into several families.

Usage: python3 scripts/scrambling_study.py [--grammar NAME ...] [--quiet]
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

from stagmt.errors import StagError
from stagmt.grammar_io import load_grammar
from stagmt.pipeline import translate_line

STUDIES = {
    "chase": ("Tom-i", "Jerry-lul", "ccossnunta"),
    "ditransitive": ("Tom-i", "Mary-eykey", "Jerry-lul", "cwunta"),
    "embedded": ("Mary-ka", "Tom-i", "Jerry-lul", "ccossnunta", "malhanta"),
}


def closure(words):
    return [" ".join(order) + "."
            for order in sorted(set(itertools.permutations(words)))]


def family(candidate, grammar):
    """Scrambling-invariant shape of a translation candidate.

    Serializes the target derivation with each use labelled only by its
    target tree's anchor words, so alpha and beta versions of the same
    argument collapse while different argument-to-slot assignments do not.
    """
    td = candidate.target.derivation
    children: dict[int, list] = {}
    for att in td.attachments:
        children.setdefault(att.host, []).append(att)

    def node(use: int):
        target = grammar.pair(td.uses[use]).target
        label = (target.root_cat, target.lex_words)
        below = tuple(sorted((str(a.site), node(a.use))
                             for a in children.get(use, ())))
        return (label, below)

    return node(td.root)


def study(name: str, words, quiet: bool) -> bool:
    grammar = load_grammar(name)
    orders = closure(words)
    rows = []
    start = time.perf_counter()
    for line in orders:
        try:
            result = translate_line(line, grammar)
        except StagError:
            rows.append((line, None, None, None))
            continue
        best = result.best
        n_sets = sum(1 for p in best.source.derivation.uses
                     if grammar.pair(p).source.is_multi)
        rows.append((line, best, n_sets, best.surface))
    elapsed = time.perf_counter() - start

    parsed = [r for r in rows if r[1] is not None]
    families: dict = {}
    for line, best, _, translation in parsed:
        families.setdefault(family(best, grammar), set()).add(translation)
    constant = all(len(ts) == 1 for ts in families.values())

    if not quiet:
        width = max(len(r[0]) for r in rows)
        print(f"--- {name}: {len(words)} words, {len(orders)} orders ---")
        for line, best, n_sets, translation in rows:
            if best is None:
                print(f"{line:<{width}}  -")
            else:
                print(f"{line:<{width}}  cost={best.cost} sets={n_sets}  "
                      f"{translation}")
    print(f"{name}: {len(parsed)}/{len(orders)} orders parse, "
          f"{len(families)} derivation famil{'y' if len(families) == 1 else 'ies'}, "
          f"translation constant within families: {'yes' if constant else 'NO'}, "
          f"max sets {max((r[2] for r in parsed), default=0)}, {elapsed:.2f}s")
    if not constant:
        for fam, translations in families.items():
            if len(translations) > 1:
                print(f"  VARIES: {sorted(translations)}")
    return constant


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grammar", action="append", choices=sorted(STUDIES))
    ap.add_argument("--quiet", action="store_true",
                    help="summary lines only, no per-order table")
    args = ap.parse_args()
    names = args.grammar or sorted(STUDIES)
    ok = True
    for name in names:
        ok = study(name, STUDIES[name], args.quiet) and ok
        if not args.quiet:
            print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
