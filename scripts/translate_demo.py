#!/usr/bin/env python3
"""Walk the showcase sentences through every pipeline stage, verbosely.

Prints, for each demo sentence: the segmentation, each priority level's
derivations, the composed source tree with trace coindexation, the transfer
steps, and the realized translation. This is the narrated version of
`stagmt translate --show both --trace-transfer`.

Usage: python3 scripts/translate_demo.py [--grammar NAME ...]
"""

import argparse
import sys
from pathlib import Path

try:
    import stagmt  # noqa: F401
except ImportError:  # running from a checkout without installation
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stagmt.derive import render_derivation, render_tree
from stagmt.grammar_io import load_grammar
from stagmt.morphotok import tokenize
from stagmt.pipeline import translate_line
from stagmt.transfer import transfer_steps

DEMOS = {
    "chase": [
        "Tom-i Jerry-lul ccossnunta.",
        "Jerry-lul Tom-i ccossnunta.",
    ],
    "ditransitive": [
        "Tom-i Mary-eykey Jerry-lul cwunta.",
        "Jerry-lul Mary-eykey Tom-i cwunta.",
    ],
    "embedded": [
        "Mary-ka Tom-i Jerry-lul ccossnunta malhanta.",
        "Jerry-lul Mary-ka Tom-i ccossnunta malhanta.",
    ],
}


def show(line: str, grammar) -> None:
    print("=" * 72)
    print(f"input: {line}")
    sentence = tokenize(line, grammar)
    segmented = [f"{t.stem}+{t.particle}" if t.particle else t.stem
                 for t in sentence.tokens]
    print(f"segmented: {' '.join(segmented)}")

    result = translate_line(line, grammar, all_levels=True)
    for level in result.levels:
        print(f"\npriority level (cost {level.cost}):")
        for tree in level.trees:
            print(render_derivation(tree.derivation, grammar))
            print(f"  source: {render_tree(tree, grammar)}")

    best = result.best
    print(f"\nchosen: cost {best.cost}, pairs {', '.join(best.source.derivation.uses)}")
    for step in transfer_steps(best.source.derivation, best.transferred, grammar):
        print(f"  transfer: {step}")
    print(f"  target: {render_tree(best.target, grammar)}")
    print(f"translation: {best.surface}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grammar", action="append", choices=sorted(DEMOS),
                    help="restrict to one grammar (repeatable; default: all)")
    args = ap.parse_args()
    names = args.grammar or sorted(DEMOS)
    for name in names:
        grammar = load_grammar(name)
        for line in DEMOS[name]:
            show(line, grammar)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
