"""Write the reference outcome of every benchmark input, without the parser.

    python3 benchmark/make_references.py           # rewrite references/*.json
    python3 benchmark/make_references.py --check   # exit 1 if they are stale

Sources, per workload:

- deep_chain: the formula ("Mary says " * d) + "Tom chases Jerry.", cost 1,
  one derivation on one level.
- closures: the facts the acceptance gate pins (2 of 6 transitive and 6 of
  24 ditransitive orders parse, every parse translates to its multiset's
  sentence, negatives do not parse), cross-checked against the brute-force
  oracle, which also gives the derivation count of every priority level.
- ambiguous: the brute-force oracle.

The oracle's default use bound (12) is below the embedded closure's needs
once scrambling sets are counted, so a bound of 20 is used throughout.
Translations of oracle derivations go through transfer and realization;
the parser under test is never called.
"""

from __future__ import annotations

import argparse
import json
import sys

from workloads import (
    AMBIGUOUS_WORDS,
    CHAIN_DEPTHS,
    CHASE_GLUED,
    CHASE_WORDS,
    CHASE_WORDS_SWAPPED,
    DITRANS_WORDS,
    EMBEDDED_WORDS,
    SRC_DIR,
    WORKLOADS,
    chain_sentence,
    chain_translation,
    grammar_source,
    permutation_closure,
    reference_path,
)

ORACLE_USES = 20

# Translations an order that parses may have, per closure multiset. The two
# nominatives of the embedded closure can each be the matrix subject.
CLOSURE_TRANSLATIONS = {
    CHASE_WORDS: {"Tom chases Jerry."},
    CHASE_WORDS_SWAPPED: {"Jerry chases Tom."},
    DITRANS_WORDS: {"Tom gives Jerry to Mary."},
    EMBEDDED_WORDS: {"Mary says Tom chases Jerry.", "Tom says Mary chases Jerry."},
    AMBIGUOUS_WORDS: {"Tom lists Jerry Jerry Jerry."},
}
# Parsing orders per closure, as pinned by the acceptance gate.
PINNED_PARSES = {CHASE_WORDS: 2, DITRANS_WORDS: 6}


class ReferenceMismatch(Exception):
    """The oracle disagrees with a pinned fact."""


def _expect_error(code: str) -> dict:
    return {"translations": [], "cost": None, "levels": [], "error": code}


def _expect(translations, levels) -> dict:
    return {"translations": list(translations), "cost": levels[0][0],
            "levels": [list(level) for level in levels], "error": None}


def oracle_outcome(line: str, grammar) -> dict:
    """Outcome of one input as the oracle, transfer and realization see it."""
    from stagmt.errors import TokenizationError
    from stagmt.generator import realize, yield_surface
    from stagmt.morphotok import tokenize
    from stagmt.oracle import OracleBound, brute_force_derivations
    from stagmt.transfer import transfer_derivation

    try:
        sentence = tokenize(line, grammar)
    except TokenizationError as exc:
        return _expect_error(exc.code)
    for word in sentence.lex_stream:
        if word not in grammar.anchor_index and word not in grammar.particle_map:
            raise ReferenceMismatch(f"{line!r}: {word!r} is a lexical gap")
    derivations = brute_force_derivations(
        sentence, grammar, OracleBound(max_uses=ORACLE_USES))
    if not derivations:
        return _expect_error("no-parse")
    by_cost: dict[int, int] = {}
    for derivation in derivations:
        cost = derivation.cost(grammar)
        by_cost[cost] = by_cost.get(cost, 0) + 1
    levels = sorted(by_cost.items())
    best = levels[0][0]
    translations: list[str] = []
    for derivation in derivations:
        if derivation.cost(grammar) != best:
            continue
        tree = realize(transfer_derivation(derivation, grammar), grammar)
        surface = yield_surface(tree, sentence.terminator)
        if surface not in translations:
            translations.append(surface)
    return _expect(translations, levels)


def _check_closures(outcomes: dict[tuple[str, str], dict]) -> None:
    """Hold the oracle's closure outcomes to the pinned facts."""
    closures = {
        ("chase", CHASE_WORDS), ("chase", CHASE_WORDS_SWAPPED),
        ("ditransitive", DITRANS_WORDS), ("embedded", EMBEDDED_WORDS),
        ("ambiguous", AMBIGUOUS_WORDS)}
    covered = set()
    for key, words in closures:
        lines = permutation_closure(words)
        parsed = [line for line in lines if outcomes[(key, line)]["error"] is None]
        pinned = PINNED_PARSES.get(words)
        if pinned is not None and len(parsed) != pinned:
            raise ReferenceMismatch(
                f"{' '.join(words)}: {len(parsed)} of {len(lines)} orders parse,"
                f" pinned {pinned}")
        for line in parsed:
            got = outcomes[(key, line)]["translations"]
            if len(got) != 1 or got[0] not in CLOSURE_TRANSLATIONS[words]:
                raise ReferenceMismatch(f"{line!r} translates to {got}")
        covered.update((key, line) for line in lines)
    for line in CHASE_GLUED:
        if outcomes[("chase", line)]["translations"] != ["Tom chases Jerry."]:
            raise ReferenceMismatch(f"{line!r} does not translate as the chase closure")
        covered.add(("chase", line))
    for key_line, outcome in outcomes.items():
        if key_line not in covered and outcome["error"] != "no-parse":
            raise ReferenceMismatch(f"negative input {key_line[1]!r} parses")


def build_references() -> dict[str, dict]:
    from stagmt import load_grammar

    docs = {}
    docs["deep_chain"] = {
        "workload": "deep_chain",
        "source": "formula: ('Mary says ' * d) + 'Tom chases Jerry.', cost 1, "
                  "one derivation",
        "entries": [{"grammar": "embedded", "line": chain_sentence(d),
                     "expect": _expect([chain_translation(d)], [(1, 1)])}
                    for d in CHAIN_DEPTHS]}

    grammars = {}
    outcomes = {}
    for name in ("closures", "ambiguous"):
        for key, line in WORKLOADS[name].population:
            if key not in grammars:
                grammars[key] = load_grammar(grammar_source(key))
            outcomes[(key, line)] = oracle_outcome(line, grammars[key])
    _check_closures(outcomes)
    docs["closures"] = {
        "workload": "closures",
        "source": f"pinned closure facts, cross-checked with stagmt.oracle "
                  f"(max_uses={ORACLE_USES})",
        "entries": [{"grammar": key, "line": line, "expect": outcomes[(key, line)]}
                    for key, line in WORKLOADS["closures"].population]}
    docs["ambiguous"] = {
        "workload": "ambiguous",
        "source": f"stagmt.oracle (max_uses={ORACLE_USES})",
        "entries": [{"grammar": key, "line": line, "expect": outcomes[(key, line)]}
                    for key, line in WORKLOADS["ambiguous"].population]}
    return docs


def render(doc: dict) -> str:
    return json.dumps(doc, indent=1, ensure_ascii=False) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the stored files instead of writing")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC_DIR))
    docs = build_references()
    stale = []
    for name, doc in docs.items():
        path = reference_path(name)
        text = render(doc)
        if args.check:
            if not path.exists() or path.read_text(encoding="utf-8") != text:
                stale.append(name)
        else:
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path.relative_to(path.parents[2])} "
                  f"({len(doc['entries'])} entries)")
    if stale:
        print(f"stale references: {', '.join(stale)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
