"""Acceptance gate: the eight shipped-behavior criteria.

Each criterion is one test that performs every check it owes, then records a
single PASS/FAIL line (echoed in the terminal summary after the run) before
asserting. Timings are wall-clock with generous stated tolerances; everything
here runs on the shipped grammars only.
"""

import time

from support import (
    ACCEPTANCE_LINES,
    CHASE_CANONICAL,
    CHASE_SCRAMBLED,
    CHASE_WORDS,
    DITRANS_CANONICAL,
    DITRANS_WORDS,
    EMBEDDED_CANONICAL,
    EMBEDDED_FRONTED,
    attachment_of,
    check_set_constraints,
    corpus,
    lex_yield,
    permutation_closure,
    preorder,
    sample_derivations,
    violations,
)

from stagmt.derive import (
    OP_ADJOIN,
    build_derived_tree,
    make_derivation,
    render_tree,
)
from stagmt.errors import StagError
from stagmt.generator import yield_surface
from stagmt.grammar_io import builtin_grammar_names, dump_grammar, load_grammar, parse_grammar
from stagmt.model import KIND_INTERIOR, KIND_LEX, SET_VARIABLE
from stagmt.morphotok import tokenize
from stagmt.parser import all_derivations, parse
from stagmt.pipeline import translate_line
from stagmt.transfer import transfer_derivation


def check(failures: list, condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def conclude(number: int, description: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    line = f"criterion {number}: {verdict} - {description}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def try_translate(line: str, grammar):
    try:
        return translate_line(line, grammar)
    except StagError:
        return None


def hyphen_normal(sentence) -> str:
    words = [t.stem + (f"-{t.particle}" if t.particle else "")
             for t in sentence.tokens]
    return " ".join(words) + sentence.terminator


def subtree_lex(node) -> tuple:
    if node.kind == KIND_LEX:
        return (node.word,)
    out = ()
    for child in node.children:
        out += subtree_lex(child)
    return out


def test_criterion_1_canonical_translation(g_chase):
    failures = []
    start = time.perf_counter()
    result = translate_line(CHASE_CANONICAL, g_chase)
    elapsed = time.perf_counter() - start
    best = result.best
    check(failures, best.surface == "Tom chases Jerry.",
          f"translated to {best.surface!r}")
    check(failures,
          sorted(best.source.derivation.uses) == ["alpha_jerry_op", "alpha_tom_sp",
                                                  "gamma_chase"],
          f"derivation used {best.source.derivation.uses}")
    check(failures, best.cost == 0, f"cost {best.cost}")
    check(failures, elapsed < 0.1, f"took {elapsed * 1000:.1f} ms")
    conclude(1, "canonical sentence translates exactly, via the plain "
                "argument trees", failures)


def test_criterion_2_scrambled_translation(g_chase):
    failures = []
    start = time.perf_counter()
    result = translate_line(CHASE_SCRAMBLED, g_chase)
    elapsed = time.perf_counter() - start
    best = result.best
    check(failures, best.surface == "Tom chases Jerry.",
          f"translated to {best.surface!r}")
    check(failures, render_tree(best.source, g_chase) == (
        "(S (OP<1> (N Jerry) (P lul)) "
        "(S (SP (N Tom) (P i)) (OP<1> e) (V ccossnunta)))"),
          f"source tree {render_tree(best.source, g_chase)!r}")
    canonical = translate_line(CHASE_CANONICAL, g_chase).best
    check(failures,
          render_tree(best.target, g_chase)
          == render_tree(canonical.target, g_chase),
          "target tree differs from the canonical sentence's")
    check(failures, elapsed < 0.1, f"took {elapsed * 1000:.1f} ms")
    conclude(2, "scrambled sentence yields the trace-linked source tree and "
                "the same target tree", failures)


def test_criterion_3_priority_suppression(g_chase):
    failures = []
    sentence = tokenize(CHASE_CANONICAL, g_chase)
    best = parse(sentence, g_chase)[0].derivations
    check(failures, all(d.cost(g_chase) == 0 for d in best),
          f"default parse has costs {[d.cost(g_chase) for d in best]}")

    everything = all_derivations(sentence, g_chase)
    vacuous = [d for d in everything if d.cost(g_chase) == 1]
    check(failures, bool(vacuous), "no cost-1 derivation exists at all")
    reference_yield = lex_yield(build_derived_tree(best[0], g_chase))
    check(failures,
          any(lex_yield(build_derived_tree(d, g_chase)) == reference_yield
              for d in vacuous),
          "no cost-1 derivation shares the sentence's yield")

    result = translate_line(CHASE_CANONICAL, g_chase)
    check(failures, all(c.cost == 0 for c in result.candidates),
          "translation carried a suppressed derivation through")
    suppressed = {tuple(sorted(d.uses)) for d in vacuous}
    offered = {tuple(sorted(c.source.derivation.uses)) for c in result.candidates}
    check(failures, not (suppressed & offered),
          "a suppressed derivation appears among the candidates")
    conclude(3, "ranking suppresses the string-vacuous scrambled reading of "
                "the canonical sentence", failures)


def test_criterion_4_permutation_completeness(g_chase, g_ditransitive):
    failures = []
    start = time.perf_counter()

    chase_results = {line: try_translate(line, g_chase)
                     for line in permutation_closure(CHASE_WORDS)}
    parsed = {line for line, r in chase_results.items() if r is not None}
    check(failures, parsed == {CHASE_CANONICAL, CHASE_SCRAMBLED},
          f"transitive orders parsing: {sorted(parsed)}")
    translations = {r.best.surface
                    for r in chase_results.values() if r is not None}
    check(failures, translations == {"Tom chases Jerry."},
          f"transitive translations: {sorted(translations)}")

    ditrans_results = {line: try_translate(line, g_ditransitive)
                       for line in permutation_closure(DITRANS_WORDS)}
    good = {line: r for line, r in ditrans_results.items() if r is not None}
    check(failures, len(ditrans_results) == 24,
          f"{len(ditrans_results)} ditransitive orders generated")
    check(failures, len(good) == 6,
          f"{len(good)} of 24 ditransitive orders parse: {sorted(good)}")
    check(failures, all(line.endswith("cwunta.") for line in good),
          "a non-verb-final ditransitive order parsed")
    translations = {r.best.surface for r in good.values()}
    check(failures, translations == {"Tom gives Jerry to Mary."},
          f"ditransitive translations: {sorted(translations)}")

    def multi_uses(candidate):
        return sum(1 for name in candidate.source.derivation.uses
                   if g_ditransitive.pair(name).source.is_multi)

    deepest = max(multi_uses(r.best) for r in good.values())
    check(failures, deepest >= 2,
          f"no parsed order stacks scrambling sets (max {deepest})")

    elapsed = time.perf_counter() - start
    check(failures, elapsed < 5.0, f"exhaustive run took {elapsed:.2f} s")
    conclude(4, "2/6 transitive and 6/24 ditransitive orders parse, all "
                "translating identically, with stacked sets", failures)


def test_criterion_5_long_distance_scrambling(g_embedded):
    failures = []
    (derivation,) = parse(tokenize(EMBEDDED_FRONTED, g_embedded),
                          g_embedded)[0].derivations
    multi = [u for u, name in enumerate(derivation.uses)
             if g_embedded.pair(name).source.is_multi]
    check(failures, len(multi) == 1, f"{len(multi)} scrambling sets used")
    (use,) = multi
    fronted = attachment_of(derivation, use, 0)
    place_holder = attachment_of(derivation, use, 1)
    check(failures, derivation.uses[fronted.host] == "gamma_say",
          f"fronted component attached to {derivation.uses[fronted.host]}")
    check(failures, derivation.uses[place_holder.host] == "gamma_chase",
          f"place-holder attached to {derivation.uses[place_holder.host]}")
    check(failures, fronted.host != place_holder.host,
          "both components attached to the same use: not long-distance")

    tree = build_derived_tree(derivation, g_embedded)
    check(failures, not violations(tree, g_embedded),
          "dominance link violated in the derived tree")

    scrambled = translate_line(EMBEDDED_FRONTED, g_embedded)
    canonical = translate_line(EMBEDDED_CANONICAL, g_embedded)
    check(failures,
          scrambled.best.surface
          == canonical.best.surface
          == "Mary says Tom chases Jerry.",
          f"translations diverge: {scrambled.best.surface!r} vs "
          f"{canonical.best.surface!r}")
    conclude(5, "matrix-fronted embedded object parses non-locally and "
                "translates like the canonical order", failures)


def test_criterion_6_oracle_equivalence(g_chase, g_ditransitive, g_embedded):
    from stagmt.oracle import assert_equivalence

    failures = []
    grammars = {"chase": g_chase, "ditransitive": g_ditransitive,
                "embedded": g_embedded}
    checked = 0
    for name, grammar in grammars.items():
        for line in corpus(name):
            start = time.perf_counter()
            report = assert_equivalence(tokenize(line, grammar), grammar)
            elapsed = time.perf_counter() - start
            checked += 1
            check(failures, report.match, f"{name}: {report.summary()}")
            check(failures, elapsed < 10.0,
                  f"{name}: {line!r} took {elapsed:.2f} s")
    check(failures, checked >= 150, f"only {checked} corpus sentences")
    conclude(6, f"parser and blind oracle agree on all {checked} corpus "
                "sentences", failures)


def _site_variants(derivation, grammar):
    """Re-site each scrambling auxiliary everywhere it validly fits."""
    variants = []
    for i, att in enumerate(derivation.attachments):
        if att.op != OP_ADJOIN:
            continue
        for host, host_name in enumerate(derivation.uses):
            pair = grammar.pair(host_name)
            for hc, comp in enumerate(pair.source.components):
                for addr, node in comp.nodes.items():
                    if node.kind != KIND_INTERIOR:
                        continue
                    moved = att._replace(host=host, host_comp=hc, site=addr)
                    atts = list(derivation.attachments)
                    atts[i] = moved
                    candidate = make_derivation(derivation.uses,
                                                derivation.root, atts)
                    if check_set_constraints(candidate, grammar):
                        variants.append(candidate)
    return variants


def test_criterion_7_transfer_isomorphism(g_chase, g_ditransitive, g_embedded):
    failures = []
    pool = (tuple((d, g_chase) for d in sample_derivations(g_chase, 40))
            + tuple((d, g_ditransitive)
                    for d in sample_derivations(g_ditransitive, 40))
            + tuple((d, g_embedded) for d in sample_derivations(g_embedded, 40)))
    check(failures, len(pool) >= 100, f"only {len(pool)} sampled derivations")

    variant_count = 0
    for derivation, grammar in pool[:max(100, len(pool))]:
        target = transfer_derivation(derivation, grammar)
        source_parents = {
            use: attachment_of(derivation, use, grammar.pair(name).source.head).host
            for use, name in enumerate(derivation.uses)
            if use != derivation.root}
        target_parents = {a.use: a.host for a in target.attachments}
        ok = (target.uses == derivation.uses
              and target.root == derivation.root
              and target_parents == source_parents)
        check(failures, ok,
              f"not isomorphic: {derivation.uses} {source_parents} "
              f"vs {target_parents}")
        for variant in _site_variants(derivation, grammar):
            variant_count += 1
            check(failures, transfer_derivation(variant, grammar) == target,
                  f"re-siting changed the target: {variant.uses}")
    check(failures, variant_count >= 100,
          f"only {variant_count} site variants exercised")
    conclude(7, f"{len(pool)} sampled derivations transfer isomorphically; "
                f"{variant_count} re-sitings leave the target unchanged",
             failures)


def test_criterion_8_invariants_and_round_trip(g_chase, g_ditransitive,
                                               g_embedded):
    failures = []
    for name in builtin_grammar_names():
        grammar = load_grammar(name)
        check(failures, parse_grammar(dump_grammar(grammar)) == grammar,
              f"{name}: dump/load round trip is not the identity")

    grammars = {"chase": g_chase, "ditransitive": g_ditransitive,
                "embedded": g_embedded}
    parses = 0
    for name, grammar in grammars.items():
        for line in corpus(name):
            try:
                sentence = tokenize(line, grammar)
                derivations = all_derivations(sentence, grammar)
            except StagError:
                continue
            for derivation in derivations:
                parses += 1
                tree = build_derived_tree(derivation, grammar)
                check(failures, lex_yield(tree) == sentence.lex_stream,
                      f"{line!r}: derived yield diverges from the input")
                check(failures,
                      yield_surface(tree, sentence.terminator)
                      == hyphen_normal(sentence),
                      f"{line!r}: surface read-out diverges from the input")
                for use, pair_name in enumerate(derivation.uses):
                    if not grammar.pair(pair_name).source.is_multi:
                        continue
                    marked = [n for n in preorder(tree)
                              if n.use == use
                              and SET_VARIABLE in dict(n.feats).values()]
                    check(failures, len(marked) == 2,
                          f"{line!r}: use {use} shows {len(marked)} trace "
                          "nodes, wanted a pair")
                    silent = [n for n in marked if not subtree_lex(n)]
                    check(failures, len(silent) == 1,
                          f"{line!r}: use {use} has {len(silent)} silent "
                          "trace nodes, wanted exactly one")
    check(failures, parses >= 10, f"only {parses} corpus parses")
    conclude(8, f"trace pairing and yield faithfulness hold on {parses} "
                "corpus parses; shipped grammars round-trip", failures)
