"""Parsing: derivation search, ranking, determinism, word-order coverage."""

import functools
import itertools
from pathlib import Path

import pytest

from support import (
    AMBIGUOUS_FRONTED,
    AMBIGUOUS_GRAMMAR,
    CHASE_CANONICAL,
    CHASE_SCRAMBLED,
    CHASE_WORDS,
    CHASE_WORDS_SWAPPED,
    DITRANS_CANONICAL,
    EMBEDDED_FRONTED,
    attachment_of,
    corpus,
    empty,
    foot,
    interior,
    lex,
    lex_yield,
    permutation_closure,
    subst,
)

import stagmt.parser
from stagmt.derive import (Derivation, build_derived_tree, ranking_key,
                           render_tree)
from stagmt.errors import (InternalError, LexicalGapError,
                           LimitExceededError, NoParseError)
from stagmt.grammar_io import load_grammar
from stagmt.model import (
    ADJOIN_NA,
    ElementaryTree,
    Grammar,
    Link,
    SourceSet,
    SyncPair,
)
from stagmt.morphotok import tokenize
from stagmt.parser import all_derivations, parse


def derivations_of(line, grammar, **kwargs):
    return all_derivations(tokenize(line, grammar), grammar, **kwargs)


class TestChaseSentences:
    def test_canonical_minimal_parse(self, g_chase):
        (best,) = parse(tokenize(CHASE_CANONICAL, g_chase), g_chase)[0].derivations
        assert best.uses == ("gamma_chase", "alpha_tom_sp", "alpha_jerry_op")
        assert best.cost(g_chase) == 0

    def test_canonical_has_three_readings(self, g_chase):
        ds = derivations_of(CHASE_CANONICAL, g_chase)
        assert [d.cost(g_chase) for d in ds] == [0, 1, 2]

    def test_scrambled_minimal_parse_uses_a_set(self, g_chase):
        (best,) = parse(tokenize(CHASE_SCRAMBLED, g_chase), g_chase)[0].derivations
        assert sorted(best.uses) == ["alpha_tom_sp", "beta_jerry_op",
                                     "gamma_chase"]
        assert best.cost(g_chase) == 1

    def test_scrambled_has_two_readings(self, g_chase):
        ds = derivations_of(CHASE_SCRAMBLED, g_chase)
        assert [d.cost(g_chase) for d in ds] == [1, 2]

    def test_verb_initial_order_fails(self, g_chase):
        with pytest.raises(NoParseError):
            parse(tokenize("ccossnunta Tom-i Jerry-lul.", g_chase), g_chase)

    def test_exactly_two_orders_parse(self, g_chase):
        good = [line for line in permutation_closure(CHASE_WORDS)
                if derivations_of(line, g_chase)]
        assert good == ["Jerry-lul Tom-i ccossnunta.",
                        "Tom-i Jerry-lul ccossnunta."]

    def test_swapped_case_frame_cannot_scramble(self, g_chase):
        # no set fronts Tom as object, so only the in-place order survives
        good = [line for line in permutation_closure(CHASE_WORDS_SWAPPED)
                if derivations_of(line, g_chase)]
        assert good == ["Jerry-ka Tom-ul ccossnunta."]

    def test_glued_spelling_parses_identically(self, g_chase):
        assert (derivations_of("Tomi Jerrylul ccossnunta.", g_chase)
                == derivations_of(CHASE_CANONICAL, g_chase))

    def test_yields_match_input(self, g_chase):
        for line in permutation_closure(CHASE_WORDS):
            sentence = tokenize(line, g_chase)
            for derivation in all_derivations(sentence, g_chase):
                tree = build_derived_tree(derivation, g_chase)
                assert lex_yield(tree) == sentence.lex_stream


class TestOtherGrammars:
    def test_ditransitive_canonical_readings(self, g_ditransitive):
        ds = derivations_of(DITRANS_CANONICAL, g_ditransitive)
        assert [d.cost(g_ditransitive) for d in ds] == [0, 1, 2, 3]
        assert ds[0].uses == ("gamma_give", "alpha_tom_sp", "alpha_mary_iop",
                              "alpha_jerry_op")

    def test_embedded_fronting_is_non_local(self, g_embedded):
        (d,) = derivations_of(EMBEDDED_FRONTED, g_embedded)
        assert d.cost(g_embedded) == 1
        (beta_use,) = [u for u, name in enumerate(d.uses)
                       if g_embedded.pair(name).source.is_multi]
        aux = attachment_of(d, beta_use, 0)
        place_holder = attachment_of(d, beta_use, 1)
        # the two components of one set land in different uses' trees
        assert aux.host != place_holder.host
        assert d.uses[aux.host] == "gamma_say"
        assert d.uses[place_holder.host] == "gamma_chase"


class TestFailureModes:
    def test_unknown_stem_is_a_lexical_gap(self, g_chase):
        with pytest.raises(LexicalGapError):
            parse(tokenize("Spike-lul Tom-i ccossnunta.", g_chase), g_chase)

    def test_unknown_bare_word_is_a_lexical_gap(self, g_chase):
        with pytest.raises(LexicalGapError):
            parse(tokenize("Tom-i Spike ccossnunta.", g_chase), g_chase)

    def test_stray_particle_is_a_lexical_gap(self, g_chase):
        # a particle is legal only after a stem in its own word: split off,
        # it is a gap even where the lexical stream would parse
        sentence = tokenize("Tom i Jerry-lul ccossnunta.", g_chase)
        assert sentence.lex_stream == tokenize(CHASE_CANONICAL, g_chase).lex_stream
        with pytest.raises(LexicalGapError) as info:
            parse(sentence, g_chase)
        assert str(info.value) == "no pair is anchored on 'i'"

    def test_no_parse_raises(self, g_chase):
        with pytest.raises(NoParseError):
            parse(tokenize("Tom-i Jerry-ka ccossnunta.", g_chase), g_chase)

    def test_chart_size_is_capped(self, g_chase, monkeypatch):
        # the canonical sentence settles 39 pass-1 items; the cap is checked
        # only when a new item enters the chart
        sentence = tokenize(CHASE_CANONICAL, g_chase)
        monkeypatch.setattr(stagmt.parser, "MAX_CHART_ITEMS", 39)
        assert len(all_derivations(sentence, g_chase)) == 3
        monkeypatch.setattr(stagmt.parser, "MAX_CHART_ITEMS", 38)
        with pytest.raises(LimitExceededError) as info:
            all_derivations(sentence, g_chase)
        assert info.value.code == "limit-exceeded"

    def test_parses_are_capped(self, g_chase, monkeypatch):
        # pass 2 finds 5 root instance trees for the canonical sentence
        sentence = tokenize(CHASE_CANONICAL, g_chase)
        monkeypatch.setattr(stagmt.parser, "MAX_PARSES", 5)
        assert len(all_derivations(sentence, g_chase)) == 3
        monkeypatch.setattr(stagmt.parser, "MAX_PARSES", 4)
        with pytest.raises(LimitExceededError) as info:
            all_derivations(sentence, g_chase)
        assert info.value.code == "limit-exceeded"

    def test_long_input_fails_as_no_parse(self, g_chase):
        # every subject and object before the verb is the left sibling of
        # a scrambling auxiliary's foot; with the gap's right end left open
        # each makes one item, not one per right end, so 81 lexical items
        # settle 2,148 items (48,028 with one per right end), and 161 end
        # in no-parse, not the chart cap
        line = "Tom-i Jerry-lul " * 20 + "ccossnunta."
        lex_stream = tokenize(line, g_chase).lex_stream
        assert len(lex_stream) == 81
        span = stagmt.parser._SpanParser(lex_stream, g_chase.chart_tables)
        assert len(span.best) == 2_148
        with pytest.raises(NoParseError):
            parse(tokenize("Tom-i Jerry-lul " * 40 + "ccossnunta.", g_chase),
                  g_chase)

    def test_groupings_are_capped(self, monkeypatch):
        # each instance tree of the three fronted objects groups in 3! = 6
        # ways; the cap is checked before any grouping is built
        grammar = load_grammar(str(AMBIGUOUS_GRAMMAR))
        sentence = tokenize(AMBIGUOUS_FRONTED, grammar)
        monkeypatch.setattr(stagmt.parser, "MAX_GROUPINGS", 6)
        levels = parse(sentence, grammar, all_levels=True)
        assert [len(level.trees) for level in levels] == [6, 6]
        monkeypatch.setattr(stagmt.parser, "MAX_GROUPINGS", 5)
        with pytest.raises(LimitExceededError) as info:
            parse(sentence, grammar)
        assert info.value.code == "limit-exceeded"

    def test_wrong_yield_is_an_internal_error(self, g_chase, monkeypatch):
        # the yield check must survive python -O, so it cannot be an assert
        def misyielding(derivation, grammar):
            tree = build_derived_tree(derivation, grammar)
            tree.words = tree.words[1:]  # drops its first word
            return tree

        monkeypatch.setattr(stagmt.parser, "build_derived_tree", misyielding)
        with pytest.raises(InternalError, match="derived tree yields") as info:
            derivations_of(CHASE_CANONICAL, g_chase)
        assert info.value.code == "internal-error"


class TestRanking:
    def test_levels_are_cost_sorted(self, g_chase):
        levels = parse(tokenize(CHASE_CANONICAL, g_chase), g_chase,
                       all_levels=True)
        assert [level.cost for level in levels] == [0, 1, 2]
        assert all(len(level.derivations) == 1 for level in levels)

    def test_levels_carry_their_composed_trees(self, g_chase):
        sentence = tokenize(CHASE_CANONICAL, g_chase)
        levels = parse(sentence, g_chase, all_levels=True)
        assert (tuple(d for level in levels for d in level.derivations)
                == all_derivations(sentence, g_chase))
        for level in levels:
            for tree in level.trees:
                assert tree.derivation.cost(g_chase) == level.cost
                assert lex_yield(tree) == sentence.lex_stream
                assert (render_tree(tree, g_chase)
                        == render_tree(build_derived_tree(tree.derivation, g_chase),
                                       g_chase))

    def test_only_a_level_of_several_derivations_is_ranked(self, g_chase,
                                                           monkeypatch):
        keyed = []

        def counting(derivation, grammar):
            keyed.append(derivation)
            return ranking_key(derivation, grammar)

        monkeypatch.setattr(stagmt.parser, "ranking_key", counting)
        levels = parse(tokenize(CHASE_CANONICAL, g_chase), g_chase,
                       all_levels=True)
        assert [len(level.trees) for level in levels] == [1, 1, 1]
        assert keyed == []
        # the fronted objects' six derivations are found out of ranking order
        grammar = load_grammar(str(AMBIGUOUS_GRAMMAR))
        (level,) = parse(tokenize(AMBIGUOUS_FRONTED, grammar), grammar)
        assert len(keyed) == len(level.derivations) == 6
        assert level.derivations == tuple(sorted(
            level.derivations, key=lambda d: ranking_key(d, grammar)))

    def test_groups_are_never_mixed(self, g_chase):
        ds = derivations_of(CHASE_CANONICAL, g_chase)
        for derivation in ds:
            for name in derivation.uses:
                pair = g_chase.pair(name)
                # a set is used whole or not at all: both components attach
                if pair.source.is_multi:
                    use = derivation.uses.index(name)
                    assert attachment_of(derivation, use, 0) is not None
                    assert attachment_of(derivation, use, 1) is not None


class TestLevelsOnDemand:
    """parse composes only the levels it returns: the cheapest by default."""

    @staticmethod
    def outcome(line, grammar, **kwargs):
        try:
            levels = parse(tokenize(line, grammar), grammar, **kwargs)
        except (NoParseError, LexicalGapError) as exc:
            return exc.code
        for level in levels:
            for tree in level.trees:
                assert tree.derivation.cost(grammar) == level.cost
        return [(level.cost, level.derivations,
                 [render_tree(tree, grammar) for tree in level.trees])
                for level in levels]

    @pytest.mark.parametrize("name", ["chase", "ditransitive", "embedded"])
    def test_default_is_the_first_of_all_levels(self, name):
        grammar = load_grammar(name)
        parsed = 0
        for line in corpus(name):
            best = self.outcome(line, grammar)
            everything = self.outcome(line, grammar, all_levels=True)
            if isinstance(best, str):
                assert everything == best
                continue
            parsed += 1
            assert best == everything[:1]
        assert parsed > 0

    def test_dearer_levels_are_not_composed(self, g_chase, monkeypatch):
        composed = []

        def counting(derivation, grammar):
            composed.append(derivation)
            return build_derived_tree(derivation, grammar)

        monkeypatch.setattr(stagmt.parser, "build_derived_tree", counting)
        sentence = tokenize(CHASE_CANONICAL, g_chase)
        parse(sentence, g_chase)
        assert len(composed) == 1
        composed.clear()
        parse(sentence, g_chase, all_levels=True)
        assert len(composed) == 3

    def test_dearer_levels_are_not_enumerated(self, g_chase, monkeypatch):
        # the canonical sentence has 5 root instance trees, 1 of them at
        # cost 0: the cheapest level is built without listing the others
        sentence = tokenize(CHASE_CANONICAL, g_chase)
        monkeypatch.setattr(stagmt.parser, "MAX_PARSES", 1)
        assert [level.cost for level in parse(sentence, g_chase)] == [0]
        with pytest.raises(LimitExceededError) as info:
            parse(sentence, g_chase, all_levels=True)
        assert info.value.code == "limit-exceeded"


class TestDeterminism:
    def test_parse_is_reproducible(self, g_chase):
        first = derivations_of(CHASE_SCRAMBLED, g_chase)
        second = derivations_of(CHASE_SCRAMBLED, g_chase)
        assert first == second

    def test_order_is_cost_then_names_then_sites(self, g_chase):
        ds = derivations_of(CHASE_CANONICAL, g_chase)
        keys = [(d.cost(g_chase), tuple(sorted(d.uses)),
                 tuple(str(a.site) for a in d.attachments)) for d in ds]
        assert keys == sorted(keys)


class TestBudget:
    def test_tight_budget_drops_large_derivations(self, g_chase):
        sentence = tokenize(CHASE_CANONICAL, g_chase)
        assert len(all_derivations(sentence, g_chase, max_uses=3)) == 3
        assert all_derivations(sentence, g_chase, max_uses=2) == ()

    def test_default_budget_suffices_for_stacking(self, g_ditransitive):
        sentence = tokenize(DITRANS_CANONICAL, g_ditransitive)
        ds = all_derivations(sentence, g_ditransitive)
        assert max(len(d.uses) for d in ds) == 4


class TestChartTables:
    def test_tables_are_built_once_and_shared(self, monkeypatch):
        built = []

        class CountingTables(stagmt.parser.ChartTables):
            def __init__(self, grammar):
                built.append(grammar)
                super().__init__(grammar)

        monkeypatch.setattr(stagmt.parser, "ChartTables", CountingTables)
        names = ("chase", "ditransitive", "embedded")
        grammars = {name: load_grammar(name) for name in names}
        # round robin over the grammars: one sentence of each in turn
        interleaved = [job for group in itertools.zip_longest(
            *([(name, line) for line in corpus(name)] for name in names))
            for job in group if job is not None]

        def parse_all(jobs):
            return {(name, line): all_derivations(tokenize(line, grammars[name]),
                                                  grammars[name])
                    for name, line in jobs}

        first = parse_all(interleaved)
        second = parse_all(reversed(interleaved))
        assert first == second
        assert sum(len(ds) > 0 for ds in first.values()) == 17
        assert sorted(map(id, built)) == sorted(map(id, grammars.values()))
        assert all(g.chart_tables is g.chart_tables for g in grammars.values())



class TestForest:
    """Pass 2 searches the hyperedges pass 1 records, each with the cost it
    fired at. Within a budget it yields exactly the instance trees that fit,
    each once, the smallest of them at pass 1's least cost, flat, one
    (component id, parent index, site) per instance, parents first, in
    batches of one priority cost, cheapest first."""

    BUDGET = 8

    @staticmethod
    def flat(batches):
        return [tree for _, trees in batches for tree in trees]

    def check(self, grammar, line):
        span = stagmt.parser._SpanParser(tokenize(line, grammar).lex_stream,
                                         grammar.chart_tables)
        t = span.tables
        assert all(i < j for _, i, j, _ in span.best)
        # one map: the point table's hyperedges and the sentence's own
        assert span.edges.keys() == span.best.keys() | t.point_edges.keys()
        best = {**span.best, **t.point_best}
        for key, least in best.items():
            # each hyperedge carries the cost it fired at: the item's own
            # instance count plus its antecedents' least costs; a point
            # antecedent is named by its point-table key
            own = int(0 <= key[0] - t.inst0 < len(t.comps))
            found = span.edges[key]
            for edge in found:
                assert all(ante in t.point_edges
                           for ante in edge[1:] if ante[1] == ante[2])
                assert edge[0] == own + sum(best[ante] for ante in edge[1:])
            assert min(edge[0] for edge in found) == least
            batches = list(span.trees([key], self.BUDGET))
            # the batch costs strictly increase, and a tree's cost is
            # priority minus one per use, its component-0 instances
            costs = [cost for cost, _ in batches]
            assert costs == sorted(set(costs))
            for cost, trees in batches:
                for tree in trees:
                    uses = tuple(t.comps[comp][0] for comp, _, _ in tree
                                 if t.comps[comp][1] == 0)
                    assert cost == Derivation(uses, 0, ()).cost(grammar)
            trees = self.flat(batches)
            # distinct hyperedges derive distinct instance trees, and a tree
            # holds its instances, so its size is its instance count
            assert len(set(trees)) == len(trees)
            assert min(map(len, trees)) == least
            for tighter in range(least - 1, self.BUDGET):
                assert self.flat(span.trees([key], tighter)) == [
                    tree for tree in trees if len(tree) <= tighter]
            for tree in trees:
                for idx, (comp, parent, at) in enumerate(tree):
                    assert 0 <= comp < len(t.comps)
                    assert parent is None or parent < idx
                    # only the item's own instance attaches nowhere
                    assert (at is None) == (idx == 0 and own == 1)
                # an instance item's tree is rooted in that instance
                if own:
                    assert tree[0][0] == key[0] - t.inst0
                    assert all(parent is not None for _, parent, _ in tree[1:])

    @pytest.mark.parametrize("name, line", [
        ("chase", CHASE_SCRAMBLED), ("ditransitive", DITRANS_CANONICAL),
        ("embedded", EMBEDDED_FRONTED)])
    def test_shipped_grammars(self, name, line):
        self.check(load_grammar(name), line)

    @pytest.mark.parametrize("name", ["chase", "ditransitive", "embedded"])
    def test_chart_holds_no_point_items(self, name):
        # an item over no words is the same at every position, so the
        # grammar's point table holds it and the chart never does
        grammar = load_grammar(name)
        for line in corpus(name):
            span = stagmt.parser._SpanParser(
                tokenize(line, grammar).lex_stream, grammar.chart_tables)
            assert span.best
            assert all(i < j for _, i, j, _ in span.best)

    def test_gapped_point_items(self, g_chase):
        # besides the feet themselves, a foot that is an only child and a
        # zero-width auxiliary S(e S*) both make point items that cover
        # only their gap
        def pair(name, *trees):
            return SyncPair(name=name, source=SourceSet(tuple(
                ElementaryTree(tree) for tree in trees)),
                target=ElementaryTree(interior("S", foot("S"))), priority=2)

        grammar = Grammar(
            pairs=g_chase.pairs + (
                pair("beta_ttu", interior("S", lex("B", "ttu"), interior(
                    "S", foot("S"), adjoin=ADJOIN_NA))),
                pair("beta_cal", interior("S", empty(), foot("S")),
                     interior("S", lex("A", "cal"), foot("S")))),
            source_language="ko", target_language="en", start_symbol="S",
            particles=g_chase.particles)
        tables = grammar.chart_tables
        gapped = {sym for sym, _, _, gap in tables.point_best if gap}
        assert gapped - set(tables.feet)
        assert tables.point_auxes
        self.check(grammar, "cal ttu Tom-i Jerry-lul ccossnunta.")

    def test_point_table_and_chart_sizes(self, g_chase):
        # the chase traces, the slots they fill and the three feet are 14
        # point items, which at each of this no-parse input's six positions
        # would add 84 items to the 37 that cover words
        tables = g_chase.chart_tables
        assert len(tables.point_best) == 14
        span = stagmt.parser._SpanParser(
            tokenize("Tom-i Jerry-ka ccossnunta.", g_chase).lex_stream, tables)
        assert len(span.best) == 37

    @pytest.mark.parametrize("line, filed", [
        ("ccossnunta Tom-i Jerry-lul.", 0),
        # no parse, but its root item settles (at cost 4), so pass 2 reads
        # the hyperedges to find that no grouping of its trees survives
        ("Tom-i Jerry-ka ccossnunta.", 1),
        (CHASE_CANONICAL, 1)])
    def test_forest_is_filed_only_for_a_settled_root(self, g_chase,
                                                     monkeypatch, line, filed):
        # pass 1 logs its firings; the per-item map is filed on first read,
        # which pass 2 makes only from a start pair's settled root item
        built = []

        class Counting(stagmt.parser._SpanParser):
            @functools.cached_property
            def edges(self):
                built.append(self.lex)
                return super().edges

        g_chase.chart_tables    # the point table's run is not counted
        monkeypatch.setattr(stagmt.parser, "_SpanParser", Counting)
        parsed = derivations_of(line, g_chase)
        assert bool(parsed) == (line == CHASE_CANONICAL)
        assert built == [tokenize(line, g_chase).lex_stream] * filed

    def test_left_operand_dearer_than_the_right(self):
        # L(X X) costs two and settles after the X slot to its right, so
        # the left operand is the one that finds its partner settled
        def singleton(name, tree):
            et = ElementaryTree(tree)
            return SyncPair(name=name, source=SourceSet((et,)), target=et,
                            links=tuple(Link(0, a, a) for a in et.subst_addresses))

        grammar = Grammar(
            pairs=(singleton("gamma", interior(
                "S", lex("V", "v"), interior("L", subst("X"), subst("X")),
                subst("X"))),
                singleton("alpha_x", interior("X", lex("X", "x")))),
            source_language="ko", target_language="en", start_symbol="S",
            particles=())
        self.check(grammar, "v x x x.")


FOREST_SIZES = Path(__file__).parent / "golden" / "forest_sizes.txt"


def forest_sizes() -> str:
    """Pass 1's forest over every corpus line of the shipped grammars: the
    items that cover words, their hyperedges, and each start pair's root
    least cost ("-" where the root never settles)."""
    out = []
    for name in ("chase", "ditransitive", "embedded"):
        grammar = load_grammar(name)
        tables = grammar.chart_tables
        out.append(f"=== {name}")
        for line in corpus(name):
            lex_stream = tokenize(line, grammar).lex_stream
            span = stagmt.parser._SpanParser(lex_stream, tables)
            roots = []
            for pair in grammar.start_pairs:
                root = tables.inst0 + tables.comp_id[pair.name, pair.source.head]
                least = span.best.get((root, 0, len(lex_stream), None))
                roots.append(f"{pair.name} {'-' if least is None else least}")
            hyperedges = sum(len(span.edges[key]) for key in span.best)
            out.append(f"{line}\t{len(span.best)} items\t{hyperedges} hyperedges"
                       f"\t{', '.join(roots)}")
    return "\n".join(out) + "\n"


def test_forest_sizes_match_golden():
    # a referee for rewrites of pass 1: the same items, hyperedges and root
    # least costs on every corpus line
    assert forest_sizes() == FOREST_SIZES.read_text(encoding="utf-8")


if __name__ == "__main__":
    FOREST_SIZES.write_text(forest_sizes(), encoding="utf-8")
