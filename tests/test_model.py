"""Data model: addresses, trees, pair validation, grammar indexing."""

import ast
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from support import empty, foot, interior, lex, subst

import stagmt
import stagmt.model
from stagmt.errors import (DuplicatePairNameError, GrammarSchemaError,
                           GrammarValidationError, NoStartPairError)
from stagmt.model import (
    ADJOIN_NA,
    ADJOIN_OA,
    ElementaryTree,
    GornAddress,
    Grammar,
    Link,
    Particle,
    ROOT,
    SourceSet,
    SyncPair,
    TreeNode,
    validate_pair,
)

addresses = st.lists(st.integers(min_value=1, max_value=9), max_size=5).map(
    lambda p: GornAddress(tuple(p)))
elementary_trees = st.recursive(
    st.sampled_from([lex("N", "x"), empty(), subst("NP"), foot("S")]),
    lambda kids: st.lists(kids, min_size=1, max_size=4).map(
        lambda children: interior("S", *children)),
    max_leaves=40).map(ElementaryTree)


def defined_ends(tree):
    """One past the last node at or below each node, by definition: in
    preorder, those are the next nodes whose paths start with its path."""
    paths = [addr.path for addr in tree.nodes]
    return tuple(i + sum(p[:len(at)] == at for p in paths)
                 for i, at in enumerate(paths))


class TestGornAddress:
    def test_root_spellings(self):
        assert GornAddress.parse("e") == ROOT
        assert str(ROOT) == "e"
        assert ROOT.path == ()

    def test_parse_dotted(self):
        assert GornAddress.parse("2.2").path == (2, 2)
        assert GornAddress.parse("1").path == (1,)

    @pytest.mark.parametrize("bad", ["", "0", "1.0", "a", "1..2", "-1", "e.1"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            GornAddress.parse(bad)

    @given(addresses)
    def test_str_round_trip(self, addr):
        assert GornAddress.parse(str(addr)) == addr


class TestTreeNode:
    def test_factories(self):
        node = interior("S", subst("NP"), lex("V", "chases"))
        assert node.children[0].kind == "subst_slot"
        assert node.children[1].word == "chases"
        assert empty().kind == "empty"
        assert foot("S").kind == "foot"

    def test_feats_are_sorted_pairs(self):
        a = interior("OP", feats={"trace": "@set", "case": "acc"})
        b = interior("OP", feats=[("case", "acc"), ("trace", "@set")])
        assert a == b
        assert a.feats == (("case", "acc"), ("trace", "@set"))

    def test_nodes_are_hashable(self):
        assert len({lex("N", "Tom"), lex("N", "Tom"), lex("N", "Jerry")}) == 2


class TestElementaryTree:
    def make_aux(self):
        return ElementaryTree(interior(
            "S", interior("OP", subst("N")), foot("S")))

    def test_addressing(self):
        tree = self.make_aux()
        assert tree.nodes[ROOT].cat == "S"
        assert tree.nodes[GornAddress.parse("1.1")].kind == "subst_slot"
        assert GornAddress.parse("9") not in tree.nodes

    def test_foot_and_auxiliary(self):
        tree = self.make_aux()
        assert tree.is_auxiliary
        assert tree.foot_address == GornAddress.parse("2")
        initial = ElementaryTree(interior("NP", lex("N", "Tom")))
        assert not initial.is_auxiliary
        assert initial.foot_address is None

    def test_slot_and_lex_tables(self):
        tree = ElementaryTree(interior(
            "S", subst("SP"), subst("OP"), lex("V", "ccossnunta")))
        assert [str(a) for a in tree.subst_addresses] == ["1", "2"]
        assert tree.lex_words == ("ccossnunta",)

    def test_ends_of_the_shipped_trees(self, g_chase, g_ditransitive, g_embedded):
        for grammar in (g_chase, g_ditransitive, g_embedded):
            for pair in grammar.pairs:
                for tree in (*pair.source.components, pair.target):
                    assert tree.compiled[3] == defined_ends(tree)

    @given(elementary_trees)
    def test_ends_of_drawn_trees(self, tree):
        assert tree.compiled[3] == defined_ends(tree)

    def test_wide_tree_compiles_in_linear_time(self):
        # a subtree's end is read off its last child's, one pass over the
        # nodes; counting the nodes below each would take about a minute
        tree = ElementaryTree(interior("S", *[lex("N", "x")] * 20_000))
        start = time.perf_counter()
        ends = tree.compiled[3]
        assert time.perf_counter() - start < 1.0
        assert ends[0] == 20_001 and ends[-1] == 20_001

    def test_operable(self):
        tree = ElementaryTree(interior(
            "S", subst("SP"), interior("VP", feats=None, adjoin=ADJOIN_NA),
            lex("V", "x")))
        assert tree.operable(GornAddress.parse("1"))      # slot
        assert tree.operable(ROOT)                        # interior, allow
        assert not tree.operable(GornAddress.parse("2"))  # interior, na
        assert not tree.operable(GornAddress.parse("3"))  # lex leaf
        assert not tree.operable(GornAddress.parse("8"))  # absent


def _singleton(name, tree, target=None, links=(), priority=1):
    return SyncPair(name=name, source=SourceSet(components=(ElementaryTree(tree),)),
                    target=ElementaryTree(target if target is not None else tree),
                    links=tuple(links), priority=priority)


def _beta(name="beta_x", head=1, dominance=((0, 1),), priority=2):
    scrambled = ElementaryTree(interior(
        "S",
        interior("OP", lex("N", "X"), lex("P", "lul"), feats={"trace": "@set"}),
        foot("S")))
    placeholder = ElementaryTree(interior("OP", empty(), feats={"trace": "@set"}))
    return SyncPair(
        name=name,
        source=SourceSet(components=(scrambled, placeholder), head=head,
                         dominance=tuple(dominance)),
        target=ElementaryTree(interior("NP", lex("N", "X"))),
        links=(), priority=priority)


class TestValidatePair:
    def test_shipped_pairs_are_clean(self, g_chase, g_ditransitive, g_embedded):
        for grammar in (g_chase, g_ditransitive, g_embedded):
            for pair in grammar.pairs:
                assert validate_pair(pair) == []

    def test_well_formed_beta_is_clean(self):
        assert validate_pair(_beta()) == []

    def test_head_must_be_place_holder(self):
        swapped = _beta(head=0, dominance=())
        rules = {d.rule for d in validate_pair(swapped)}
        assert "head-convention" in rules

    def test_place_holder_must_be_dominated(self):
        undominated = _beta(dominance=())
        rules = {d.rule for d in validate_pair(undominated)}
        assert "placeholder-dominance" in rules

    def test_dominance_indices_checked(self):
        bad = _beta(dominance=((0, 5),))
        rules = {d.rule for d in validate_pair(bad)}
        assert "dominance-index" in rules

    def test_singletons_may_not_use_set_variable(self):
        pair = _singleton("alpha_bad", interior(
            "OP", empty(), feats={"trace": "@set"}))
        rules = {d.rule for d in validate_pair(pair)}
        assert "set-variable" in rules

    def test_link_must_name_operable_node(self):
        tree = interior("S", subst("SP"), lex("V", "x"))
        pair = _singleton("gamma_bad", tree,
                          links=[Link(comp=0, src=GornAddress.parse("2"),
                                      tgt=ROOT)])
        rules = {d.rule for d in validate_pair(pair)}
        assert "link-src" in rules

    def test_duplicate_link_sources_rejected(self):
        tree = interior("S", subst("SP"), lex("V", "x"))
        target = interior("S", subst("NP"), subst("NP"))
        pair = _singleton("gamma_dup", tree, target=target, links=[
            Link(comp=0, src=GornAddress.parse("1"), tgt=GornAddress.parse("1")),
            Link(comp=0, src=GornAddress.parse("1"), tgt=GornAddress.parse("2")),
        ])
        rules = {d.rule for d in validate_pair(pair)}
        assert "duplicate-link-src" in rules

    def test_unlinked_target_slot_rejected(self):
        tree = interior("S", subst("SP"), lex("V", "x"))
        target = interior("S", subst("NP"), subst("NP"))
        pair = _singleton("gamma_gap", tree, target=target, links=[
            Link(comp=0, src=GornAddress.parse("1"), tgt=GornAddress.parse("1"))])
        rules = {d.rule for d in validate_pair(pair)}
        assert "unlinked-substitution" in rules

    def test_pair_needs_an_anchor(self):
        # S(S*) has no word, so its uses could stack without end over any
        # input; a word-less component is fine beside an anchored one
        zero_width = _singleton("beta_zw", interior("S", foot("S")))
        assert [d.rule for d in validate_pair(zero_width)] == ["unanchored"]
        assert _beta().source.components[1].lex_words == ()
        assert validate_pair(_beta()) == []

    def test_priority_must_be_positive(self):
        pair = _singleton("alpha_zero", interior("NP", lex("N", "Tom")), priority=0)
        rules = {d.rule for d in validate_pair(pair)}
        assert "priority" in rules

    def test_lex_needs_word_and_interior_needs_children(self):
        no_word = _singleton("alpha_noword", interior(
            "NP", TreeNode(cat="N", kind="lex")))
        assert "lex-word" in {d.rule for d in validate_pair(no_word)}
        bare = _singleton("alpha_bare", interior("NP"))
        assert "interior-children" in {d.rule for d in validate_pair(bare)}

    def test_obligatory_adjoining_leaf_rejected(self):
        # S(V_OA(x)): a lex leaf cannot host an adjunction
        lex_oa = _singleton("alpha_lex_oa", interior(
            "S", TreeNode(cat="V", kind="lex", word="x", adjoin=ADJOIN_OA)),
            target=interior("S", lex("V", "x")))
        # S(A(a) S*_OA): nor can a foot
        foot_oa = SyncPair(
            name="beta_foot_oa",
            source=SourceSet(components=(ElementaryTree(interior(
                "S", lex("A", "a"),
                TreeNode(cat="S", kind="foot", adjoin=ADJOIN_OA))),)),
            target=ElementaryTree(interior("NP", lex("N", "X"))))
        for pair, addr in ((lex_oa, "1"), (foot_oa, "2")):
            (diag,) = [d for d in validate_pair(pair) if d.rule == "oa-leaf"]
            assert diag.address == f"source[0]:{addr}"
        # an interior OA node stays admissible
        assert validate_pair(_singleton("alpha_vp_oa", interior("S", interior(
            "VP", lex("V", "x"), adjoin=ADJOIN_OA)))) == []

    def test_two_feet_rejected(self):
        double = SyncPair(
            name="beta_twofeet",
            source=SourceSet(components=(
                ElementaryTree(interior("S", foot("S"), foot("S"))),)),
            target=ElementaryTree(interior("NP", lex("N", "X"))))
        assert "multiple-feet" in {d.rule for d in validate_pair(double)}

    def test_rules_the_loader_reaches_first(self):
        # a grammar file cannot carry these: the loader refuses it before
        # validation runs, so only pairs built in Python reach them
        slot = GornAddress.parse("1")
        tree = interior("S", subst("SP"), lex("V", "x"))
        cases = [
            (_singleton("alpha_kind", interior("NP", TreeNode(cat="N", kind="stem"))),
             "node-kind", "unknown node kind 'stem'"),
            (_singleton("alpha_adjoin", interior("NP", lex("N", "x"), adjoin="maybe")),
             "adjoin-value", "unknown adjoining constraint 'maybe'"),
            (SyncPair(name="alpha_none", source=SourceSet(components=()),
                      target=ElementaryTree(interior("NP", lex("N", "x")))),
             "empty-set", "source set has no components"),
            (_singleton("gamma_comp", tree, links=[Link(comp=3, src=slot, tgt=slot)]),
             "link-comp", "link names component 3, out of range"),
            (_singleton("gamma_src", tree, links=[
                Link(comp=0, src=GornAddress.parse("9"), tgt=slot)]),
             "link-src", "link src 9 does not name a node"),
            (_singleton("gamma_tgt", tree, links=[
                Link(comp=0, src=slot, tgt=GornAddress.parse("9"))]),
             "link-tgt", "link tgt 9 does not name a node"),
        ]
        for pair, rule, message in cases:
            assert (rule, message) in {(d.rule, d.message) for d in validate_pair(pair)}

    def test_diagnostics_name_pair_and_rule(self):
        diag = validate_pair(_beta(head=0, dominance=()))[0]
        assert diag.pair == "beta_x"
        assert diag.rule
        assert str(diag)  # renders without crashing

    def test_validate_pair_ignores_link_order(self):
        tree = interior("S", subst("SP"), subst("OP"), lex("V", "x"))
        target = interior("S", subst("NP"), interior("VP", lex("V", "y"), subst("NP")))
        links = [
            Link(comp=0, src=GornAddress.parse("1"), tgt=GornAddress.parse("1")),
            Link(comp=0, src=GornAddress.parse("2"), tgt=GornAddress.parse("2.2")),
        ]
        forward = _singleton("gamma_two", tree, target=target, links=links)
        backward = _singleton("gamma_two", tree, target=target, links=links[::-1])
        assert ({d.rule for d in validate_pair(forward)}
                == {d.rule for d in validate_pair(backward)})


class TestIndexGrammar:
    def test_duplicate_names_rejected(self):
        a = _singleton("alpha_tom", interior("NP", lex("N", "Tom")))
        with pytest.raises(DuplicatePairNameError):
            Grammar(pairs=[a, a], source_language="ko", target_language="en",
                    start_symbol="S", particles=[])

    def test_start_pair_required(self):
        a = _singleton("alpha_tom", interior("NP", lex("N", "Tom")))
        with pytest.raises(NoStartPairError):
            Grammar(pairs=[a], source_language="ko", target_language="en",
                    start_symbol="S", particles=[])

    def test_auxiliary_head_cannot_start(self):
        # an auxiliary rooted in the start symbol adjoins into a derivation
        # but cannot root one
        beta = _singleton("beta_adv", interior("S", lex("A", "a"), foot("S")))
        gamma = _singleton("gamma_x", interior("S", lex("V", "x")))
        grammar = Grammar(pairs=[beta, gamma], source_language="ko",
                          target_language="en", start_symbol="S", particles=[])
        assert [pair.name for pair in grammar.start_pairs] == ["gamma_x"]
        with pytest.raises(NoStartPairError):
            Grammar(pairs=[beta], source_language="ko", target_language="en",
                    start_symbol="S", particles=[])

    def test_anchor_index_excludes_particles(self, g_chase):
        # the chase trees hold the particles as lexical leaves too
        assert {"i", "lul"} <= {word for pair in g_chase.pairs
                                for comp in pair.source.components
                                for word in comp.lex_words}
        assert g_chase.anchor_index == frozenset({"Jerry", "Tom", "ccossnunta"})

    def test_particle_map(self, g_chase):
        assert g_chase.particle_map == {
            "i": "nom", "ka": "nom", "lul": "acc", "ul": "acc"}

    def test_pair_lookup(self, g_chase):
        assert g_chase.pair("gamma_chase").priority == 1
        assert g_chase.pair("beta_jerry_op").priority == 2
        assert g_chase.pair("beta_jerry_op").source.is_multi

    def test_grammar_is_immutable_and_shareable(self, g_chase):
        pair = g_chase.pair("gamma_chase")
        with pytest.raises(AttributeError):
            pair.priority = 5


class TestEveryGrammarIsValid:
    """Building a Grammar runs the checks that loading a grammar file does,
    in the same order: the particle forms, then every pair's diagnostics in
    one error, then duplicate names, then the start pair."""

    @staticmethod
    def build(pairs, g_chase):
        return stagmt.Grammar(source_language="ko", target_language="en",
                              start_symbol="S", pairs=pairs,
                              particles=g_chase.particles)

    def test_duplicate_name_is_refused(self, g_chase):
        # accepted, a second alpha_tom_sp on "Mary i" made the canonical
        # sentence's derived tree yield Mary, an internal error
        mary = _singleton("alpha_tom_sp",
                          interior("SP", lex("N", "Mary"), lex("P", "i")),
                          target=interior("NP", lex("N", "Mary")))
        with pytest.raises(DuplicatePairNameError, match="alpha_tom_sp") as info:
            self.build(g_chase.pairs + (mary,), g_chase)
        assert info.value.code == "duplicate-name"

    def test_unanchored_pair_is_refused(self, g_chase):
        # accepted, S(S*) made the default use budget cut derivations
        # silently: each further use adds one, and yields no word
        ghost = _singleton("beta_ghost", interior("S", foot("S")))
        with pytest.raises(GrammarValidationError) as info:
            self.build(g_chase.pairs + (ghost,), g_chase)
        assert info.value.code == "validation-error"
        assert [(d.pair, d.rule) for d in info.value.diagnostics] == [
            ("beta_ghost", "unanchored")]

    def test_bad_head_index_is_refused(self, g_chase):
        # accepted, it made start_pairs raise a bare IndexError
        beta = g_chase.pair("beta_jerry_op")
        bad = beta._replace(source=beta.source._replace(head=5))
        with pytest.raises(GrammarValidationError) as info:
            self.build(tuple(bad if p is beta else p for p in g_chase.pairs),
                       g_chase)
        assert info.value.code == "validation-error"
        assert [(d.pair, d.rule) for d in info.value.diagnostics] == [
            ("beta_jerry_op", "head-index")]

    def test_every_diagnostic_comes_in_one_error(self, g_chase):
        # validation precedes the duplicate-name check, as in the loader
        ghost = _singleton("beta_ghost", interior("S", foot("S")))
        bad = _beta(priority=0)
        with pytest.raises(GrammarValidationError) as info:
            self.build(g_chase.pairs + (ghost, bad, bad), g_chase)
        assert [(d.pair, d.rule) for d in info.value.diagnostics] == [
            ("beta_ghost", "unanchored"), ("beta_x", "priority"),
            ("beta_x", "priority")]

    @pytest.mark.parametrize("form, message", [
        # accepted, "Spike Jerry-lul ccossnunta." failed on the pair anchored
        # on '' instead of naming the unknown word Spike
        ("", "particle form must be nonempty"),
        ("i-x", "particle form 'i-x' holds a hyphen or whitespace"),
        ("u l", "particle form 'u l' holds a hyphen or whitespace"),
        ("i", "particle form 'i' is listed twice"),
    ])
    def test_bad_particle_form_is_refused(self, g_chase, form, message):
        # checked before the pairs, as in the loader: the ghost pair would
        # be refused too
        ghost = _singleton("beta_ghost", interior("S", foot("S")))
        with pytest.raises(GrammarSchemaError) as info:
            stagmt.Grammar(source_language="ko", target_language="en",
                           start_symbol="S", pairs=g_chase.pairs + (ghost,),
                           particles=[*g_chase.particles, Particle(form, "x")])
        assert info.value.code == "schema-error"
        assert str(info.value) == f"particles[4].form: {message}"

    def test_fields_are_tuples(self, g_chase):
        grammar = stagmt.Grammar("ko", "en", "S", list(g_chase.pairs),
                                 list(g_chase.particles))
        assert type(grammar.pairs) is type(grammar.particles) is tuple
        assert grammar == g_chase


def test_obligatory_adjoin_value_is_modelled():
    tree = ElementaryTree(interior("S", interior(
        "VP", lex("V", "x"), adjoin=ADJOIN_OA)))
    node = tree.nodes[GornAddress.parse("1")]
    assert node.adjoin == ADJOIN_OA


def test_particle_record():
    assert Particle(form="lul", case="acc").case == "acc"


def test_every_validation_rule_has_a_case():
    """Each rule name the validator passes to diag() is named by some test."""
    found = ast.walk(ast.parse(Path(stagmt.model.__file__).read_text()))
    rules = {node.args[0].value for node in found if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "diag"}
    named = {node.value for path in Path(__file__).parent.glob("test_*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert rules
    assert sorted(rules - named) == []
