"""Source derivation -> target derivation, via links and the root rule."""

import pytest

from support import (AMBIGUOUS_FRONTED, AMBIGUOUS_GRAMMAR, CHASE_CANONICAL,
                     CHASE_SCRAMBLED, DITRANS_CANONICAL, EMBEDDED_CANONICAL,
                     EMBEDDED_FRONTED, empty, foot, interior, lex, lex_yield,
                     subst)

from stagmt.derive import (OP_ADJOIN, OP_SUBST, Attachment, build_derived_tree,
                           make_derivation)
from stagmt.errors import (DanglingUseError, GrammarError,
                           UntranslatableAttachmentError)
from stagmt.grammar_io import load_grammar
from stagmt.generator import realize
from stagmt.model import (
    ROOT,
    ElementaryTree,
    GornAddress,
    Grammar,
    Link,
    SourceSet,
    SyncPair,
)
from stagmt.morphotok import tokenize
from stagmt.parser import parse
from stagmt.pipeline import translate_line
from stagmt.transfer import target_key, transfer_derivation, transfer_steps


def att(use, comp, host, host_comp, site, op):
    return Attachment(use=use, comp=comp, host=host, host_comp=host_comp,
                      site=GornAddress.parse(site), op=op)


CANONICAL = make_derivation(
    ("gamma_chase", "alpha_tom_sp", "alpha_jerry_op"), 0,
    [att(1, 0, 0, 0, "1", OP_SUBST), att(2, 0, 0, 0, "2", OP_SUBST)])

SCRAMBLED = make_derivation(
    ("beta_jerry_op", "gamma_chase", "alpha_tom_sp"), 1,
    [att(0, 0, 1, 0, "e", OP_ADJOIN), att(0, 1, 1, 0, "2", OP_SUBST),
     att(2, 0, 1, 0, "1", OP_SUBST)])

STACKED = make_derivation(
    ("beta_jerry_op", "beta_tom_sp", "gamma_chase"), 2,
    [att(0, 0, 1, 0, "e", OP_ADJOIN), att(0, 1, 2, 0, "2", OP_SUBST),
     att(1, 0, 2, 0, "e", OP_ADJOIN), att(1, 1, 2, 0, "1", OP_SUBST)])


class TestResolveAttachment:
    # Grammar.target_sites is the table transfer reads: (pair, component,
    # source address) -> target address
    def test_linked_sites(self, g_chase):
        sites = g_chase.target_sites
        assert sites["gamma_chase", 0, GornAddress.parse("1")] == GornAddress.parse("1")
        assert sites["gamma_chase", 0, GornAddress.parse("2")] == GornAddress.parse("2.2")
        # the root rule: the head component's root maps to the target root
        assert sites["gamma_chase", 0, ROOT] == ROOT

    def test_unlinked_site_is_none(self, g_chase):
        # the verb's node is neither linked nor the head's root
        assert g_chase.target_sites.get(("gamma_chase", 0, GornAddress.parse("3"))) is None

    def test_wrong_component_is_none(self, g_chase):
        assert g_chase.target_sites.get(("gamma_chase", 1, GornAddress.parse("1"))) is None

    def test_ditransitive_links_swap_object_order(self, g_ditransitive):
        give = g_ditransitive.pair("gamma_give")
        pairs = {str(l.src): str(l.tgt) for l in give.links}
        assert pairs == {"1": "1", "2": "2.3", "3": "2.2"}


class TestCanonicalTransfer:
    def test_attachments(self, g_chase):
        td = transfer_derivation(CANONICAL, g_chase)
        assert td.uses == CANONICAL.uses
        assert td.root == 0
        assert td.attachments == (att(1, 0, 0, 0, "1", OP_SUBST),
                                  att(2, 0, 0, 0, "2.2", OP_SUBST))

    def test_steps_trace_the_links(self, g_chase):
        steps = transfer_steps(CANONICAL, transfer_derivation(CANONICAL, g_chase),
                               g_chase)
        assert steps == [
            "u1 alpha_tom_sp: source u0/c0@1 -> target u0@1 (subst)",
            "u2 alpha_jerry_op: source u0/c0@2 -> target u0@2.2 (subst)"]


class TestScrambledTransfer:
    def test_place_holder_site_drives_the_mapping(self, g_chase):
        td = transfer_derivation(SCRAMBLED, g_chase)
        assert td.root == 1
        assert td.attachments == (att(0, 0, 1, 0, "2.2", OP_SUBST),
                                  att(2, 0, 1, 0, "1", OP_SUBST))

    def test_fronting_leaves_no_target_trace(self, g_chase):
        td = transfer_derivation(SCRAMBLED, g_chase)
        assert all(a.op == OP_SUBST for a in td.attachments)
        assert len(transfer_steps(SCRAMBLED, td, g_chase)) == len(td.attachments) == 2

    def test_same_landing_sites_as_canonical(self, g_chase):
        def shape(derivation):
            td = transfer_derivation(derivation, g_chase)
            return {(td.uses[a.use].replace("beta_", "alpha_"),
                     td.uses[a.host], str(a.site), a.op)
                    for a in td.attachments}

        assert shape(SCRAMBLED) == shape(CANONICAL)
        assert shape(STACKED) == shape(CANONICAL)


    def test_link_on_a_non_head_component_is_read(self, g_chase):
        # the fronted object has a determiner slot, linked from the set's
        # auxiliary (component 0), not from its head place-holder
        det_jerry = SyncPair(
            name="beta_det_jerry_op",
            source=SourceSet(
                components=(
                    ElementaryTree(interior(
                        "S", interior("OP", subst("D"), lex("N", "Jerry"),
                                      lex("P", "lul"), feats={"trace": "@set"}),
                        foot("S"))),
                    ElementaryTree(interior("OP", empty(), feats={"trace": "@set"}))),
                head=1, dominance=((0, 1),)),
            target=ElementaryTree(interior("NP", subst("D"), lex("N", "Jerry"))),
            links=(Link(comp=0, src=GornAddress.parse("1.1"),
                        tgt=GornAddress.parse("1")),),
            priority=2)
        that = SyncPair(
            name="alpha_ku",
            source=SourceSet((ElementaryTree(interior("D", lex("DET", "ku"))),)),
            target=ElementaryTree(interior("D", lex("DET", "that"))))
        grammar = Grammar(
            pairs=g_chase.pairs + (det_jerry, that), source_language="ko",
            target_language="en", start_symbol="S", particles=g_chase.particles)
        d = make_derivation(
            ("gamma_chase", "alpha_tom_sp", "beta_det_jerry_op", "alpha_ku"), 0,
            [att(1, 0, 0, 0, "1", OP_SUBST), att(2, 0, 0, 0, "e", OP_ADJOIN),
             att(2, 1, 0, 0, "2", OP_SUBST), att(3, 0, 2, 0, "1.1", OP_SUBST)])
        assert lex_yield(build_derived_tree(d, grammar)) == (
            "ku", "Jerry", "lul", "Tom", "i", "ccossnunta")
        td = transfer_derivation(d, grammar)
        assert att(3, 0, 2, 0, "1", OP_SUBST) in td.attachments


class TestLongDistanceTransfer:
    def test_fronted_embedded_object_lands_in_the_embedded_clause(self, g_embedded):
        def shape(line):
            (d,) = parse(tokenize(line, g_embedded), g_embedded)[0].derivations
            td = transfer_derivation(d, g_embedded)
            return {(td.uses[a.use], td.uses[a.host], str(a.site), a.op)
                    for a in td.attachments}

        fronted = shape(EMBEDDED_FRONTED)
        assert ("beta_jerry_op", "gamma_chase", "2.2", OP_SUBST) in fronted
        canonical = {(n.replace("beta_", "alpha_"), h, s, o)
                     for n, h, s, o in fronted}
        assert canonical == shape(EMBEDDED_CANONICAL)


def best_target(line, grammar):
    return translate_line(line, grammar).best.target


class TestTargetKey:
    def test_scrambled_order_shares_the_canonical_key(self, g_chase):
        # the fronted object's pair differs from the canonical one, but its
        # target tree is equal, so the two derivations are one translation
        canonical = best_target(CHASE_CANONICAL, g_chase)
        scrambled = best_target(CHASE_SCRAMBLED, g_chase)
        assert canonical.derivation.uses != scrambled.derivation.uses
        assert target_key(canonical, g_chase) == target_key(scrambled, g_chase)

    def test_renumbering_keeps_the_key(self, g_embedded):
        source = translate_line(EMBEDDED_FRONTED, g_embedded).best.source
        target = transfer_derivation(source.derivation, g_embedded)
        last = len(target.uses) - 1  # use u becomes use last - u
        renumbered = make_derivation(
            target.uses[::-1], last - target.root,
            [a._replace(use=last - a.use, host=last - a.host)
             for a in target.attachments])
        assert renumbered != target
        assert (target_key(realize(renumbered, g_embedded), g_embedded)
                == target_key(realize(target, g_embedded), g_embedded))

    def test_readings_that_swap_the_subjects_differ(self, g_embedded):
        # Mary-ka and Tom-i are both nominative, so the order decides who
        # says and who chases
        swapped = "Tom-i Mary-ka Jerry-lul ccossnunta malhanta."
        assert (target_key(best_target(EMBEDDED_CANONICAL, g_embedded), g_embedded)
                != target_key(best_target(swapped, g_embedded), g_embedded))


@pytest.fixture()
def g_adverb(g_chase):
    """chase plus a singleton auxiliary with no link for its site."""
    really = SyncPair(
        name="beta_really",
        source=SourceSet((ElementaryTree(
            interior("S", lex("ADV", "cengmal"), foot("S"))),)),
        target=ElementaryTree(
            interior("S", lex("ADV", "really"), foot("S"))),
        priority=1)
    return Grammar(
        pairs=g_chase.pairs + (really,),
        source_language="ko", target_language="en",
        start_symbol="S", particles=g_chase.particles)


class TestRootRule:
    def test_root_adjunction_maps_to_target_root(self, g_adverb):
        d = make_derivation(
            ("gamma_chase", "alpha_tom_sp", "alpha_jerry_op", "beta_really"), 0,
            [att(1, 0, 0, 0, "1", OP_SUBST), att(2, 0, 0, 0, "2", OP_SUBST),
             att(3, 0, 0, 0, "e", OP_ADJOIN)])
        td = transfer_derivation(d, g_adverb)
        assert att(3, 0, 0, 0, "e", OP_ADJOIN) in td.attachments


class TestFailures:
    def test_unlinked_slot_is_untranslatable(self, g_adverb):
        # the root of the scrambled auxiliary, a non-head component, is
        # neither linked nor its pair's head root
        d = make_derivation(
            ("gamma_chase", "alpha_tom_sp", "beta_jerry_op", "beta_really"), 0,
            [att(1, 0, 0, 0, "1", OP_SUBST), att(2, 0, 0, 0, "e", OP_ADJOIN),
             att(2, 1, 0, 0, "2", OP_SUBST), att(3, 0, 2, 0, "e", OP_ADJOIN)])
        assert lex_yield(build_derived_tree(d, g_adverb)) == (
            "cengmal", "Jerry", "lul", "Tom", "i", "ccossnunta")
        with pytest.raises(UntranslatableAttachmentError) as info:
            transfer_derivation(d, g_adverb)
        assert str(info.value) == (
            "use 3 (beta_really) attaches at u2/c0@e, which maps to no "
            "target node of beta_jerry_op")

    def test_dangling_use(self, g_chase):
        d = make_derivation(
            ("gamma_chase", "alpha_tom_sp", "alpha_jerry_op"), 0,
            [att(1, 0, 0, 0, "1", OP_SUBST)])
        with pytest.raises(DanglingUseError, match="alpha_jerry_op"):
            transfer_derivation(d, g_chase)


class TestPairTable:
    """The translate path reads each use's pair from ``Grammar.pair_by_name``,
    where an unknown name is still the coded grammar-error."""

    @pytest.mark.parametrize("source, line", [
        ("chase", CHASE_SCRAMBLED), ("ditransitive", DITRANS_CANONICAL),
        ("embedded", EMBEDDED_FRONTED), (str(AMBIGUOUS_GRAMMAR), AMBIGUOUS_FRONTED)])
    def test_translating_calls_no_pair_lookup(self, source, line, monkeypatch):
        grammar = load_grammar(source)
        first = translate_line(line, grammar, all_levels=True)  # builds the tables
        calls = []
        monkeypatch.setattr(Grammar, "pair", lambda self, name: calls.append(name))
        again = translate_line(line, grammar, all_levels=True)
        assert again.translations == first.translations
        assert [c.source.derivation for c in again.candidates] == [
            c.source.derivation for c in first.candidates]
        assert calls == []

    def test_unknown_pair_is_a_coded_error(self, g_chase):
        nameless = make_derivation(["nope"], 0, [])
        for read in (nameless.cost, lambda g: transfer_derivation(nameless, g)):
            with pytest.raises(GrammarError) as info:
                read(g_chase)
            assert (info.value.code, str(info.value)) == (
                "grammar-error", "the grammar has no pair named 'nope'")
