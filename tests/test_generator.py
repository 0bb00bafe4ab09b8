"""Realization of target derivations and surface read-out."""

import gc

import pytest

from support import (
    CHASE_CANONICAL,
    CHASE_SCRAMBLED,
    DITRANS_CANONICAL,
    EMBEDDED_CANONICAL,
    EMBEDDED_FRONTED,
    EMBEDDED_MEDIAL,
    foot,
    interior,
    lex,
)

from stagmt.derive import (
    OP_ADJOIN,
    OP_SUBST,
    Attachment,
    DerivedTree,
    build_derived_tree,
    make_derivation,
    render_tree,
)
from stagmt.errors import (
    IllegalAttachmentError,
    ObligatoryAdjunctionError,
    UnfilledSlotError,
)
from stagmt.generator import realize, yield_surface
from stagmt.model import (
    ADJOIN_OA,
    ElementaryTree,
    GornAddress,
    Grammar,
    SourceSet,
    SyncPair,
)
from stagmt.pipeline import translate_line
from stagmt.transfer import transfer_derivation


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


def realize_source(line, grammar):
    """The best translation of one line."""
    return translate_line(line, grammar).best


class TestRealize:
    def test_canonical_target_tree(self, g_chase):
        tree = realize(transfer_derivation(CANONICAL, g_chase), g_chase)
        assert (render_tree(tree, g_chase)
                == "(S (NP (N Tom)) (VP (V chases) (NP (N Jerry))))")

    def test_scrambled_realizes_the_same_tree(self, g_chase):
        canonical = realize(transfer_derivation(CANONICAL, g_chase), g_chase)
        scrambled = realize(transfer_derivation(SCRAMBLED, g_chase), g_chase)
        assert render_tree(scrambled, g_chase) == render_tree(canonical, g_chase)

    def test_unfilled_slot(self, g_chase):
        td = make_derivation(("gamma_chase", "alpha_tom_sp"), 0,
                             [att(1, 0, 0, 0, "1", OP_SUBST)])
        with pytest.raises(UnfilledSlotError):
            realize(td, g_chase)

    def test_adjoining_an_initial_target_fails(self, g_chase):
        td = make_derivation(("gamma_chase", "alpha_tom_sp", "alpha_jerry_op"), 0,
                             [att(1, 0, 0, 0, "1", OP_SUBST),
                              att(2, 0, 0, 0, "2.2", OP_ADJOIN)])
        with pytest.raises(IllegalAttachmentError, match="not auxiliary"):
            realize(td, g_chase)

    def test_stranded_foot(self, g_chase):
        dangler = SyncPair(
            name="beta_really",
            source=SourceSet((ElementaryTree(
                interior("S", lex("ADV", "cengmal"), foot("S"))),)),
            target=ElementaryTree(
                interior("S", lex("ADV", "really"), foot("S"))),
            priority=1)
        doctored = Grammar(
            pairs=g_chase.pairs + (dangler,),
            source_language="ko", target_language="en",
            start_symbol="S", particles=g_chase.particles)
        td = make_derivation(("beta_really",), 0, [])
        with pytest.raises(IllegalAttachmentError, match="stranded foot"):
            realize(td, doctored)

    def test_obligatory_adjunction_enforced(self, g_chase):
        # the target side runs the same end checks as the source side
        ran = SyncPair(
            name="gamma_ran",
            source=SourceSet((ElementaryTree(interior("S", lex("V", "ttwinta"))),)),
            target=ElementaryTree(interior(
                "S", interior("VP", lex("V", "ran"), adjoin=ADJOIN_OA))))
        doctored = Grammar(
            pairs=g_chase.pairs + (ran,),
            source_language="ko", target_language="en",
            start_symbol="S", particles=g_chase.particles)
        td = make_derivation(("gamma_ran",), 0, [])
        with pytest.raises(ObligatoryAdjunctionError):
            realize(td, doctored)


class TestYieldSurface:
    def test_target_surface(self, g_chase):
        tree = realize(transfer_derivation(CANONICAL, g_chase), g_chase)
        assert yield_surface(tree) == "Tom chases Jerry."
        assert yield_surface(tree, punct="") == "Tom chases Jerry"

    def test_source_surface_restores_hyphens(self, g_chase):
        tree = build_derived_tree(CANONICAL, g_chase)
        assert yield_surface(tree) == "Tom-i Jerry-lul ccossnunta."

    def test_empty_leaves_are_silent(self, g_chase):
        tree = build_derived_tree(SCRAMBLED, g_chase)
        assert yield_surface(tree) == "Jerry-lul Tom-i ccossnunta."


class TestTranslations:
    def test_canonical_and_scrambled_agree(self, g_chase):
        assert realize_source(CHASE_CANONICAL, g_chase).surface == "Tom chases Jerry."
        assert realize_source(CHASE_SCRAMBLED, g_chase).surface == "Tom chases Jerry."

    def test_ditransitive(self, g_ditransitive):
        assert (realize_source(DITRANS_CANONICAL, g_ditransitive).surface
                == "Tom gives Jerry to Mary.")

    def test_embedded_all_orders_agree(self, g_embedded):
        expected = "Mary says Tom chases Jerry."
        for line in (EMBEDDED_CANONICAL, EMBEDDED_FRONTED, EMBEDDED_MEDIAL):
            assert realize_source(line, g_embedded).surface == expected

    def test_terminator_carries_over(self, g_chase):
        bare = translate_line("Tom-i Jerry-lul ccossnunta", g_chase)
        assert bare.best.surface == "Tom chases Jerry"

    def test_finished_trees_leave_no_reference_cycles(self, g_chase, g_embedded):
        # reference counting alone must free every tree a translation built
        lines = ((CHASE_SCRAMBLED, g_chase), (EMBEDDED_FRONTED, g_embedded),
                 (EMBEDDED_CANONICAL, g_embedded))
        for line, grammar in lines:  # the first pass fills grammar caches
            translate_line(line, grammar, all_levels=True)
        gc.collect()
        gc.disable()
        try:
            for line, grammar in lines:
                translate_line(line, grammar)
                translate_line(line, grammar, all_levels=True)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_result_shape(self, g_chase):
        result = translate_line(CHASE_CANONICAL, g_chase, all_levels=True)
        assert result.translations == ("Tom chases Jerry.",)
        assert [c.cost for c in result.candidates] == [0, 1, 2]
        assert isinstance(result.best.target, DerivedTree)
        assert render_tree(result.best.source, g_chase) == (
            "(S (SP (N Tom) (P i)) (OP (N Jerry) (P lul)) (V ccossnunta))")
