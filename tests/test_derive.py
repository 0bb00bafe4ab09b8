"""Composition: attachments, end checks, set constraints, canonical numbering."""

import inspect
import itertools
import sys

import pytest

from support import (CHASE_CANONICAL, DITRANS_CANONICAL, EMBEDDED_CANONICAL,
                     canonical, chain_sentence, check_set_constraints, foot,
                     interior, lex, lex_yield, preorder,
                     set_constraint_violations, subst, violations)

import stagmt.derive
from stagmt.derive import (
    Attachment,
    DNode,
    OP_ADJOIN,
    OP_SUBST,
    build_derived_tree,
    compose,
    make_derivation,
    render_derivation,
    render_tree,
)
from stagmt.errors import (
    CategoryMismatchError,
    DoubleAdjunctionError,
    GrammarError,
    IllegalAttachmentError,
    InternalError,
    NAViolationError,
    NotASlotError,
    ObligatoryAdjunctionError,
    UnfilledSlotError,
)
from stagmt.generator import realize, yield_surface
from stagmt.model import (
    ADJOIN_NA,
    ADJOIN_OA,
    KIND_FOOT,
    KIND_SUBST,
    ElementaryTree,
    GornAddress,
    Grammar,
    Link,
    SourceSet,
    SyncPair,
)
from stagmt.pipeline import translate_line
from stagmt.transfer import transfer_derivation

A = GornAddress.parse


def att(use, comp, host, host_comp, site, op):
    return Attachment(use=use, comp=comp, host=host, host_comp=host_comp,
                      site=A(site), op=op)


CANONICAL = make_derivation(
    ("gamma_chase", "alpha_tom_sp", "alpha_jerry_op"), 0, [
        att(1, 0, 0, 0, "1", OP_SUBST),
        att(2, 0, 0, 0, "2", OP_SUBST),
    ])

SCRAMBLED = make_derivation(
    ("beta_jerry_op", "gamma_chase", "alpha_tom_sp"), 1, [
        att(0, 0, 1, 0, "e", OP_ADJOIN),
        att(0, 1, 1, 0, "2", OP_SUBST),
        att(2, 0, 1, 0, "1", OP_SUBST),
    ])

# Both arguments scrambled: the second auxiliary stacks onto the first.
STACKED = make_derivation(
    ("beta_jerry_op", "beta_tom_sp", "gamma_chase"), 2, [
        att(0, 0, 1, 0, "e", OP_ADJOIN),
        att(0, 1, 2, 0, "2", OP_SUBST),
        att(1, 0, 2, 0, "e", OP_ADJOIN),
        att(1, 1, 2, 0, "1", OP_SUBST),
    ])

# The same tree with its two set uses numbered the other way round.
STACKED_RENUMBERED = make_derivation(
    ("beta_tom_sp", "beta_jerry_op", "gamma_chase"), 2, [
        att(0, 0, 2, 0, "e", OP_ADJOIN),
        att(0, 1, 2, 0, "1", OP_SUBST),
        att(1, 0, 0, 0, "e", OP_ADJOIN),
        att(1, 1, 2, 0, "2", OP_SUBST),
    ])


class TestBuildDerivedTree:
    def test_identity_composition(self, g_chase):
        lone = make_derivation(("alpha_tom_sp",), 0, [])
        tree = build_derived_tree(lone, g_chase)
        assert render_tree(tree, g_chase) == "(SP (N Tom) (P i))"
        assert lex_yield(tree) == ("Tom", "i")

    def test_canonical_sentence(self, g_chase):
        tree = build_derived_tree(CANONICAL, g_chase)
        assert render_tree(tree, g_chase) == (
            "(S (SP (N Tom) (P i)) (OP (N Jerry) (P lul)) (V ccossnunta))")
        assert lex_yield(tree) == ("Tom", "i", "Jerry", "lul", "ccossnunta")

    def test_scrambled_sentence(self, g_chase):
        tree = build_derived_tree(SCRAMBLED, g_chase)
        assert render_tree(tree, g_chase) == (
            "(S (OP<1> (N Jerry) (P lul)) "
            "(S (SP (N Tom) (P i)) (OP<1> e) (V ccossnunta)))")
        assert lex_yield(tree) == ("Jerry", "lul", "Tom", "i", "ccossnunta")

    def test_stacked_adjunction(self, g_chase):
        # coindexes follow first appearance in preorder, not use numbers
        for derivation in (STACKED, STACKED_RENUMBERED):
            tree = build_derived_tree(derivation, g_chase)
            assert render_tree(tree, g_chase) == (
                "(S (OP<1> (N Jerry) (P lul)) (S (SP<2> (N Tom) (P i)) "
                "(S (SP<2> e) (OP<1> e) (V ccossnunta))))")

    def test_cost_is_summed_priorities_above_one(self, g_chase):
        assert CANONICAL.cost(g_chase) == 0
        assert SCRAMBLED.cost(g_chase) == 1
        assert STACKED.cost(g_chase) == 2

    def test_unfilled_slot_rejected(self, g_chase):
        partial = make_derivation(("gamma_chase", "alpha_tom_sp"), 0, [
            att(1, 0, 0, 0, "1", OP_SUBST)])
        with pytest.raises(UnfilledSlotError):
            build_derived_tree(partial, g_chase)

    def test_double_adjunction_rejected(self, g_chase):
        both_at_root = make_derivation(
            ("beta_jerry_op", "beta_tom_sp", "gamma_chase"), 2, [
                att(0, 0, 2, 0, "e", OP_ADJOIN),
                att(0, 1, 2, 0, "2", OP_SUBST),
                att(1, 0, 2, 0, "e", OP_ADJOIN),
                att(1, 1, 2, 0, "1", OP_SUBST),
            ])
        with pytest.raises(DoubleAdjunctionError):
            build_derived_tree(both_at_root, g_chase)

    def test_category_mismatch_rejected(self, g_chase):
        crossed = make_derivation(
            ("gamma_chase", "alpha_tom_sp", "alpha_jerry_op"), 0, [
                att(1, 0, 0, 0, "2", OP_SUBST),
                att(2, 0, 0, 0, "1", OP_SUBST),
            ])
        with pytest.raises(CategoryMismatchError):
            build_derived_tree(crossed, g_chase)

    def test_unattached_component_rejected(self, g_chase):
        dangling = make_derivation(("gamma_chase", "alpha_tom_sp",
                                    "alpha_jerry_op", "alpha_jerry_sp"), 0, [
            att(1, 0, 0, 0, "1", OP_SUBST),
            att(2, 0, 0, 0, "2", OP_SUBST),
        ])
        with pytest.raises(IllegalAttachmentError):
            build_derived_tree(dangling, g_chase)

    def test_obligatory_adjunction_enforced(self):
        gamma = SyncPair(
            name="gamma_oa",
            source=SourceSet(components=(ElementaryTree(interior(
                "S", interior("VP", lex("V", "ran"), adjoin=ADJOIN_OA))),)),
            target=ElementaryTree(interior("S", lex("V", "ran"))))
        grammar = Grammar(pairs=[gamma], source_language="ko",
                          target_language="en", start_symbol="S",
                          particles=[])
        with pytest.raises(ObligatoryAdjunctionError):
            build_derived_tree(make_derivation(("gamma_oa",), 0, []), grammar)

    def test_substitution_into_lex_node_is_not_a_slot(self, g_chase):
        into_verb = make_derivation(
            ("gamma_chase", "alpha_tom_sp", "alpha_jerry_op"), 0, [
                att(1, 0, 0, 0, "3", OP_SUBST),
                att(2, 0, 0, 0, "2", OP_SUBST),
            ])
        with pytest.raises(NotASlotError):
            build_derived_tree(into_verb, g_chase)

    def test_substitution_at_a_component_root_rejected(self, g_chase):
        into_root = make_derivation(("alpha_tom_sp", "alpha_jerry_op"), 0, [
            att(1, 0, 0, 0, "e", OP_SUBST)])
        with pytest.raises(IllegalAttachmentError, match="has no parent"):
            build_derived_tree(into_root, g_chase)

    def test_filled_slot_cannot_be_refilled(self, g_chase):
        twice = make_derivation(
            ("gamma_chase", "alpha_tom_sp", "alpha_tom_sp"), 0, [
                att(1, 0, 0, 0, "1", OP_SUBST),
                att(2, 0, 0, 0, "1", OP_SUBST),
            ])
        with pytest.raises(IllegalAttachmentError, match="is already filled"):
            build_derived_tree(twice, g_chase)

    def test_cyclic_derivation_is_a_coded_error(self, g_chase):
        # each auxiliary adjoins into the other, so neither is reachable
        # from the root, though both place-holders fill its slots
        cyclic = make_derivation(
            ("gamma_chase", "beta_jerry_op", "beta_tom_sp"), 0, [
                att(1, 0, 2, 0, "e", OP_ADJOIN),
                att(1, 1, 0, 0, "2", OP_SUBST),
                att(2, 0, 1, 0, "e", OP_ADJOIN),
                att(2, 1, 0, 0, "1", OP_SUBST),
            ])
        with pytest.raises(IllegalAttachmentError, match="cyclic") as info:
            build_derived_tree(cyclic, g_chase)
        assert info.value.code == "illegal-attachment"

    def test_na_site_rejected(self):
        host = SyncPair(
            name="gamma_na",
            source=SourceSet(components=(ElementaryTree(interior(
                "S", interior("S", lex("V", "x"), adjoin=ADJOIN_NA))),)),
            target=ElementaryTree(interior("S", lex("V", "x"))))
        aux = SyncPair(
            name="beta_y",
            source=SourceSet(components=(ElementaryTree(
                interior("S", lex("A", "y"), foot("S"))),)),
            target=ElementaryTree(interior("S", lex("A", "y"), foot("S"))))
        grammar = Grammar(pairs=[host, aux], source_language="ko",
                          target_language="en", start_symbol="S",
                          particles=[])
        at_na = make_derivation(("gamma_na", "beta_y"), 0, [
            att(1, 0, 0, 0, "1", OP_ADJOIN)])
        with pytest.raises(NAViolationError):
            build_derived_tree(at_na, grammar)

    def test_adjoining_non_auxiliary_rejected(self, g_chase):
        initial = make_derivation(("gamma_chase", "alpha_tom_sp"), 0, [
            att(1, 0, 0, 0, "e", OP_ADJOIN)])
        with pytest.raises(IllegalAttachmentError, match="not auxiliary"):
            build_derived_tree(initial, g_chase)

    def test_adjunction_at_a_leaf_rejected(self, g_chase):
        at_verb = make_derivation(("gamma_chase", "beta_jerry_op"), 0, [
            att(1, 0, 0, 0, "3", OP_ADJOIN),
            att(1, 1, 0, 0, "2", OP_SUBST),
        ])
        with pytest.raises(IllegalAttachmentError, match="adjunction at lex node"):
            build_derived_tree(at_verb, g_chase)

    def test_adjunction_checks_category(self, g_chase):
        # beta_jerry_op's first component is S-rooted; alpha_tom_sp is SP
        at_sp = make_derivation(("alpha_tom_sp", "beta_jerry_op"), 0, [
            att(1, 0, 0, 0, "e", OP_ADJOIN),
            att(1, 1, 0, 0, "1", OP_SUBST),
        ])
        with pytest.raises(CategoryMismatchError):
            build_derived_tree(at_sp, g_chase)

    def test_bad_address_rejected(self, g_chase):
        nowhere = make_derivation(
            ("gamma_chase", "alpha_tom_sp", "alpha_jerry_op"), 0, [
                att(1, 0, 0, 0, "7.7", OP_SUBST),
                att(2, 0, 0, 0, "2", OP_SUBST),
            ])
        with pytest.raises(IllegalAttachmentError, match="no node at site"):
            build_derived_tree(nowhere, g_chase)

    # compose's shape checks, the same on the source and the target side
    # (the target trees of these pairs take the same attachments); a
    # duplicate (use, comp) is reported alike whichever of its attachments
    # comes first
    @pytest.mark.parametrize("uses, root, attachments, message", [
        (("alpha_tom_sp",), 1, [], "root index 1 out of range"),
        (("gamma_chase", "alpha_tom_sp"), 0, [att(2, 0, 0, 0, "1", OP_SUBST)],
         "attachment references unknown use (2, 0)"),
        (("gamma_chase", "alpha_tom_sp"), 0, [att(1, 0, 5, 0, "1", OP_SUBST)],
         "attachment references unknown use (1, 5)"),
        (("gamma_chase", "alpha_tom_sp"), 0, [att(1, 1, 0, 0, "1", OP_SUBST)],
         "use 1 has no component 1"),
        (("gamma_chase", "alpha_tom_sp"), 0, [att(1, 0, 0, 3, "1", OP_SUBST)],
         "use 0 has no component 3"),
        (("gamma_chase", "alpha_tom_sp"), 0, [att(1, 0, 0, 0, "1", "graft")],
         "unknown operation 'graft'"),
        (("gamma_chase", "alpha_tom_sp"), 0, [att(1, 0, 0, 0, "1", OP_SUBST),
                                              att(1, 0, 0, 0, "2", OP_SUBST)],
         "component (1, 0) attaches twice"),
        (("gamma_chase", "alpha_tom_sp"), 0, [att(1, 0, 0, 0, "2", OP_SUBST),
                                              att(1, 0, 0, 0, "1", OP_SUBST)],
         "component (1, 0) attaches twice"),
        (("alpha_tom_sp",), 0, [att(0, 0, 0, 0, "e", OP_ADJOIN)],
         "root head component must not attach anywhere"),
    ], ids=["root-out-of-range", "unknown-use", "unknown-host",
            "no-such-component", "no-such-host-component", "unknown-operation",
            "attaches-twice", "attaches-twice-swapped", "root-head-attaches"])
    def test_ill_formed_shape_rejected(self, g_chase, uses, root, attachments,
                                       message):
        derivation = make_derivation(uses, root, attachments)
        for build in (build_derived_tree, realize):
            with pytest.raises(IllegalAttachmentError) as info:
                build(derivation, g_chase)
            assert (info.value.code, str(info.value)) == ("illegal-attachment", message)

    def test_unknown_pair_is_a_coded_error(self, g_chase):
        nameless = make_derivation(["nope"], 0, [])
        for build in (build_derived_tree, realize):
            with pytest.raises(GrammarError) as info:
                build(nameless, g_chase)
            assert (info.value.code, str(info.value)) == (
                "grammar-error", "the grammar has no pair named 'nope'")


def splice(grammar, names, attachments, root):
    """Compose source components of the named pairs; root is (use, comp)."""
    return compose([grammar.pair(name).source.components for name in names],
                   make_derivation(names, root[0], attachments), root[1])


def instance_roots(tree):
    """Each (use, comp)'s instance root in a composed tree, checked to be one."""
    roots = {}
    for node in preorder(tree):
        if node.addr.is_root:
            assert (node.use, node.comp) not in roots
            roots[node.use, node.comp] = node
    return roots


class TestWorkingTreeOps:
    """Substitution and adjunction, read off the composed tree."""

    def test_substitution_fills_slot(self, g_chase):
        tree = splice(g_chase, ("gamma_chase", "alpha_tom_sp", "alpha_jerry_op"),
                      [att(1, 0, 0, 0, "1", OP_SUBST), att(2, 0, 0, 0, "2", OP_SUBST)],
                      (0, 0))
        roots = instance_roots(tree)
        assert tree.root is roots[0, 0]
        # the slots are gone, their fillers in their place
        assert not any(node.kind == KIND_SUBST for node in preorder(tree))
        assert (0, 0, A("1")) not in {(node.use, node.comp, node.addr)
                                      for node in preorder(tree)}
        sp = tree.root.children[0]
        assert sp is roots[1, 0]
        assert sp.word is None  # SP phrase, not the slot
        assert sp.children[0].word == "Tom"

    def test_substitution_checks_category(self, g_chase):
        # SP-rooted alpha_tom_sp into gamma_chase's OP slot
        with pytest.raises(CategoryMismatchError):
            splice(g_chase, ("gamma_chase", "alpha_tom_sp"),
                   [att(1, 0, 0, 0, "2", OP_SUBST)], (0, 0))

    def test_adjunction_at_root_returns_new_root(self, g_chase):
        tree = splice(g_chase, ("beta_jerry_op", "gamma_chase", "alpha_tom_sp"),
                      [att(0, 0, 1, 0, "e", OP_ADJOIN),
                       att(0, 1, 1, 0, "2", OP_SUBST),
                       att(2, 0, 1, 0, "1", OP_SUBST)],
                      (1, 0))
        roots = instance_roots(tree)
        host = roots[1, 0]
        assert tree.root is roots[0, 0]
        assert tree.root.children[1] is host  # the host took the foot's place
        assert not any(node.kind == KIND_FOOT for node in preorder(tree))
        assert host.children[0] is roots[2, 0]

    def test_double_adjunction_rejected(self, g_chase):
        with pytest.raises(DoubleAdjunctionError):
            splice(g_chase, ("gamma_chase", "beta_jerry_op", "beta_tom_sp"),
                   [att(1, 0, 0, 0, "e", OP_ADJOIN),
                    att(2, 0, 0, 0, "e", OP_ADJOIN)],
                   (0, 0))

    def test_stacking_at_the_new_root_is_fine(self, g_chase):
        tree = splice(g_chase, ("gamma_chase", "beta_jerry_op", "beta_tom_sp"),
                      [att(1, 0, 0, 0, "e", OP_ADJOIN),
                       att(1, 1, 0, 0, "2", OP_SUBST),
                       att(2, 0, 1, 0, "e", OP_ADJOIN),
                       att(2, 1, 0, 0, "1", OP_SUBST)],
                      (0, 0))
        roots = instance_roots(tree)
        jerry = roots[1, 0]
        assert tree.root is roots[2, 0]
        assert tree.root.children[1] is jerry
        assert jerry.children[1] is roots[0, 0]


@pytest.mark.parametrize("name, line", [("chase", CHASE_CANONICAL),
                                        ("ditransitive", DITRANS_CANONICAL),
                                        ("embedded", EMBEDDED_CANONICAL)])
def test_nodes_are_built_only_when_read(name, line, monkeypatch, request):
    built = []

    class Counted(DNode):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(stagmt.derive, "DNode", Counted)
    grammar = request.getfixturevalue(f"g_{name}")
    best = translate_line(line, grammar).best
    assert built == []  # translating reads words, spans and order only
    root = best.source.root
    assert built[0] is root
    assert len(built) == sum(1 for _ in preorder(best.source))
    assert best.source.root is root  # kept: a second read builds nothing
    assert built == list(preorder(best.source))


def test_composition_does_not_recurse(g_embedded):
    # 123 uses; a recursive composer needs a frame per level of the tree
    source = translate_line(chain_sentence(60), g_embedded).best.source
    derivation = source.derivation
    assert len(derivation.uses) == 123
    rendered = render_tree(source, g_embedded)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        tree = build_derived_tree(derivation, g_embedded)
        assert canonical(tree) == derivation
        assert violations(tree, g_embedded) == []
        assert render_tree(tree, g_embedded) == rendered
        target = realize(transfer_derivation(derivation, g_embedded), g_embedded)
    finally:
        sys.setrecursionlimit(limit)
    assert yield_surface(target) == "Mary says " * 60 + "Tom chases Jerry."


class TestCheckSetConstraints:
    def test_valid_derivations_pass(self, g_chase):
        for derivation in (CANONICAL, SCRAMBLED, STACKED):
            assert check_set_constraints(derivation, g_chase)
            assert set_constraint_violations(derivation, g_chase) == []

    def test_place_holder_alone_is_missing_component(self, g_chase):
        only_place_holder = make_derivation(
            ("gamma_chase", "alpha_tom_sp", "beta_jerry_op"), 0, [
                att(1, 0, 0, 0, "1", OP_SUBST),
                att(2, 1, 0, 0, "2", OP_SUBST),
            ])
        assert not check_set_constraints(only_place_holder, g_chase)
        violations = set_constraint_violations(only_place_holder, g_chase)
        assert any("missing component" in v for v in violations)

    def test_uncomposable_derivation_reported_not_raised(self, g_chase):
        crossed = make_derivation(
            ("gamma_chase", "alpha_tom_sp", "alpha_jerry_op"), 0, [
                att(1, 0, 0, 0, "2", OP_SUBST),
                att(2, 0, 0, 0, "1", OP_SUBST),
            ])
        assert not check_set_constraints(crossed, g_chase)
        violations = set_constraint_violations(crossed, g_chase)
        assert any("category" in v for v in violations)

    def test_dominance_failure_reported(self):
        # The set {S(X(x) S*), B(y)} requires its B component to dominate its
        # auxiliary; substituted into the host the auxiliary adjoins at, B
        # lands below it.
        host = SyncPair(
            name="gamma_z",
            source=SourceSet(components=(ElementaryTree(
                interior("S", subst("B"), lex("Z", "z"))),)),
            target=ElementaryTree(interior("S", subst("B"), lex("Z", "z"))),
            links=(Link(comp=0, src=A("1"), tgt=A("1")),))
        scrambled = SyncPair(
            name="beta_xy",
            source=SourceSet(components=(
                ElementaryTree(interior("S", lex("X", "x"), foot("S"))),
                ElementaryTree(interior("B", lex("Y", "y")))),
                head=0, dominance=((1, 0),)),
            target=ElementaryTree(interior("S", foot("S"))))
        grammar = Grammar(pairs=[host, scrambled], source_language="ko",
                          target_language="en", start_symbol="S",
                          particles=[])
        below = make_derivation(("gamma_z", "beta_xy"), 0, [
            att(1, 0, 0, 0, "e", OP_ADJOIN),
            att(1, 1, 0, 0, "1", OP_SUBST),
        ])
        assert not check_set_constraints(below, grammar)
        violations = set_constraint_violations(below, grammar)
        assert any("dominance" in v for v in violations)


class TestCanonicalize:
    def test_frozen_derivations_are_fixed_points(self, g_chase):
        for derivation in (CANONICAL, SCRAMBLED, STACKED):
            assert canonical(build_derived_tree(derivation, g_chase)) == derivation

    def test_use_renumbering_is_quotiented_away(self, g_chase):
        base = SCRAMBLED
        n = len(base.uses)
        for perm in itertools.permutations(range(n)):
            relabeled = make_derivation(
                tuple(base.uses[perm.index(i)] for i in range(n)),
                perm[base.root],
                [Attachment(use=perm[a.use], comp=a.comp, host=perm[a.host],
                            host_comp=a.host_comp, site=a.site, op=a.op)
                 for a in base.attachments])
            assert canonical(build_derived_tree(relabeled, g_chase)) == base

    def test_tree_is_relabelled_when_read(self, g_chase):
        base = STACKED
        relabeled = make_derivation(
            tuple(reversed(base.uses)), len(base.uses) - 1 - base.root,
            [Attachment(use=len(base.uses) - 1 - a.use, comp=a.comp,
                        host=len(base.uses) - 1 - a.host,
                        host_comp=a.host_comp, site=a.site, op=a.op)
             for a in base.attachments])
        tree = build_derived_tree(relabeled, g_chase)
        rendered = render_tree(tree, g_chase)
        before = [(node.cat, node.addr, node.use) for node in preorder(tree)]
        assert canonical(tree) == base
        assert tree.derivation == base
        assert render_tree(tree, g_chase) == rendered
        # the nodes read after canonicalizing are numbered by the canonical
        # derivation: use u of the input is use n - 1 - u
        n = len(base.uses)
        assert [(cat, addr, n - 1 - use) for cat, addr, use in before] == [
            (node.cat, node.addr, node.use) for node in preorder(tree)]
        assert set(instance_roots(tree)) == {
            (use, comp) for use, name in enumerate(base.uses)
            for comp in range(g_chase.pair(name).n_components)}

    def test_use_missing_from_the_tree_is_an_internal_error(self, g_chase):
        tree = build_derived_tree(CANONICAL, g_chase)
        tree.derivation = make_derivation(
            CANONICAL.uses + ("alpha_tom_sp",), CANONICAL.root,
            CANONICAL.attachments)
        with pytest.raises(InternalError, match="lacks 1 of its 4 uses"):
            canonical(tree)



class TestRenderDerivation:
    def test_canonical(self, g_chase):
        assert render_derivation(CANONICAL, g_chase) == (
            "u0 gamma_chase (root)\n"
            "u1 alpha_tom_sp: subst u0/c0@1\n"
            "u2 alpha_jerry_op: subst u0/c0@2")

    def test_scrambled_names_both_components(self, g_chase):
        assert render_derivation(SCRAMBLED, g_chase) == (
            "u0 beta_jerry_op: c0 adjoin u1/c0@e, c1 subst u1/c0@2\n"
            "u1 gamma_chase (root)\n"
            "u2 alpha_tom_sp: subst u1/c0@1")


def test_make_derivation_sorts_attachments(g_chase):
    shuffled = make_derivation(SCRAMBLED.uses, SCRAMBLED.root,
                               SCRAMBLED.attachments[::-1])
    assert shuffled == SCRAMBLED
