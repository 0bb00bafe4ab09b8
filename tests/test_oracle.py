"""The blind enumerator, and its referee role against the chart parser."""

import pytest

from support import (
    AMBIGUOUS_GRAMMAR,
    AMBIGUOUS_WORDS,
    CHASE_CANONICAL,
    CHASE_NEGATIVES,
    CHASE_SCRAMBLED,
    DITRANS_CANONICAL,
    EMBEDDED_FRONTED,
    corpus,
    empty,
    foot,
    interior,
    lex,
    permutation_closure,
    preorder,
    subst,
)

import stagmt.parser
from stagmt import oracle
from stagmt.derive import (OP_ADJOIN, OP_SUBST, Attachment, build_derived_tree,
                           dominance_violations, make_derivation, ranking_key,
                           render_derivation, render_tree)
from stagmt.errors import GrammarValidationError, OracleBoundError, StagError
from stagmt.grammar_io import load_grammar
from stagmt.model import (
    ADJOIN_NA,
    ADJOIN_OA,
    ElementaryTree,
    GornAddress,
    Grammar,
    Link,
    SourceSet,
    SyncPair,
)
from stagmt.morphotok import tokenize
from stagmt.oracle import OracleBound, assert_equivalence, brute_force_derivations
from stagmt.parser import all_derivations, parse


class TestBruteForce:
    def test_matches_parser_exactly_on_canonical(self, g_chase):
        sentence = tokenize(CHASE_CANONICAL, g_chase)
        assert (brute_force_derivations(sentence, g_chase)
                == all_derivations(sentence, g_chase))

    def test_matches_parser_exactly_on_scrambled(self, g_chase):
        sentence = tokenize(CHASE_SCRAMBLED, g_chase)
        assert (brute_force_derivations(sentence, g_chase)
                == all_derivations(sentence, g_chase))

    def test_rejects_what_the_parser_rejects(self, g_chase):
        for line in CHASE_NEGATIVES:
            sentence = tokenize(line, g_chase)
            assert brute_force_derivations(sentence, g_chase) == ()


class TestBounds:
    def test_too_many_lexical_items(self, g_chase):
        sentence = tokenize(CHASE_CANONICAL, g_chase)  # five lexical items
        with pytest.raises(OracleBoundError):
            brute_force_derivations(sentence, g_chase,
                                    OracleBound(max_uses=2))

    def test_too_many_configurations(self, g_chase, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_CONFIGS", 1)
        sentence = tokenize(CHASE_SCRAMBLED, g_chase)
        with pytest.raises(OracleBoundError, match="configurations"):
            brute_force_derivations(sentence, g_chase)

    def test_anchorless_pair_is_refused(self, g_chase):
        ghost = SyncPair(
            name="beta_ghost",
            source=SourceSet((ElementaryTree(interior("S", foot("S"))),)),
            target=ElementaryTree(interior("S", foot("S"))),
            priority=2)
        # the oracle's enumeration is exhaustive only over anchored pairs,
        # and no grammar can hold another
        with pytest.raises(GrammarValidationError, match="unanchored") as info:
            Grammar(pairs=g_chase.pairs + (ghost,), source_language="ko",
                    target_language="en", start_symbol="S",
                    particles=g_chase.particles)
        assert info.value.code == "validation-error"

    def test_recursion_overrun_is_reported(self, g_chase, monkeypatch):
        def too_deep(self, use, comp, foot_filler):
            raise RecursionError

        monkeypatch.setattr(oracle._Expander, "expand", too_deep)
        with pytest.raises(OracleBoundError) as info:
            brute_force_derivations(tokenize(CHASE_CANONICAL, g_chase),
                                    g_chase)
        assert info.value.code == "bound-exceeded"


class TestCyclicGrammar:
    """A set with a zero-width auxiliary component makes the parser's items
    cyclic: the empty component adjoins over the very span it covers."""

    @pytest.fixture(scope="class")
    def g_cyclic(self, g_chase):
        cal = SyncPair(
            name="beta_cal",
            source=SourceSet((
                ElementaryTree(interior("S", empty(), foot("S"))),
                ElementaryTree(interior("S", lex("A", "cal"), foot("S"))))),
            target=ElementaryTree(interior("S", foot("S"))),
            priority=2)
        return Grammar(
            pairs=g_chase.pairs + (cal,),
            source_language="ko", target_language="en",
            start_symbol="S", particles=g_chase.particles)

    @pytest.mark.parametrize("max_uses", [6, 7])
    def test_parser_equals_oracle(self, g_cyclic, max_uses):
        sentence = tokenize("cal Tom-i Jerry-lul ccossnunta.", g_cyclic)
        parsed = all_derivations(sentence, g_cyclic, max_uses=max_uses)
        assert len(parsed) == 9
        assert parsed == brute_force_derivations(
            sentence, g_cyclic, OracleBound(max_uses=max_uses))


def _singleton(name, tree, priority=1):
    """A pair whose target copies its source, each slot linked to itself."""
    et = ElementaryTree(tree)
    return SyncPair(name=name, source=SourceSet((et,)), target=et,
                    links=tuple(Link(0, a, a) for a in et.subst_addresses),
                    priority=priority)


def _grammar(pairs, particles=()):
    return Grammar(pairs=pairs, source_language="ko", target_language="en",
                   start_symbol="S", particles=particles)


class TestLeastCosts:
    """Pass 2 prunes with pass 1's least instance counts. A count that
    comes out too high loses the derivations that just fit the budget; an
    item that goes missing loses every derivation through it."""

    def test_cheaper_cost_found_after_a_dearer_one(self):
        # S over "x p y r z" splits two ways: A(x p) + B(y r z) costs 2 + 2
        # and is complete once both halves cost 2; A(x p y r) + B(z) costs
        # 3 + 0 and completes only when A(x p y r) costs 3, so the item's
        # first cost, 4, must be lowered to 3
        g = _grammar([
            _singleton("gamma", interior("S", subst("A"),
                                         interior("B", lex("Z", "z")))),
            _singleton("alpha_a1", interior("A", subst("X"), lex("P", "p"))),
            _singleton("alpha_a2", interior("A", subst("X"), lex("P", "p"),
                                            subst("Y"), lex("R", "r"))),
            _singleton("alpha_x", interior("X", lex("X", "x"))),
            _singleton("alpha_y", interior("Y", lex("Y", "y"))),
            _singleton("beta_y", interior("B", subst("Y"), lex("R", "r"),
                                          foot("B")))])
        sentence = tokenize("x p y r z.", g)
        # the oracle needs a use bound no smaller than the five words
        oracle_found = brute_force_derivations(sentence, g,
                                               OracleBound(max_uses=5))
        assert len(oracle_found) == 2
        cheapest = all_derivations(sentence, g, max_uses=4)
        assert [d.uses for d in cheapest] == [
            ("gamma", "alpha_a2", "alpha_x", "alpha_y")]
        assert cheapest == tuple(d for d in oracle_found if len(d.uses) <= 4)
        assert all_derivations(sentence, g, max_uses=5) == oracle_found

    def test_zero_width_auxiliary_meets_a_cheaper_host(self, g_chase):
        # the obligatory V node is settled at cost 0, before the zero-width
        # auxiliary V(e V*) at cost 1, and only that adjunction derives it
        ttu = _singleton("gamma_ttu", interior(
            "S", subst("SP"), subst("OP"),
            interior("V", lex("W", "ttu"), adjoin=ADJOIN_OA)))
        cal = SyncPair(
            name="beta_cal_v",
            source=SourceSet((
                ElementaryTree(interior("V", empty(), foot("V"))),
                ElementaryTree(interior("S", lex("A", "cal"), foot("S"))))),
            target=ElementaryTree(interior("S", foot("S"))),
            priority=2)
        g = _grammar(g_chase.pairs + (ttu, cal), g_chase.particles)
        sentence = tokenize("cal Tom-i Jerry-lul ttu.", g)
        parsed = all_derivations(sentence, g)
        assert len(parsed) == 3
        assert parsed == brute_force_derivations(sentence, g)


def _fall_through_grammar():
    """x y z: the set {S(X(x) S*), B(y)} costs 1, but its B component lands
    below the S its auxiliary adjoins to, so it cannot dominate the
    auxiliary as the set requires; the priority-3 singleton S(X(x) S*) plus
    B(y) costs 2 and parses."""
    gamma = SyncPair(
        name="gamma_z",
        source=SourceSet((ElementaryTree(
            interior("S", subst("B"), lex("Z", "z"))),)),
        target=ElementaryTree(interior("S", subst("B"), lex("Z", "z"))),
        links=(Link(comp=0, src=GornAddress.parse("1"),
                    tgt=GornAddress.parse("1")),))
    scrambled = SyncPair(
        name="beta_xy",
        source=SourceSet((
            ElementaryTree(interior("S", lex("X", "x"), foot("S"))),
            ElementaryTree(interior("B", lex("Y", "y")))),
            head=0, dominance=((1, 0),)),
        target=ElementaryTree(interior("S", foot("S"))),
        priority=2)
    pairs = (gamma, scrambled,
             _singleton("alpha_y", interior("B", lex("Y", "y"))),
             _singleton("beta_x", interior("S", lex("X", "x"), foot("S")),
                        priority=3))
    return _grammar(pairs)


class TestDominanceFallThrough:
    """The cheapest cost can hold groupings only, all failing dominance;
    the best level is then the next cost that parses."""

    def test_best_level_is_the_dearer_cost(self, monkeypatch):
        g = _fall_through_grammar()
        sentence = tokenize("x y z.", g)

        rejected = []

        def recording(tree, grammar):
            violations = dominance_violations(tree, grammar)
            if violations:
                rejected.append(tree.derivation.cost(grammar))
            return violations

        monkeypatch.setattr(stagmt.parser, "dominance_violations", recording)
        (best,) = parse(sentence, g)
        assert rejected == [1]
        assert best.cost == 2
        assert [d.uses for d in best.derivations] == [
            ("beta_x", "gamma_z", "alpha_y")]
        (first, *_) = parse(sentence, g, all_levels=True)
        assert first.cost == best.cost
        assert first.derivations == best.derivations
        assert ([render_tree(t, g) for t in first.trees]
                == [render_tree(t, g) for t in best.trees])
        assert best.derivations == brute_force_derivations(sentence, g)


def _below(top):
    """Every node at or below top: the search that the preorder-span test
    of dominance replaced, kept here as its reference."""
    stack = [top]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def _check_spans(derivation, grammar) -> list[str]:
    """Check the expansion's instance spans and dominance_violations against
    the reference search over the built nodes; returns the violations, in
    the composed tree's numbering."""
    tree = build_derived_tree(derivation, grammar)
    derivation = tree.derivation  # numbered as the nodes and spans are
    roots = {(node.use, node.comp): node
             for node in preorder(tree) if not node.addr.path}
    expected = [
        f"dominance: use {use} ({name}) component {upper} does not dominate "
        f"component {lower}"
        for use, name in enumerate(derivation.uses)
        for upper, lower in grammar.pair(name).source.dominance
        if not any(node is roots[use, lower] for node in _below(roots[use, upper]))]
    contains = {(a, b): any(node is roots[b] for node in _below(roots[a]))
                for a in roots for b in roots}
    spans = tree.spans
    for (a, b), inside in contains.items():
        start, end = spans[a]
        assert (start <= spans[b][0] < end) == inside, (a, b)
    assert dominance_violations(tree, grammar) == expected
    return expected


class TestIntervalDominance:
    """Dominance is read off preorder spans; the reference searches the
    nodes below the dominating root for the dominated one."""

    @pytest.mark.parametrize("name", ["chase", "ditransitive", "embedded"])
    def test_corpus_derivations(self, name):
        # scrambled readings adjoin a set's auxiliary at an instance root and
        # reach its place-holder through the auxiliary's foot
        grammar = load_grammar(name)
        linked = 0
        for line in corpus(name):
            try:
                derivations = all_derivations(tokenize(line, grammar), grammar)
            except StagError:
                continue
            for derivation in derivations:
                assert _check_spans(derivation, grammar) == []
                linked += any(grammar.pair(use).source.dominance
                              for use in derivation.uses)
        assert linked

    def test_ambiguous_orders(self):
        grammar = load_grammar(str(AMBIGUOUS_GRAMMAR))
        lines = permutation_closure(AMBIGUOUS_WORDS)
        assert len(lines) == 20
        checked = 0
        for line in lines:
            for derivation in all_derivations(tokenize(line, grammar), grammar):
                assert _check_spans(derivation, grammar) == []
                checked += 1
        assert checked

    def test_root_just_past_the_span(self):
        # B(y) fills the slot right after the P its set's auxiliary adjoins
        # to, so B's root starts exactly where the auxiliary's span ends
        gamma = _singleton("gamma_pb", interior(
            "S", interior("P", lex("W", "p")), subst("B")))
        beta = SyncPair(
            name="beta_xb",
            source=SourceSet((
                ElementaryTree(interior("P", lex("X", "x"), foot("P"))),
                ElementaryTree(interior("B", lex("Y", "y")))),
                head=0, dominance=((0, 1),)),
            target=ElementaryTree(interior("P", foot("P"))),
            priority=2)
        g = _grammar((gamma, beta))
        derivation = make_derivation(("gamma_pb", "beta_xb"), 0, [
            Attachment(use=1, comp=0, host=0, host_comp=0,
                       site=GornAddress.parse("1"), op=OP_ADJOIN),
            Attachment(use=1, comp=1, host=0, host_comp=0,
                       site=GornAddress.parse("2"), op=OP_SUBST)])
        assert _check_spans(derivation, g) == [
            "dominance: use 1 (beta_xb) component 0 does not dominate component 1"]

    def test_rejected_grouping(self, monkeypatch):
        # the cost-1 grouping puts B(y) below the S its auxiliary adjoins
        # to: the dominated component lies outside the dominating one
        g = _fall_through_grammar()
        rejected = []

        def recording(tree, grammar):
            violations = dominance_violations(tree, grammar)
            if violations:
                rejected.append(tree.derivation)
            return violations

        monkeypatch.setattr(stagmt.parser, "dominance_violations", recording)
        all_derivations(tokenize("x y z.", g), g)
        (derivation,) = rejected
        assert _check_spans(derivation, g) == [
            "dominance: use 0 (beta_xy) component 1 does not dominate component 0"]


class TestThreeComponentSet:
    """A set of three components: grouping matches each further component's
    instances with component 0's, and a reading chooses one bijection per
    further component, so the readings are their product."""

    @pytest.fixture(scope="class")
    def g_triple(self):
        start = interior("S", subst("B"), subst("C"), subst("B"), subst("C"),
                         interior("Z", lex("Z", "z")))
        gamma = SyncPair(
            name="gamma_z", source=SourceSet((ElementaryTree(start),)),
            target=ElementaryTree(start),
            links=tuple(Link(comp=0, src=GornAddress.parse(str(i)),
                             tgt=GornAddress.parse(str(i))) for i in range(1, 5)))
        triple = SyncPair(
            name="beta_abc",
            source=SourceSet((
                ElementaryTree(interior("S", interior("A", lex("A", "a")), foot("S"))),
                ElementaryTree(interior("B", lex("B", "b"))),
                ElementaryTree(interior("C", lex("C", "c")))),
                head=1, dominance=((0, 1), (0, 2))),
            target=ElementaryTree(interior("B", lex("B", "b"))),
            priority=2)
        pairs = (gamma, triple,
                 _singleton("alpha_b", interior("B", lex("B", "b"))),
                 _singleton("alpha_c", interior("C", lex("C", "c"))),
                 _singleton("beta_a", interior("S", interior("A", lex("A", "a")),
                                               foot("S")), priority=3))
        return _grammar(pairs)

    @pytest.mark.parametrize("line, count", [
        ("a b c b c z.", 5), ("a a b c b c z.", 13), ("b c b c z.", 1)])
    def test_parser_agrees_with_the_oracle(self, g_triple, line, count):
        sentence = tokenize(line, g_triple)
        parsed = all_derivations(sentence, g_triple)
        assert len(parsed) == count
        assert parsed == brute_force_derivations(sentence, g_triple)


class TestAmbiguousOrders:
    """The benchmark's three-object grammar over every order of its words:
    three fronted objects of one set pair group in 3! ways per instance
    tree, and some orders have dearer priority levels."""

    def test_parser_equals_oracle(self):
        grammar = load_grammar(str(AMBIGUOUS_GRAMMAR))
        counts = []
        for line in permutation_closure(AMBIGUOUS_WORDS):
            sentence = tokenize(line, grammar)
            parsed = all_derivations(sentence, grammar)
            assert parsed == brute_force_derivations(sentence, grammar)
            counts.append(len(parsed))
        assert sorted(counts) == [0] * 16 + [12, 17, 18, 18]


class TestRankingOrder:
    """The ranking key orders any two distinct derivations, so the parser
    and the oracle list them alike whatever order they find them in."""

    @pytest.fixture(scope="class")
    def g_root_set(self):
        # the root use is a set whose further components attach inside it:
        # its two derivations of "b." differ only in their hosts
        comps = (ElementaryTree(interior("S", foot("S"), lex("W", "b"))),
                 ElementaryTree(interior("S", empty())),
                 ElementaryTree(interior("S", empty(), foot("S"))))
        pair = SyncPair(name="p", source=SourceSet(comps, head=1,
                                                   dominance=((0, 1),)),
                        target=comps[1])
        return _grammar((pair,))

    def test_root_set_with_inner_attachments(self, g_root_set):
        sentence = tokenize("b.", g_root_set)
        parsed = all_derivations(sentence, g_root_set)
        assert len(parsed) == 2
        first, second = (ranking_key(d, g_root_set) for d in parsed)
        assert first < second
        assert parsed == brute_force_derivations(sentence, g_root_set)

    def test_root_set_renders_its_attachments(self, g_root_set):
        # the root use's further components attach, so they are listed
        parsed = all_derivations(tokenize("b.", g_root_set), g_root_set)
        assert [render_derivation(d, g_root_set) for d in parsed] == [
            "u0 p (root): c0 adjoin u0/c1@e, c2 adjoin u0/c0@e",
            "u0 p (root): c0 adjoin u0/c2@e, c2 adjoin u0/c1@e"]


class TestFootPositions:
    """A foot is a point item that covers only its gap. An item whose foot
    is last leaves its gap's right end open, and only a partner over words
    to its right fixes it: a right sibling, an auxiliary adjoined at its
    root or at a node on its spine, or a host it adjoins at. The shipped
    grammars only have feet in last position."""

    CAL = lex("A", "cal")
    TTU = lex("B", "ttu")

    @pytest.fixture(scope="class")
    def singletons(self, g_chase):
        # with no sets in the grammar, the instance budget is max_uses
        return tuple(p for p in g_chase.pairs if not p.source.is_multi)

    @pytest.mark.parametrize("tree, line, count", [
        # foot first: its right sibling yields the gaps to its left
        (interior("S", foot("S"), CAL), "Tom-i Jerry-lul ccossnunta cal.", 1),
        (interior("S", foot("S"), CAL, TTU),
         "Tom-i Jerry-lul ccossnunta cal ttu.", 1),
        # foot in the middle
        (interior("S", CAL, foot("S"), TTU),
         "cal Tom-i Jerry-lul ccossnunta ttu.", 1),
        # foot as an only child, under a null-adjoining and a hosting node
        (interior("S", CAL, interior("S", foot("S"), adjoin=ADJOIN_NA)),
         "cal Tom-i Jerry-lul ccossnunta.", 1),
        (interior("S", CAL, interior("S", foot("S"))),
         "cal Tom-i Jerry-lul ccossnunta.", 1),
        # foot last under an inner node: the open gap ends where the right
        # sibling starts, which settles before the open item (ttu) or after
        # it (Y over ttu)
        (interior("S", interior("X", CAL, foot("S")), TTU),
         "cal Tom-i Jerry-lul ccossnunta ttu.", 1),
        (interior("S", interior("X", CAL, foot("S")), interior("Y", TTU)),
         "cal Tom-i Jerry-lul ccossnunta ttu.", 1),
    ])
    def test_parser_equals_oracle(self, g_chase, singletons, tree, line, count):
        beta = _singleton("beta_cal", tree, priority=2)
        self.check(_grammar(singletons + (beta,), g_chase.particles), line, count)

    @pytest.mark.parametrize("line, count", [
        ("ttu Tom-i Jerry-lul ccossnunta cal.", 2),
        ("ttu ttu Tom-i Jerry-lul ccossnunta cal.", 3)])
    def test_auxiliary_at_an_auxiliary_root(self, g_chase, singletons,
                                            line, count):
        # S(S* cal) adjoined at the root of S(ttu S*) closes its open gap,
        # and S(ttu S*) adjoined at the root of S(S* cal) ends its own gap
        # where the host ends
        betas = (_singleton("beta_cal", interior("S", foot("S"), self.CAL), 2),
                 _singleton("beta_ttu", interior("S", self.TTU, foot("S")), 2))
        self.check(_grammar(singletons + betas, g_chase.particles), line, count)

    def test_zero_width_auxiliary_over_words(self, g_chase, singletons):
        # S(e S*) covers only its gap, open at any position, and adjoins at
        # the hosts over words: the chase root or the root of S(cal S*)
        zero_width = SyncPair(
            name="beta_cal",
            source=SourceSet((
                ElementaryTree(interior("S", empty(), foot("S"))),
                ElementaryTree(interior("S", self.CAL, foot("S"))))),
            target=ElementaryTree(interior("S", foot("S"))),
            priority=2)
        self.check(_grammar(singletons + (zero_width,), g_chase.particles),
                   "cal Tom-i Jerry-lul ccossnunta.", 2)

    @pytest.mark.parametrize("tree", [
        interior("E", foot("E"), CAL),
        interior("E", CAL, foot("E")),
        interior("E", CAL, interior("E", foot("E"), adjoin=ADJOIN_NA)),
    ])
    def test_foot_over_no_words(self, g_chase, singletons, tree):
        # adjoined at the empty E node, the foot's gap covers no words
        chase_e = _singleton("gamma_chase_e", interior(
            "S", subst("SP"), subst("OP"), interior("E", empty()),
            lex("V", "ccossnunta")))
        beta = _singleton("beta_cal_e", tree, priority=2)
        self.check(_grammar(singletons + (chase_e, beta), g_chase.particles),
                   "Tom-i Jerry-lul cal ccossnunta.", 1)

    @staticmethod
    def check(g, line, count):
        sentence = tokenize(line, g)
        found = brute_force_derivations(sentence, g)
        assert len(found) == count
        assert all_derivations(sentence, g) == found
        # at the tightest budget, a least cost set too high loses parses
        fewest = min(len(d.uses) for d in found)
        assert all_derivations(sentence, g, max_uses=fewest) == tuple(
            d for d in found if len(d.uses) == fewest)

    def test_right_scrambling_set(self, g_chase):
        # the object scrambled to the right of the verb: a foot-first
        # auxiliary plus its place-holder
        right = SyncPair(
            name="beta_jerry_op_right",
            source=SourceSet((
                ElementaryTree(interior(
                    "S", foot("S"),
                    interior("OP", lex("N", "Jerry"), lex("P", "lul")))),
                ElementaryTree(interior("OP", empty()))),
                head=1, dominance=((0, 1),)),
            target=ElementaryTree(interior("S", foot("S"))),
            priority=2)
        g = _grammar(g_chase.pairs + (right,), g_chase.particles)
        sentence = tokenize("Tom-i ccossnunta Jerry-lul.", g)
        parsed = all_derivations(sentence, g)
        assert len(parsed) == 3
        assert parsed == brute_force_derivations(sentence, g)


class TestEquivalenceReports:
    def test_agreement(self, g_chase):
        report = assert_equivalence(tokenize(CHASE_CANONICAL, g_chase),
                                    g_chase)
        assert report.match
        assert report.parser_count == report.oracle_count == 3
        assert report.summary().endswith("parser=3 oracle=3 [agree]")

    def test_agreement_on_unparseable_input(self, g_chase):
        line = CHASE_NEGATIVES[0]
        report = assert_equivalence(tokenize(line, g_chase), g_chase)
        assert report.match
        assert report.parser_count == report.oracle_count == 0

    def test_unknown_stem_agrees_on_nothing(self, g_chase):
        # the parser refuses a lexical gap before pass 1; the oracle finds
        # no use multiset that covers it
        report = assert_equivalence(
            tokenize("Spike-i Jerry-lul ccossnunta.", g_chase), g_chase)
        assert report.summary().endswith("parser=0 oracle=0 [agree]")

    def test_bare_particle_agrees_on_nothing(self, g_chase):
        # a particle written as a word anchors nothing, so neither side
        # derives the line, although its lexical stream parses
        sentence = tokenize("Tom i Jerry-lul ccossnunta.", g_chase)
        assert sentence.lex_stream == tokenize(CHASE_CANONICAL, g_chase).lex_stream
        report = assert_equivalence(sentence, g_chase)
        assert report.summary().endswith("parser=0 oracle=0 [agree]")

    def test_crippled_parser_is_caught(self, g_chase, monkeypatch):
        # a parser that cannot adjoin misses every scrambled reading
        def no_adjunction(sentence, grammar):
            return tuple(
                d for d in all_derivations(sentence, grammar)
                if not any(a.op == OP_ADJOIN for a in d.attachments))

        monkeypatch.setattr(stagmt.parser, "all_derivations", no_adjunction)
        report = assert_equivalence(tokenize(CHASE_SCRAMBLED, g_chase), g_chase)
        assert not report.match
        assert report.parser_count == 0
        assert report.oracle_count == 2
        assert len(report.only_oracle) == 2
        assert report.only_parser == ()
        assert "DISAGREE" in report.summary()

    def test_overgenerating_parser_is_caught(self, g_chase, monkeypatch):
        real = all_derivations(tokenize(CHASE_CANONICAL, g_chase), g_chase)
        alien = all_derivations(tokenize(CHASE_SCRAMBLED, g_chase), g_chase)

        def too_eager(sentence, grammar):
            return real + alien

        monkeypatch.setattr(stagmt.parser, "all_derivations", too_eager)
        report = assert_equivalence(tokenize(CHASE_CANONICAL, g_chase), g_chase)
        assert not report.match
        assert report.only_oracle == ()
        assert set(report.only_parser) == set(alien)

    def test_bound_overrun_is_reported_not_raised(self, g_chase):
        report = assert_equivalence(tokenize(CHASE_CANONICAL, g_chase),
                                    g_chase, bound=OracleBound(max_uses=2))
        assert not report.match
        assert report.bound_exceeded is not None
        assert "bound exceeded" in report.summary()


class TestSpotChecks:
    """Single-sentence referee runs; the full corpus sweep lives elsewhere."""

    def test_ditransitive_canonical(self, g_ditransitive):
        report = assert_equivalence(
            tokenize(DITRANS_CANONICAL, g_ditransitive), g_ditransitive)
        assert report.match, report.summary()
        assert report.parser_count == 4

    def test_embedded_fronted(self, g_embedded):
        report = assert_equivalence(
            tokenize(EMBEDDED_FRONTED, g_embedded), g_embedded)
        assert report.match, report.summary()
        assert report.parser_count == 1

    def test_ditransitive_full_scramble(self, g_ditransitive):
        line = "Jerry-lul Mary-eykey Tom-i cwunta."
        report = assert_equivalence(tokenize(line, g_ditransitive),
                                    g_ditransitive)
        assert report.match, report.summary()
