"""The blind enumerator, and its referee role against the chart parser."""

import pytest

from support import (
    CHASE_CANONICAL,
    CHASE_NEGATIVES,
    CHASE_SCRAMBLED,
    DITRANS_CANONICAL,
    EMBEDDED_FRONTED,
)

from stagmt import oracle
from stagmt.derive import OP_ADJOIN
from stagmt.errors import OracleBoundError
from stagmt.model import (
    ElementaryTree,
    SourceSet,
    SyncPair,
    empty,
    foot,
    index_grammar,
    interior,
    lex,
)
from stagmt.morphotok import tokenize
from stagmt.oracle import OracleBound, assert_equivalence, brute_force_derivations
from stagmt.parser import all_derivations


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

    def test_too_many_configurations(self, g_chase):
        sentence = tokenize(CHASE_SCRAMBLED, g_chase)
        with pytest.raises(OracleBoundError, match="configurations"):
            brute_force_derivations(sentence, g_chase,
                                    OracleBound(max_configs=1))

    def test_anchorless_pair_is_refused(self, g_chase):
        ghost = SyncPair(
            name="beta_ghost",
            source=SourceSet((ElementaryTree(interior("S", foot("S"))),)),
            target=ElementaryTree(interior("S", foot("S"))),
            priority=2)
        doctored = index_grammar(
            g_chase.pairs + (ghost,),
            source_language="ko", target_language="en",
            start_symbol="S", particles=g_chase.particles)
        with pytest.raises(OracleBoundError, match="anchor"):
            brute_force_derivations(tokenize(CHASE_CANONICAL, doctored),
                                    doctored)


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
        return index_grammar(
            g_chase.pairs + (cal,),
            source_language="ko", target_language="en",
            start_symbol="S", particles=g_chase.particles)

    @pytest.mark.parametrize("max_uses", [6, 7])
    def test_parser_equals_oracle(self, g_cyclic, max_uses):
        sentence = tokenize("cal Tom-i Jerry-lul ccossnunta.", g_cyclic)
        parsed = all_derivations(sentence, g_cyclic, max_uses=max_uses)
        assert len(parsed) == 9
        assert parsed == brute_force_derivations(
            sentence, g_cyclic, OracleBound(max_uses=max_uses))


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

    def test_crippled_parser_is_caught(self, g_chase):
        # a parser that cannot adjoin misses every scrambled reading
        def no_adjunction(sentence, grammar):
            return tuple(
                d for d in all_derivations(sentence, grammar)
                if not any(a.op == OP_ADJOIN for a in d.attachments))

        report = assert_equivalence(tokenize(CHASE_SCRAMBLED, g_chase),
                                    g_chase, parse_fn=no_adjunction)
        assert not report.match
        assert report.parser_count == 0
        assert report.oracle_count == 2
        assert len(report.only_oracle) == 2
        assert report.only_parser == ()
        assert "DISAGREE" in report.summary()

    def test_overgenerating_parser_is_caught(self, g_chase):
        real = all_derivations(tokenize(CHASE_CANONICAL, g_chase), g_chase)
        alien = all_derivations(tokenize(CHASE_SCRAMBLED, g_chase), g_chase)

        def too_eager(sentence, grammar):
            return real + alien

        report = assert_equivalence(tokenize(CHASE_CANONICAL, g_chase),
                                    g_chase, parse_fn=too_eager)
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
