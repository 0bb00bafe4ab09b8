"""Record semantics: the value records are named tuples and the rest are
read-only plain classes, and neither form may change what a record means.

A named tuple equals a plain tuple of the same values, so these tests also
pin that no caller compares a record with a plain tuple.
"""

import pytest
from hypothesis import given, strategies as st

from support import AMBIGUOUS_FRONTED, AMBIGUOUS_GRAMMAR, corpus

from stagmt import derive, model, morphotok, oracle, parser, pipeline
from stagmt.derive import (build_derived_tree, make_derivation, render_derivation,
                           render_tree)
from stagmt.errors import ParseError
from stagmt.grammar_io import dump_grammar, load_grammar, parse_grammar
from stagmt.model import ROOT, GornAddress, validate_pair
from stagmt.morphotok import tokenize
from stagmt.oracle import OracleBound, assert_equivalence
from stagmt.pipeline import translate_line
from stagmt.transfer import transfer_derivation

NAMED_TUPLES = (
    model.GornAddress, model.SourceSet, model.Link, model.SyncPair,
    model.Particle, model.Diagnostic, derive.Attachment, derive.Derivation,
    parser.PriorityLevel, morphotok.Token, pipeline.Candidate,
    pipeline.TranslationResult, oracle.OracleBound, oracle.EquivalenceReport)


def public_records(grammar):
    """One instance of every public record. DerivedTree is left out: it
    builds its nodes when they are first read, so it is not a value record."""
    result = translate_line("Jerry-lul Tom-i ccossnunta.", grammar,
                            all_levels=True)
    pair = grammar.pair("gamma_chase")
    sentence = tokenize("Tomi Jerry-lul ccossnunta.", grammar)
    return (
        ROOT, pair.target.root, pair.target, pair.source, pair.links[0], pair,
        grammar.particles[0], validate_pair(pair._replace(priority=0))[0],
        grammar,
        result.best.source.derivation.attachments[0],
        result.best.source.derivation, result.levels[0],
        sentence.tokens[0], sentence, result.best, result, OracleBound(),
        assert_equivalence(sentence, grammar))


def test_every_public_record_is_covered(g_chase):
    kinds = {type(record) for record in public_records(g_chase)}
    assert kinds >= set(NAMED_TUPLES)
    assert kinds - set(NAMED_TUPLES) == {
        model.TreeNode, model.ElementaryTree, model.Grammar,
        morphotok.TokenizedSentence}


def test_assigning_a_field_raises(g_chase):
    for record in public_records(g_chase):
        for name in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("record", ["tree_node", "tree", "grammar", "sentence"])
def test_plain_class_records_refuse_new_and_deleted_attributes(g_chase, record):
    obj = {"tree_node": g_chase.pairs[0].target.root,
           "tree": g_chase.pairs[0].target,
           "grammar": g_chase,
           "sentence": tokenize("Tom-i ccossnunta.", g_chase)}[record]
    with pytest.raises(AttributeError):
        obj.extra = 1
    with pytest.raises(AttributeError):
        delattr(obj, type(obj)._fields[0])


addresses = st.lists(st.integers(min_value=1, max_value=4), max_size=4).map(
    lambda p: GornAddress(tuple(p)))


@given(addresses, addresses)
def test_gorn_addresses_order_and_hash_by_their_paths(a, b):
    assert GornAddress.parse(str(a)) == a
    assert (a == b) == (a.path == b.path)
    assert (a < b) == (a.path < b.path)
    assert (a <= b) == (a.path <= b.path)
    if a == b:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_grammar_equals_its_reload_whatever_it_has_cached():
    built, reloaded = load_grammar("chase"), load_grammar("chase")
    for table in ("chart_tables", "anchor_index", "pair_by_name"):
        getattr(built, table)
        assert table in vars(built) and table not in vars(reloaded)
    assert built.pairs[0].target.nodes
    assert built == reloaded and hash(built) == hash(reloaded)
    assert built.pairs == reloaded.pairs
    assert parse_grammar(dump_grammar(built)) == reloaded
    assert built != load_grammar("embedded")


def test_a_tokenized_sentence_is_as_long_as_its_tokens(g_chase):
    for line, count in (("ccossnunta.", 1), ("Tomi Jerrylul ccossnunta", 3),
                        ("Tom-i  Mary-ka Jerry-lul ccossnunta malhanta .", 5)):
        sentence = tokenize(line, g_chase)
        assert len(sentence) == len(sentence.tokens) == count


@pytest.fixture
def records_compare_only_with_their_kind(monkeypatch):
    """Make == and != between a named-tuple record and anything but a
    record of its own type fail the test, wherever they happen."""
    def checked(compare):
        def method(self, other):
            if other.__class__ is not self.__class__:
                pytest.fail(f"{type(self).__name__} compared with "
                            f"{type(other).__name__}: {other!r}")
            return compare(self, other)
        return method

    for kind in NAMED_TUPLES:
        monkeypatch.setattr(kind, "__eq__", checked(tuple.__eq__))
        monkeypatch.setattr(kind, "__ne__", checked(tuple.__ne__))


@pytest.mark.usefixtures("records_compare_only_with_their_kind")
def test_no_caller_compares_a_record_with_a_plain_tuple():
    grammars = {name: load_grammar(name)
                for name in ("chase", "ditransitive", "embedded")}
    grammars["ambiguous"] = load_grammar(AMBIGUOUS_GRAMMAR)
    lines = [(name, line) for name in ("chase", "ditransitive", "embedded")
             for line in corpus(name)] + [("ambiguous", AMBIGUOUS_FRONTED)]
    for name, grammar in grammars.items():
        assert parse_grammar(dump_grammar(grammar)) == grammar
        for pair in grammar.pairs:
            validate_pair(pair)
            validate_pair(pair._replace(priority=0, links=pair.links[::-1]))
    parsed = 0
    for name, line in lines:
        grammar = grammars[name]
        if name != "ambiguous":
            assert assert_equivalence(tokenize(line, grammar), grammar).match
        try:
            result = translate_line(line, grammar, all_levels=True)
        except ParseError:  # a negative input
            continue
        parsed += 1
        for candidate in result.candidates:
            source = candidate.source.derivation
            render_tree(candidate.source, grammar)
            render_tree(candidate.target, grammar)
            render_derivation(source, grammar)
            transfer_derivation(source, grammar)
            rebuilt = build_derived_tree(
                make_derivation(source.uses, source.root, source.attachments),
                grammar)
            assert rebuilt.derivation == source
        assert result.translations
    assert parsed == 18
