"""Segmentation of case-marked words and line tokenization."""

import pytest
from hypothesis import given, strategies as st

from support import interior, lex, subst

import stagmt.morphotok
from stagmt.errors import EmptyInputError, StagError, UnknownParticleError
from stagmt.grammar_io import load_grammar
from stagmt.model import (
    ElementaryTree,
    GornAddress,
    Grammar,
    Link,
    SourceSet,
    SyncPair,
    Particle,
)
from stagmt.morphotok import Token, TokenizedSentence, segment_token, tokenize

PARTICLES = ("i", "ka", "lul", "ul")
SHIPPED = ("chase", "ditransitive", "embedded")

stems = st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll")),
                min_size=1, max_size=8)


class TestSegmentToken:
    def test_hyphen_is_explicit(self, g_chase):
        token = segment_token("Jerry-lul", g_chase)
        assert token == Token(surface="Jerry-lul", stem="Jerry", particle="lul")

    def test_last_hyphen_wins(self, g_chase):
        token = segment_token("San-Jose-ka", g_chase)
        assert (token.stem, token.particle) == ("San-Jose", "ka")

    def test_hyphen_with_unknown_particle(self, g_chase):
        with pytest.raises(UnknownParticleError):
            segment_token("Jerry-xyz", g_chase)

    def test_hyphen_without_stem(self, g_chase):
        with pytest.raises(UnknownParticleError):
            segment_token("-lul", g_chase)

    def test_anchor_word_taken_whole(self, g_chase):
        token = segment_token("ccossnunta", g_chase)
        assert token == Token(surface="ccossnunta", stem="ccossnunta")
        assert token.lex == ("ccossnunta",)

    def test_glued_particle_split(self, g_chase):
        assert segment_token("Jerrylul", g_chase).lex == ("Jerry", "lul")
        assert segment_token("Tomi", g_chase).lex == ("Tom", "i")
        assert segment_token("Tomul", g_chase).lex == ("Tom", "ul")

    def test_longest_particle_wins(self, g_chase):
        # "Jerrylul" ends with both "lul" and "ul"; the longer one is taken.
        token = segment_token("Jerrylul", g_chase)
        assert (token.stem, token.particle) == ("Jerry", "lul")

    def test_unknown_word_comes_back_whole(self, g_chase):
        token = segment_token("Spike", g_chase)
        assert token == Token(surface="Spike", stem="Spike")

    def test_anchor_check_precedes_suffix_match(self):
        # An anchor that happens to end in a particle must not be split.
        gamma = SyncPair(
            name="gamma_v",
            source=SourceSet(components=(
                ElementaryTree(interior("S", subst("SP"), lex("V", "nolli"))),)),
            target=ElementaryTree(interior("S", subst("NP"), lex("V", "teases"))),
            links=(Link(comp=0, src=GornAddress((1,)), tgt=GornAddress((1,))),))
        grammar = Grammar(
            pairs=[gamma], source_language="ko", target_language="en",
            start_symbol="S", particles=[Particle(form="i", case="nom")])
        token = segment_token("nolli", grammar)
        assert token == Token(surface="nolli", stem="nolli")

    def test_case_comes_from_particle_table(self, g_chase):
        # a token carries its particle; the case is the grammar's entry for it
        for word, stem, particle, case in (("Tom-i", "Tom", "i", "nom"),
                                           ("Jerry-lul", "Jerry", "lul", "acc")):
            token = segment_token(word, g_chase)
            assert (token.stem, token.particle) == (stem, particle)
            assert g_chase.particle_map[token.particle] == case

    @given(stems, st.sampled_from(PARTICLES))
    def test_hyphenated_form_always_splits_as_written(self, g_chase, stem, particle):
        token = segment_token(f"{stem}-{particle}", g_chase)
        assert (token.stem, token.particle) == (stem, particle)

    @given(stems)
    def test_segmentation_is_lossless(self, g_chase, word):
        token = segment_token(word, g_chase)
        assert token.stem + (token.particle or "") == word
        assert token.surface == word


class TestTokenize:
    def test_terminator_stripped_and_remembered(self, g_chase):
        sentence = tokenize("Tom-i Jerry-lul ccossnunta.", g_chase)
        assert sentence.terminator == "."
        assert len(sentence) == 3
        assert [t.surface for t in sentence.tokens] == [
            "Tom-i", "Jerry-lul", "ccossnunta"]

    def test_missing_terminator_is_remembered_too(self, g_chase):
        sentence = tokenize("Tom-i Jerry-lul ccossnunta", g_chase)
        assert sentence.terminator == ""

    def test_only_one_dot_is_stripped(self, g_chase):
        sentence = tokenize("Tom-i ccossnunta..", g_chase)
        assert sentence.terminator == "."
        assert sentence.tokens[-1].surface == "ccossnunta."

    def test_lex_stream_expands_particles(self, g_chase):
        sentence = tokenize("Jerry-lul Tom-i ccossnunta.", g_chase)
        assert sentence.lex_stream == ("Jerry", "lul", "Tom", "i", "ccossnunta")

    def test_glued_and_hyphenated_agree(self, g_chase):
        glued = tokenize("Tomi Jerrylul ccossnunta.", g_chase)
        marked = tokenize("Tom-i Jerry-lul ccossnunta.", g_chase)
        assert glued.lex_stream == marked.lex_stream

    @pytest.mark.parametrize("line", ["", "   ", ".", "  . "])
    def test_empty_input_rejected(self, g_chase, line):
        with pytest.raises(EmptyInputError):
            tokenize(line, g_chase)

    def test_whitespace_normalized(self, g_chase):
        sentence = tokenize("  Tom-i   Jerry-lul  ccossnunta .", g_chase)
        assert len(sentence) == 3
        assert sentence.terminator == "."

    def test_record_is_frozen(self, g_chase):
        sentence = tokenize("ccossnunta.", g_chase)
        assert isinstance(sentence, TokenizedSentence)
        with pytest.raises(AttributeError):
            sentence.terminator = "!"


def anchored_forms(grammar):
    """Every anchor bare, and followed by every particle after a hyphen and
    glued on."""
    return [form for stem in grammar.anchor_index
            for form in (stem, *(stem + sep + particle for sep in ("-", "")
                                 for particle in grammar.particle_map))]


def with_anchor(word):
    """The chase grammar plus a pair that word anchors."""
    g_chase = load_grammar("chase")
    tree = ElementaryTree(interior("S", lex("V", word)))
    extra = SyncPair(name="alpha_extra", source=SourceSet((tree,)), target=tree)
    return Grammar(pairs=g_chase.pairs + (extra,),
                   source_language="ko", target_language="en",
                   start_symbol="S", particles=g_chase.particles)


class TestWordTokens:
    """A word form whose stem anchors a pair is read from the grammar's
    table, any other is segmented; either way the tokens and the errors are
    segment_token's."""

    @pytest.mark.parametrize("name", SHIPPED)
    def test_anchored_forms_are_read_from_the_table(self, name, monkeypatch):
        grammar = load_grammar(name)
        forms = anchored_forms(grammar)
        segmented = tuple(segment_token(form, grammar) for form in forms)
        grammar.word_tokens     # built on first use, by segment_token
        calls = []
        monkeypatch.setattr(stagmt.morphotok, "segment_token",
                            lambda *args: calls.append(args))
        assert tokenize(" ".join(forms), grammar).tokens == segmented
        assert calls == []

    @pytest.mark.parametrize("name", SHIPPED)
    def test_table_holds_only_anchored_stems(self, name):
        grammar = load_grammar(name)
        assert grammar.word_tokens
        for form, token in grammar.word_tokens.items():
            assert token.stem in grammar.anchor_index
            assert token == segment_token(form, grammar)

    def test_glued_form_that_splits_elsewhere(self):
        # "Paul" with "ul" glued on segments by the longest particle as
        # "Pau" + "lul", a stem that anchors nothing, so the table leaves
        # the form out and tokenizing segments it
        grammar = with_anchor("Paul")
        assert grammar.word_tokens["Paullul"] == Token("Paullul", "Paul", "lul")
        assert "Paulul" not in grammar.word_tokens
        assert tokenize("Paulul.", grammar).tokens == (
            Token("Paulul", "Pau", "lul"),)

    @pytest.mark.parametrize("word", ["Jerry-xyz", "-lul", "Tom-", "San-Jose",
                                      "San-Joseka"])
    def test_refused_forms_raise_as_segmenting_does(self, word):
        # an anchor that holds a hyphen splits there when bare or glued
        grammar = with_anchor("San-Jose")
        assert grammar.word_tokens["San-Jose-ka"].stem == "San-Jose"
        with pytest.raises(StagError) as direct:
            segment_token(word, grammar)
        with pytest.raises(StagError) as through:
            tokenize(f"Tom-i {word} ccossnunta.", grammar)
        assert (through.value.code, str(through.value)) == (
            direct.value.code, str(direct.value))
