"""Surface segmentation for agglutinative source input.

Input words either carry an explicit stem-particle hyphen ("Jerry-lul"),
are bare anchors (verbs: "ccossnunta"), or glue the particle onto the stem
("Jerryl ul" written "Jerrylul"). Segmentation consults the grammar: the
anchor index decides whether a bare word stands on its own, and the particle
table drives the longest-suffix fallback for glued forms.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import EmptyInputError, LexicalGapError, UnknownParticleError
from .model import Grammar, Record

TERMINATOR = "."


class Token(NamedTuple):
    """One segmented word: a stem plus an optional case particle."""

    surface: str
    stem: str
    particle: str | None = None

    @property
    def lex(self) -> tuple[str, ...]:
        """The lexical leaves this token must match, in order."""
        return (self.stem,) if self.particle is None else (self.stem, self.particle)


class TokenizedSentence(Record):
    """The segmented words of one line and its terminator; its length is
    the number of tokens."""

    __slots__ = _fields = ("tokens", "terminator")

    def __init__(self, tokens: tuple[Token, ...], terminator: str):
        self._set(tokens, terminator)

    @property
    def lex_stream(self) -> tuple[str, ...]:
        out: list[str] = []
        for token in self.tokens:
            out.extend(token.lex)
        return tuple(out)

    def __len__(self) -> int:
        return len(self.tokens)


def segment_token(word: str, grammar: Grammar) -> Token:
    """Split one surface word into stem and particle.

    A hyphen is an explicit segmentation and wins; the part after the last
    hyphen must then be a known particle. Without a hyphen, a word that is
    itself a grammar anchor is taken whole (this keeps verbs like
    "ccossnunta" intact even if some particle happens to be a suffix of
    them); otherwise the longest known particle suffix is stripped. A word
    that matches nothing comes back whole with no particle — whether it is
    a usable stem is ``check_anchored``'s question, not the segmenter's.
    """
    if "-" in word:
        stem, _, particle = word.rpartition("-")
        if not stem:
            raise UnknownParticleError(f"no stem before hyphen in {word!r}")
        if particle not in grammar.particle_map:
            raise UnknownParticleError(f"unknown particle {particle!r} in {word!r}")
        return Token(surface=word, stem=stem, particle=particle)

    if word in grammar.anchor_index:
        return Token(surface=word, stem=word)

    for form in grammar.particles_longest_first:
        if word.endswith(form) and len(word) > len(form):
            return Token(surface=word, stem=word[: -len(form)], particle=form)
    return Token(surface=word, stem=word)


def tokenize(line: str, grammar: Grammar) -> TokenizedSentence:
    """Segment a whole input line.

    A single trailing "." is stripped and remembered as the terminator; a
    line without one gets an empty terminator so output can mirror input.
    A word form the grammar anchors is read from ``Grammar.word_tokens``,
    and any other is segmented.
    """
    text = line.strip()
    terminator = ""
    if text.endswith(TERMINATOR):
        terminator = TERMINATOR
        text = text[:-1].rstrip()
    if not text:
        raise EmptyInputError("no words in input line")
    known = grammar.word_tokens
    tokens = tuple(known.get(word) or segment_token(word, grammar)
                   for word in text.split())
    return TokenizedSentence(tokens=tokens, terminator=terminator)


def check_anchored(sentence: TokenizedSentence, grammar: Grammar) -> None:
    """Refuse a sentence with a token whose stem (the whole word, when it
    carries no particle) anchors no pair, naming that stem. A particle is
    legal only after a stem, so a particle standing alone is refused too:
    the grammar's anchors exclude particle forms."""
    for token in sentence.tokens:
        if token.stem not in grammar.anchor_index:
            raise LexicalGapError(token.stem)
