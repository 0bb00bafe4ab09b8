"""End-to-end translation: tokenize, parse, transfer, realize.

A translation is a synchronous pair of trees, the source tree the parser
read off and the composed target tree, each carrying the derivation it was
built from, numbered canonically by its own tree; the target derivation
that ``transfer_derivation`` hands to ``realize`` keeps the source's
numbering, and the candidate keeps it for the transfer trace. Nothing is
rendered here, and no tree node is built: the surface is read off the
target's words, and callers that print either tree render it with
``derive.render_tree``, which builds its nodes.
"""

from __future__ import annotations

from typing import NamedTuple

from .derive import Derivation, DerivedTree
from .generator import realize, yield_surface
from .model import Grammar
from .morphotok import tokenize
from .parser import PriorityLevel, parse
from .transfer import transfer_derivation


class Candidate(NamedTuple):
    """One translation: the source tree, the target derivation transferred
    from it (in the source's use numbering), the target tree composed from
    that and the target's surface."""

    cost: int
    source: DerivedTree
    transferred: Derivation
    target: DerivedTree
    surface: str


class TranslationResult(NamedTuple):
    """One translated line. ``levels`` holds the cheapest priority level
    only, or every level when ``translate_line`` was given all_levels."""

    levels: tuple[PriorityLevel, ...]
    candidates: tuple[Candidate, ...]

    @property
    def best(self) -> Candidate:
        """The deterministic first minimal-cost candidate."""
        return self.candidates[0]

    @property
    def translations(self) -> tuple[str, ...]:
        """Distinct output sentences, best level first, stable order."""
        seen: list[str] = []
        for candidate in self.candidates:
            if candidate.surface not in seen:
                seen.append(candidate.surface)
        return tuple(seen)


def translate_line(line: str, grammar: Grammar, *,
                   all_levels: bool = False) -> TranslationResult:
    """Translate one input line; raises on tokenization or parse failure."""
    sentence = tokenize(line, grammar)
    levels = parse(sentence, grammar, all_levels=all_levels)
    candidates = []
    for level in levels:
        for source in level.trees:
            transferred = transfer_derivation(source.derivation, grammar)
            target = realize(transferred, grammar)
            candidates.append(Candidate(
                cost=level.cost, source=source, transferred=transferred,
                target=target, surface=yield_surface(target, sentence.terminator)))
    return TranslationResult(levels=levels, candidates=tuple(candidates))
