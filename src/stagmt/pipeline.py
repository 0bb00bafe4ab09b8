"""End-to-end translation: tokenize, parse, transfer, realize."""

from __future__ import annotations

from dataclasses import dataclass

from .derive import Derivation, render_tree
from .generator import Realization, realize, yield_surface
from .model import Grammar
from .morphotok import TokenizedSentence, tokenize
from .parser import PriorityLevel, parse
from .transfer import transfer_derivation


@dataclass(frozen=True)
class Candidate:
    """One derivation carried through the whole pipeline."""

    derivation: Derivation
    target: Derivation
    realization: Realization
    cost: int
    source_rendered: str


@dataclass(frozen=True)
class TranslationResult:
    """One translated line. ``levels`` holds the cheapest priority level
    only, or every level when ``translate_line`` was given all_levels."""

    line: str
    sentence: TokenizedSentence
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
            if candidate.realization.surface not in seen:
                seen.append(candidate.realization.surface)
        return tuple(seen)


def translate_line(line: str, grammar: Grammar, *,
                   all_levels: bool = False) -> TranslationResult:
    """Translate one input line; raises on tokenization or parse failure."""
    sentence = tokenize(line, grammar)
    levels = parse(sentence, grammar, all_levels=all_levels)
    candidates = []
    for level in levels:
        for tree in level.trees:
            derivation = tree.derivation
            target = transfer_derivation(derivation, grammar)
            derived = realize(target, grammar)
            realization = Realization(
                derived=derived,
                surface=yield_surface(derived, sentence.terminator))
            candidates.append(Candidate(
                derivation=derivation,
                target=target,
                realization=realization,
                cost=level.cost,
                source_rendered=render_tree(tree, grammar),
            ))
    return TranslationResult(line=line, sentence=sentence, levels=levels,
                             candidates=tuple(candidates))
