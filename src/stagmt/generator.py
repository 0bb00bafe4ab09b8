"""Target-side realization: compose target trees and read off a sentence.

A target derivation (see ``transfer``) is a ``derive.Derivation`` whose uses
each have one component, the pair's target tree, so it composes through the
same ``derive.compose`` engine and end checks as the source side. The
target tree carries it in canonical numbering, by first appearance in the
target tree, just as a source tree carries the parse's derivation, so the
two trees of a translation may number the same use differently.
The sentence is read off the expansion's words; no node is built for it.
"""

from __future__ import annotations

from .derive import Derivation, DerivedTree, compose
from .model import Grammar


def realize(target: Derivation, grammar: Grammar) -> DerivedTree:
    """Compose a target derivation into a target derived tree."""
    return compose([(grammar.pair(name).target,) for name in target.uses], target, 0)


def yield_surface(tree: DerivedTree, punct: str = ".") -> str:
    """Join the tree's lexical yield into a sentence string.

    Case particles attach to their noun with a hyphen: within a phrase whose
    children are exactly N followed by P (``tree.joins``), the two lexical
    items join as one word. Everything else is space-separated, with punct
    appended.
    """
    words = list(tree.words)
    for k in reversed(tree.joins):
        words[k:k + 2] = [f"{words[k]}-{words[k + 1]}"]
    return " ".join(words) + punct
