"""Target-side realization: compose target trees and read off a sentence.

A target derivation (see ``transfer``) is a ``derive.Derivation`` whose uses
each have one component, the pair's target tree, so it composes through the
same ``derive.compose`` engine and end checks as the source side, and the
target tree carries it just as a source tree carries the parse's derivation.
"""

from __future__ import annotations

from .derive import Derivation, DerivedTree, compose
from .model import KIND_LEX, Grammar


def realize(target: Derivation, grammar: Grammar) -> DerivedTree:
    """Compose a target derivation into a target derived tree."""
    return compose([(grammar.pair(name).target,) for name in target.uses], target, 0)


def _is_marked_nominal(node) -> bool:
    """A phrase whose children are exactly a lexical N then a lexical P."""
    if len(node.children) != 2:
        return False
    n, p = node.children
    return (n.kind == KIND_LEX and p.kind == KIND_LEX
            and n.cat == "N" and p.cat == "P")


def yield_surface(tree: DerivedTree, punct: str = ".") -> str:
    """Flatten lexical leaves to a sentence string.

    Case particles attach to their noun with a hyphen: within a phrase whose
    children are exactly N followed by P, the two lexical items join as one
    word. Everything else is space-separated, with punct appended.
    """
    words: list[str] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if _is_marked_nominal(node):
            words.append(f"{node.children[0].word}-{node.children[1].word}")
        elif node.kind == KIND_LEX:
            words.append(node.word)
        else:
            stack.extend(reversed(node.children))
    return " ".join(words) + punct
