"""Mapping source derivations to target derivations.

A target derivation is a ``derive.Derivation`` with the source's use
numbering in which every use has one component, its target tree, so every
attachment joins component 0 to component 0. One fixed convention does most
of the work: the root node of a use's head component corresponds to the root
node of its target tree. Everything else is read off the host pair's links.
For each non-root use we look at where its head component attached on the
source side; if that site is linked, the use's target tree attaches at the
linked target address, and if the site is the host head's root (an
adjunction), it attaches at the target root. Both rules depend on the
grammar alone, so they are filed once per grammar (``Grammar.target_sites``)
and a use costs one lookup. Attachments of non-head components — the
scrambled auxiliaries — have no target-side counterpart at all, which is
exactly how word-order variation disappears in translation.

The realized target tree (``generator.realize``) carries the target
derivation in its own canonical numbering, by first appearance in the
target tree, which may differ from the source's. So the transfer trace
(``transfer_steps``) is read from the source derivation alone, and the
family key of a translation (``target_key``) from the realized target.
"""

from __future__ import annotations

from .derive import Attachment, Derivation, DerivedTree, make_derivation
from .errors import DanglingUseError, UntranslatableAttachmentError
from .model import Grammar


def _attached_heads(derivation: Derivation, grammar: Grammar) -> dict[int, Attachment]:
    """Where each attached use's head component attaches on the source side,
    read in one pass over the attachments."""
    head_comps = [grammar.pair(name).source.head for name in derivation.uses]
    return {att.use: att for att in derivation.attachments
            if att.comp == head_comps[att.use]}


def transfer_derivation(derivation: Derivation, grammar: Grammar) -> Derivation:
    """Carry a source derivation across the bilingual pairs, keeping its use
    numbering.

    For each non-root use, the attachment of its head component determines
    the target attachment: the linked address when the source site carries a
    link, the host's target root when the site is the host head's own root
    (the fixed root-to-root convention, which serves a singleton auxiliary
    adjoined there; scrambled auxiliaries are non-head components, and
    their attachments are dropped). Both are read from
    ``Grammar.target_sites``. The operation is carried through unchanged;
    whether it fits the target tree is realization's concern.
    """
    heads = _attached_heads(derivation, grammar)
    uses, target_sites = derivation.uses, grammar.target_sites
    attachments = []
    for use, name in enumerate(uses):
        if use == derivation.root:
            continue
        head_att = heads.get(use)
        if head_att is None:
            raise DanglingUseError(
                f"use {use} ({name}): head component is attached nowhere")
        host = uses[head_att.host]
        site = target_sites.get((host, head_att.host_comp, head_att.site))
        if site is None:
            raise UntranslatableAttachmentError(
                f"use {use} ({name}) attaches at u{head_att.host}/"
                f"c{head_att.host_comp}@{head_att.site}, which maps to no "
                f"target node of {host}")
        attachments.append(Attachment(use, 0, head_att.host, 0, site, head_att.op))
    return make_derivation(derivation.uses, derivation.root, attachments)


def target_key(target: DerivedTree, grammar: Grammar) -> tuple:
    """A hashable canonical form of a realized target: its canonical
    derivation with each pair name replaced by the pair's target tree. Use
    numbers follow the target tree, so renumbering the uses keeps the key,
    and pairs whose target trees are equal share a key: the analyses of a
    sentence's scrambled orders and of its canonical order give one key,
    which is how word-order variation collapses in transfer. The key fixes
    every target tree and where it attaches, and ``realize`` is
    deterministic, so derivations with one key have one translation."""
    derivation = target.derivation
    return (tuple(grammar.pair(name).target for name in derivation.uses),
            derivation.root, derivation.attachments)


def transfer_steps(source: Derivation, grammar: Grammar) -> list[str]:
    """One trace line per target attachment, in the source's use numbering:
    the source head attachment it is read from and the target site it maps
    to."""
    heads = _attached_heads(source, grammar)
    lines = []
    for att in transfer_derivation(source, grammar).attachments:
        src = heads[att.use]
        lines.append(f"u{att.use} {source.uses[att.use]}: source u{src.host}/"
                     f"c{src.host_comp}@{src.site} -> target "
                     f"u{att.host}@{att.site} ({att.op})")
    return lines
