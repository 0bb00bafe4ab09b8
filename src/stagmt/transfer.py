"""Mapping source derivations to target derivations.

A target derivation is a ``derive.Derivation`` with the source's use
numbering in which every use has one component, its target tree, so every
attachment joins component 0 to component 0. One fixed convention does most
of the work: the root node of a use's head component corresponds to the root
node of its target tree. Everything else is read off the host pair's links.
For each non-root use we look at where its head component attached on the
source side; if that site is linked, the use's target tree attaches at the
linked target address, and if the site is the host head's root (an
adjunction), it attaches at the target root. Attachments of non-head
components — the scrambled auxiliaries — have no target-side counterpart at
all, which is exactly how word-order variation disappears in translation.
"""

from __future__ import annotations

from .derive import Attachment, Derivation, make_derivation
from .errors import DanglingUseError, UntranslatableAttachmentError
from .model import ROOT, Grammar


def _attached_heads(derivation: Derivation, grammar: Grammar) -> dict[int, Attachment]:
    """Where each attached use's head component attaches on the source side,
    read in one pass over the attachments."""
    head_comps = [grammar.pair(name).source.head for name in derivation.uses]
    return {att.use: att for att in derivation.attachments
            if att.comp == head_comps[att.use]}


def transfer_derivation(derivation: Derivation, grammar: Grammar) -> Derivation:
    """Carry a source derivation across the bilingual pairs.

    For each non-root use, the attachment of its head component determines
    the target attachment: the linked address when the source site carries a
    link, the host's target root when the site is the host head's own root
    (the fixed root-to-root convention, which serves a singleton auxiliary
    adjoined there; scrambled auxiliaries are non-head components, and
    their attachments are dropped). The operation is carried through
    unchanged; whether it fits the target tree is realization's concern.
    """
    heads = _attached_heads(derivation, grammar)
    attachments = []
    for use, name in enumerate(derivation.uses):
        if use == derivation.root:
            continue
        head_att = heads.get(use)
        if head_att is None:
            raise DanglingUseError(
                f"use {use} ({name}): head component is attached nowhere")
        host_pair = grammar.pair(derivation.uses[head_att.host])
        link = host_pair.link_for(head_att.host_comp, head_att.site)
        if link is not None:
            site = link.tgt
        elif head_att.site == ROOT and head_att.host_comp == host_pair.source.head:
            site = ROOT
        else:
            raise UntranslatableAttachmentError(
                f"use {use} ({name}) attaches at u{head_att.host}/"
                f"c{head_att.host_comp}@{head_att.site}, which maps to no "
                f"target node of {host_pair.name}")
        attachments.append(Attachment(use, 0, head_att.host, 0, site, head_att.op))
    return make_derivation(derivation.uses, derivation.root, attachments)


def transfer_steps(source: Derivation, target: Derivation, grammar: Grammar) -> list[str]:
    """One trace line per target attachment: the source head attachment it
    was read from and the target site it maps to."""
    heads = _attached_heads(source, grammar)
    lines = []
    for att in target.attachments:
        src = heads[att.use]
        lines.append(f"u{att.use} {source.uses[att.use]}: source u{src.host}/"
                     f"c{src.host_comp}@{src.site} -> target "
                     f"u{att.host}@{att.site} ({att.op})")
    return lines
