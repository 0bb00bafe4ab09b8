"""Shared test helpers: corpus, tree builders, random-derivation sampler.

The corpus is organized as permutation closures of a few designated token
multisets per grammar, plus hand-picked negatives (inputs that segment fine
but should not parse). Closures are what make word-order claims testable:
"exactly these orders parse" is a statement about the whole closure.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from stagmt.derive import (
    Attachment,
    OP_ADJOIN,
    OP_SUBST,
    build_derived_tree,
    dominance_violations,
    make_derivation,
)
from stagmt.errors import CompositionError
from stagmt.model import (ADJOIN_ALLOW, ADJOIN_NA, KIND_EMPTY, KIND_FOOT,
                          KIND_INTERIOR, KIND_LEX, KIND_SUBST, ROOT, Grammar,
                          TreeNode)

# Verdict lines recorded by the acceptance tests; echoed after the run by a
# terminal-summary hook so they are visible even when capture is on.
ACCEPTANCE_LINES: list[str] = []

CHASE_CANONICAL = "Tom-i Jerry-lul ccossnunta."
CHASE_SCRAMBLED = "Jerry-lul Tom-i ccossnunta."
DITRANS_CANONICAL = "Tom-i Mary-eykey Jerry-lul cwunta."
EMBEDDED_CANONICAL = "Mary-ka Tom-i Jerry-lul ccossnunta malhanta."
EMBEDDED_FRONTED = "Jerry-lul Mary-ka Tom-i ccossnunta malhanta."
EMBEDDED_MEDIAL = "Mary-ka Jerry-lul Tom-i ccossnunta malhanta."

# the benchmark's three-object grammar: three fronted objects of one set pair
# group into uses in 3! = 6 ways per instance tree
AMBIGUOUS_GRAMMAR = (Path(__file__).resolve().parents[1] / "benchmark"
                     / "grammars" / "ambiguous.grammar")
AMBIGUOUS_FRONTED = "Jerry-lul Jerry-lul Jerry-lul Tom-i nayelhanta."
AMBIGUOUS_CANONICAL = "Tom-i Jerry-lul Jerry-lul Jerry-lul nayelhanta."
AMBIGUOUS_WORDS = ("Tom-i", "Jerry-lul", "Jerry-lul", "Jerry-lul", "nayelhanta")

CHASE_WORDS = ("Tom-i", "Jerry-lul", "ccossnunta")
CHASE_WORDS_SWAPPED = ("Jerry-ka", "Tom-ul", "ccossnunta")
DITRANS_WORDS = ("Tom-i", "Mary-eykey", "Jerry-lul", "cwunta")
EMBEDDED_WORDS = ("Mary-ka", "Tom-i", "Jerry-lul", "ccossnunta", "malhanta")


def chain_sentence(depth: int) -> str:
    """An embedded-grammar sentence: the object fronted over depth embedding
    verbs."""
    return ("Jerry-lul " + "Mary-ka " * depth + "Tom-i ccossnunta"
            + " malhanta" * depth + ".")


def preorder(tree):
    """The nodes of a composed tree in preorder."""
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def lex_yield(tree) -> tuple[str, ...]:
    """The words at a composed tree's lexical leaves, left to right."""
    return tuple(node.word for node in preorder(tree) if node.kind == KIND_LEX)


def read_off(tree):
    """What a composed tree's expansion reads off, read from its built
    nodes instead: the lexical yield, the joins and each instance's span,
    as ``DerivedTree`` documents them, numbered as the nodes are, and the
    nodes' uses in order of first appearance in preorder."""
    words, joins, order, spans = [], [], {}, {}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:  # the end of the instance it keys
            spans[node] = (spans[node], len(spans))
            continue
        order.setdefault(node.use)
        if not node.addr.path:
            spans[node.use, node.comp] = len(spans)
            stack.append((node.use, node.comp))
        if node.kind == KIND_LEX:
            words.append(node.word)
        if [(kid.kind, kid.cat) for kid in node.children] == [
                (KIND_LEX, "N"), (KIND_LEX, "P")]:
            joins.append(len(words))
        stack.extend(reversed(node.children))
    return tuple(words), joins, list(order), spans


# Node builders for elementary trees written in Python.

def _norm_feats(feats) -> tuple[tuple[str, str], ...]:
    if not feats:
        return ()
    if isinstance(feats, dict):
        feats = feats.items()
    return tuple(sorted((str(k), str(v)) for k, v in feats))


def interior(cat: str, *children: TreeNode, feats=None,
             adjoin: str = ADJOIN_ALLOW) -> TreeNode:
    return TreeNode(cat=cat, kind=KIND_INTERIOR, adjoin=adjoin,
                    feats=_norm_feats(feats), children=tuple(children))


def subst(cat: str) -> TreeNode:
    return TreeNode(cat=cat, kind=KIND_SUBST)


def foot(cat: str) -> TreeNode:
    return TreeNode(cat=cat, kind=KIND_FOOT)


def lex(cat: str, word: str) -> TreeNode:
    return TreeNode(cat=cat, kind=KIND_LEX, word=word)


def empty(cat: str = "e") -> TreeNode:
    return TreeNode(cat=cat, kind=KIND_EMPTY)


def permutation_closure(words, terminator: str = ".") -> tuple[str, ...]:
    return tuple(" ".join(order) + terminator
                 for order in sorted(set(itertools.permutations(words))))


# Inputs that tokenize but must not parse (wrong case frames, missing or
# surplus arguments). Kept per grammar so oracle comparisons cover the
# no-derivation side as well.
CHASE_NEGATIVES = (
    "Tom-i Jerry-ka ccossnunta.",
    "Tom-ul Jerry-lul ccossnunta.",
    "Tom-i ccossnunta.",
    "Jerry-lul ccossnunta.",
    "ccossnunta.",
    "Tom-i Jerry-lul Tom-ul ccossnunta.",
)

DITRANS_NEGATIVES = (
    "Tom-i Jerry-lul cwunta.",
    "Tom-i Mary-eykey cwunta.",
    "Tom-i Mary-eykey Jerry-lul Tom-i cwunta.",
)

EMBEDDED_NEGATIVES = (
    "Mary-ka ccossnunta malhanta.",
    "Mary-ka Tom-i Jerry-lul malhanta.",
    "Tom-i Jerry-lul ccossnunta malhanta.",
)

# Glued spellings exercise the particle-suffix fallback end to end.
CHASE_GLUED = (
    "Tomi Jerrylul ccossnunta.",
    "Jerrylul Tomi ccossnunta.",
)


def corpus(grammar_name: str) -> tuple[str, ...]:
    if grammar_name == "chase":
        return (permutation_closure(CHASE_WORDS)
                + permutation_closure(CHASE_WORDS_SWAPPED)
                + CHASE_NEGATIVES + CHASE_GLUED)
    if grammar_name == "ditransitive":
        return permutation_closure(DITRANS_WORDS) + DITRANS_NEGATIVES
    if grammar_name == "embedded":
        return permutation_closure(EMBEDDED_WORDS) + EMBEDDED_NEGATIVES
    raise ValueError(grammar_name)


def attachment_of(derivation, use: int, comp: int):
    """Where component comp of use attaches in the derivation, or None."""
    return next((att for att in derivation.attachments
                 if (att.use, att.comp) == (use, comp)), None)


def set_constraint_violations(derivation, grammar: Grammar) -> list[str]:
    """Why a derivation breaks its multi-component side conditions.

    Every component of every use must be accounted for (the root use
    contributes its head; everything else attaches exactly once), the
    attachments must compose, and each set's dominance requirements must
    hold between instance roots in the composed tree. A composition error is
    reported as ``"{code}: {message}"``; empty when the derivation is clean.
    """
    try:
        tree = build_derived_tree(derivation, grammar)
    except CompositionError as exc:
        return [f"{exc.code}: {exc}"]
    return dominance_violations(tree, grammar)


def check_set_constraints(derivation, grammar: Grammar) -> bool:
    """True iff the derivation meets its set constraints (see above)."""
    return not set_constraint_violations(derivation, grammar)


def _initial_head_pairs(grammar: Grammar, cat: str):
    """Pairs whose head component is an initial tree rooted in cat."""
    out = []
    for pair in grammar.pairs:
        head = pair.source.head_tree
        if not head.is_auxiliary and head.root_cat == cat:
            out.append(pair)
    return out


def _interior_sites(tree):
    """(address, cat) of every adjoinable interior node of one component."""
    return [(addr, node.cat) for addr, node in tree.nodes.items()
            if node.kind == KIND_INTERIOR and node.adjoin != ADJOIN_NA]


def random_derivation(grammar: Grammar, rng: random.Random, *,
                      max_uses: int = 8, multi_bias: float = 0.45):
    """Sample one valid derivation of the grammar, or None if the draw fails.

    Builds top-down: pick a start pair, fill every open slot with a random
    pair whose head fits, and drop each non-head (auxiliary) component onto
    a random compatible interior site anywhere in the derivation so far.
    The draw is checked against the set constraints and rejected on
    violation, so callers loop until they have the sample size they want.
    """
    starts = _initial_head_pairs(grammar, grammar.start_symbol)
    if not starts:
        return None
    root_pair = rng.choice(starts)
    uses = [root_pair.name]
    attachments: list[Attachment] = []
    # open substitution slots: (host use, host comp, address, category)
    slots = [(0, root_pair.source.head, addr,
              root_pair.source.head_tree.node_at(addr).cat)
             for addr in root_pair.source.head_tree.subst_addresses]
    # candidate adjunction sites: (use, comp, address, category)
    sites = [(0, root_pair.source.head, addr, cat)
             for addr, cat in _interior_sites(root_pair.source.head_tree)]
    pending_aux = []  # (use, comp, root category)

    while slots:
        if len(uses) > max_uses:
            return None
        host, host_comp, addr, cat = slots.pop(rng.randrange(len(slots)))
        candidates = _initial_head_pairs(grammar, cat)
        if not candidates:
            return None
        multi = [p for p in candidates if p.source.is_multi]
        single = [p for p in candidates if not p.source.is_multi]
        if multi and (not single or rng.random() < multi_bias):
            pair = rng.choice(multi)
        else:
            pair = rng.choice(single)
        use = len(uses)
        uses.append(pair.name)
        head = pair.source.head
        attachments.append(Attachment(use=use, comp=head, host=host,
                                      host_comp=host_comp, site=addr, op=OP_SUBST))
        head_tree = pair.source.head_tree
        slots.extend((use, head, a, head_tree.node_at(a).cat)
                     for a in head_tree.subst_addresses)
        sites.extend((use, head, a, c)
                     for a, c in _interior_sites(head_tree))
        for comp_idx, comp in enumerate(pair.source.components):
            if comp_idx == head:
                continue
            pending_aux.append((use, comp_idx, comp.root_cat))
            sites.extend((use, comp_idx, a, c) for a, c in _interior_sites(comp))

    taken: set[tuple[int, int, object]] = set()
    for use, comp_idx, cat in pending_aux:
        options = [s for s in sites
                   if s[3] == cat and s[0] != use and (s[0], s[1], s[2]) not in taken]
        if not options:
            return None
        s_use, s_comp, s_addr, _ = rng.choice(options)
        taken.add((s_use, s_comp, s_addr))
        attachments.append(Attachment(use=use, comp=comp_idx, host=s_use,
                                      host_comp=s_comp, site=s_addr, op=OP_ADJOIN))

    derivation = make_derivation(uses, 0, attachments)
    return derivation if check_set_constraints(derivation, grammar) else None


def sample_derivations(grammar: Grammar, n: int, *, seed: int = 2024,
                       max_tries: int = 4000):
    """n distinct valid random derivations (deterministic for a fixed seed)."""
    rng = random.Random(seed)
    out = []
    seen = set()
    for _ in range(max_tries):
        if len(out) >= n:
            break
        derivation = random_derivation(grammar, rng)
        if derivation is None or derivation in seen:
            continue
        seen.add(derivation)
        out.append(derivation)
    return out
