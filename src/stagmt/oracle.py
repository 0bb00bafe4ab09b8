"""Blind reference enumerator used to referee the parser.

The oracle knows nothing about spans or charts. It enumerates every multiset
of pair uses whose combined anchor words exactly cover the input, then every
way of attaching every component of every use anywhere it could physically
go, composes each configuration by pure top-down expansion, and keeps the
ones that pass all the well-formedness judgements (slots filled, categories
matching, no double or null-site adjunction, obligatory adjunction done,
dominance respected, yield equal to the input). This is exponential and
proud of it; it exists so the real parser has something exact to disagree
with.

Composition here deliberately shares no code with stagmt.derive: it is a
recursive expander over immutable nested tuples, the foot filler passed as
an argument, where stagmt.derive expands under an explicit stack. Only the
Derivation record type, its canonical numbering and its ranking order are
shared, so both sides speak the same language when their result sets are
compared, and so is the lexical check (``morphotok.check_anchored``) that
``assert_equivalence`` runs before both sides. The oracle ranks the uses of
an accepted configuration by first appearance in its own expanded form, in
preorder, and hands that numbering to canonicalize.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .derive import (
    OP_ADJOIN,
    OP_SUBST,
    Attachment,
    Derivation,
    canonicalize,
    make_derivation,
    ranking_key,
)
from .errors import LexicalGapError, OracleBoundError
from .model import (
    ADJOIN_NA,
    ADJOIN_OA,
    KIND_EMPTY,
    KIND_FOOT,
    KIND_INTERIOR,
    KIND_LEX,
    KIND_SUBST,
    ROOT,
    GornAddress,
    Grammar,
)
from .morphotok import TokenizedSentence, check_anchored

# attachment configurations tried per sentence before the oracle gives up
MAX_CONFIGS = 2_000_000


class OracleBound(NamedTuple):
    """Safety rails; the oracle raises rather than silently truncate."""

    max_uses: int = 12


class _Invalid(Exception):
    """Internal: this configuration is not a derivation."""


# form = (tag, cat, kind, word, children); tag = (use, comp, addr)


def _find_path(form, tag, prefix=()):
    if form[0] == tag:
        return prefix
    for i, child in enumerate(form[4]):
        hit = _find_path(child, tag, prefix + (i,))
        if hit is not None:
            return hit
    return None


def _form_yield(form):
    if form[2] == KIND_LEX:
        return (form[3],)
    out = ()
    for child in form[4]:
        out += _form_yield(child)
    return out


def _use_order(form, order):
    """Rank each use by its first appearance in the form, in preorder."""
    order.setdefault(form[0][0], len(order))
    for child in form[4]:
        _use_order(child, order)
    return order


def _pair_lex(pair) -> Counter:
    counts: Counter = Counter()
    for comp in pair.source.components:
        counts.update(comp.lex_words)
    return counts


def _use_multisets(lex_counts: Counter, grammar: Grammar, bound: OracleBound):
    """All multisets of pair names whose anchors exactly cover the input.

    Every pair of a grammar is anchored, so each copy of a pair consumes a
    word and the search is finite and exhaustive.
    """
    names = sorted(grammar.pair_by_name)
    results: list[tuple[str, ...]] = []

    def extend(idx: int, remaining: Counter, chosen: list[str]):
        if not remaining:
            results.append(tuple(chosen))
            return
        if idx == len(names) or len(chosen) >= bound.max_uses:
            return
        name = names[idx]
        need = _pair_lex(grammar.pair(name))
        copies = 0
        state = remaining
        while True:
            extend(idx + 1, state, chosen + [name] * copies)
            if not all(state[w] >= c for w, c in need.items()):
                break
            state = state - need
            copies += 1

    extend(0, lex_counts, [])
    return results


class _Expander:
    """Pure top-down composition of one attachment configuration."""

    def __init__(self, uses, grammar: Grammar, subst_map, adjoin_map):
        self.uses = uses
        self.g = grammar
        self.subst_map = subst_map      # (host u, c, addr) -> (u, c)
        self.adjoin_map = adjoin_map    # (host u, c, addr) -> (u, c)
        self.visited: set = set()
        self.stack: set = set()

    def expand(self, use: int, comp: int, foot_filler):
        key = (use, comp)
        if key in self.stack or key in self.visited:
            raise _Invalid
        self.stack.add(key)
        tree = self.g.pair(self.uses[use]).source.components[comp]
        form = self._node(tree, use, comp, ROOT, foot_filler)
        self.stack.discard(key)
        self.visited.add(key)
        return form

    def _node(self, tree, use, comp, addr, foot_filler):
        node = tree.nodes.get(addr)
        site = (use, comp, addr)
        if node.kind == KIND_SUBST:
            filler = self.subst_map.get(site)
            if filler is None:
                raise _Invalid  # slot left unfilled
            fu, fc = filler
            ftree = self.g.pair(self.uses[fu]).source.components[fc]
            if ftree.is_auxiliary or ftree.root.cat != node.cat:
                raise _Invalid
            return self.expand(fu, fc, None)
        if node.kind == KIND_FOOT:
            if foot_filler is None:
                raise _Invalid
            return foot_filler
        if node.kind in (KIND_LEX, KIND_EMPTY):
            return (site, node.cat, node.kind, node.word, ())
        # interior: build the base, then wrap with any adjunction here
        children = tuple(
            self._node(tree, use, comp, GornAddress(addr.path + (i,)), foot_filler)
            for i in range(1, len(node.children) + 1))
        base = (site, node.cat, node.kind, None, children)
        adj = self.adjoin_map.get(site)
        if adj is None:
            if node.adjoin == ADJOIN_OA:
                raise _Invalid
            return base
        if node.adjoin == ADJOIN_NA:
            raise _Invalid
        au, ac = adj
        atree = self.g.pair(self.uses[au]).source.components[ac]
        if not atree.is_auxiliary or atree.root.cat != node.cat:
            raise _Invalid
        return self.expand(au, ac, base)


def _attachment_sites(uses, grammar: Grammar):
    """Candidate host sites per attaching component, blindly by category."""
    interior_sites: dict[str, list] = {}
    slot_sites: dict[str, list] = {}
    for u, name in enumerate(uses):
        pair = grammar.pair(name)
        for c, comp in enumerate(pair.source.components):
            for addr, node in comp.nodes.items():
                if node.kind == KIND_INTERIOR and node.adjoin != ADJOIN_NA:
                    interior_sites.setdefault(node.cat, []).append((u, c, addr))
                elif node.kind == KIND_SUBST:
                    slot_sites.setdefault(node.cat, []).append((u, c, addr))

    options = {}
    for u, name in enumerate(uses):
        pair = grammar.pair(name)
        for c, comp in enumerate(pair.source.components):
            table = interior_sites if comp.is_auxiliary else slot_sites
            sites = [s for s in table.get(comp.root.cat, []) if s[:2] != (u, c)]
            options[(u, c)] = sites
    return options


def brute_force_derivations(sentence: TokenizedSentence, grammar: Grammar,
                            bound: OracleBound = OracleBound()):
    """Every valid derivation, by exhaustive generate-and-test."""
    lex = sentence.lex_stream
    if len(lex) > bound.max_uses:
        raise OracleBoundError(
            f"{len(lex)} lexical items exceed the use bound {bound.max_uses}")
    lex_counts = Counter(lex)
    found: set[Derivation] = set()
    configs_tried = 0
    start_names = {pair.name for pair in grammar.start_pairs}

    for uses in _use_multisets(lex_counts, grammar, bound):
        options = _attachment_sites(uses, grammar)
        for root in [u for u, name in enumerate(uses) if name in start_names]:
            root_head = grammar.pair(uses[root]).source.head
            to_attach = [
                (u, c)
                for u, name in enumerate(uses)
                for c in range(grammar.pair(name).n_components)
                if (u, c) != (root, root_head)]

            def assign(idx: int, taken: dict):
                nonlocal configs_tried
                if idx == len(to_attach):
                    configs_tried += 1
                    if configs_tried > MAX_CONFIGS:
                        raise OracleBoundError(
                            f"more than {MAX_CONFIGS} configurations")
                    _try_config(uses, root, root_head, taken, grammar, lex, found)
                    return
                key = to_attach[idx]
                for site in options[key]:
                    if site in taken:
                        continue
                    taken[site] = key
                    assign(idx + 1, taken)
                    del taken[site]

            assign(0, {})

    return tuple(sorted(found, key=lambda d: ranking_key(d, grammar)))


def _try_config(uses, root, root_head, taken, grammar, lex, found):
    subst_map = {}
    adjoin_map = {}
    for site, (u, c) in taken.items():
        comp = grammar.pair(uses[u]).source.components[c]
        if comp.is_auxiliary:
            adjoin_map[site] = (u, c)
        else:
            subst_map[site] = (u, c)

    expander = _Expander(uses, grammar, subst_map, adjoin_map)
    try:
        form = expander.expand(root, root_head, None)
    except _Invalid:
        return
    except RecursionError:
        # cyclic configurations are rejected through stack/visited above,
        # so only nesting deeper than the interpreter allows lands here
        raise OracleBoundError(
            "configuration nests deeper than the recursion limit") from None
    if len(expander.visited) != sum(
            grammar.pair(name).n_components for name in uses):
        return  # disconnected islands never entered the root's expansion
    if _form_yield(form) != tuple(lex):
        return

    for u, name in enumerate(uses):
        pair = grammar.pair(name)
        for dominator, dominated in pair.source.dominance:
            upper = _find_path(form, (u, dominator, ROOT))
            lower = _find_path(form, (u, dominated, ROOT))
            if upper is None or lower is None:
                return
            if not (len(upper) < len(lower) and lower[:len(upper)] == upper):
                return

    attachments = []
    for site, (u, c) in taken.items():
        host_u, host_c, addr = site
        aux = grammar.pair(uses[u]).source.components[c].is_auxiliary
        attachments.append(Attachment(use=u, comp=c, host=host_u,
                                      host_comp=host_c, site=addr,
                                      op=OP_ADJOIN if aux else OP_SUBST))
    found.add(canonicalize(make_derivation(uses, root, attachments),
                           _use_order(form, {})))


class EquivalenceReport(NamedTuple):
    lex: tuple[str, ...]
    parser_count: int
    oracle_count: int
    only_parser: tuple[Derivation, ...]
    only_oracle: tuple[Derivation, ...]
    bound_exceeded: str | None = None

    @property
    def match(self) -> bool:
        return (self.bound_exceeded is None
                and not self.only_parser and not self.only_oracle)

    def summary(self) -> str:
        if self.bound_exceeded is not None:
            return (f"{' '.join(self.lex)}: bound exceeded "
                    f"({self.bound_exceeded})")
        verdict = "agree" if self.match else "DISAGREE"
        return (f"{' '.join(self.lex)}: parser={self.parser_count} "
                f"oracle={self.oracle_count} [{verdict}]")


def assert_equivalence(sentence: TokenizedSentence, grammar: Grammar,
                       bound: OracleBound = OracleBound()) -> EquivalenceReport:
    """Compare the real parser against the oracle on one sentence.

    A sentence that ``check_anchored`` refuses, as the parser does before
    it parses, has no derivations on either side. Never raises for bound
    overruns: a too-small bound is reported in the result so corpus sweeps
    can flag it instead of dying.
    """
    from .parser import all_derivations
    try:
        check_anchored(sentence, grammar)
    except LexicalGapError:
        return EquivalenceReport(lex=sentence.lex_stream, parser_count=0,
                                 oracle_count=0, only_parser=(), only_oracle=())
    parsed = set(all_derivations(sentence, grammar))
    try:
        brute = set(brute_force_derivations(sentence, grammar, bound))
    except OracleBoundError as exc:
        return EquivalenceReport(
            lex=sentence.lex_stream, parser_count=len(parsed), oracle_count=0,
            only_parser=(), only_oracle=(), bound_exceeded=str(exc))
    return EquivalenceReport(
        lex=sentence.lex_stream,
        parser_count=len(parsed),
        oracle_count=len(brute),
        only_parser=tuple(sorted(parsed - brute, key=lambda d: d.uses)),
        only_oracle=tuple(sorted(brute - parsed, key=lambda d: d.uses)),
    )
