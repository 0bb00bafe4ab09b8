"""Source-side parsing: from a token stream to ranked derivations.

Parsing happens in two phases. Phase 1 treats every component of every pair
as a free-standing tree and finds its instance trees over the lexical
stream: a substitution slot is filled by any initial component of the right
category, any interior node may host one adjunction by any auxiliary
component of the right category, and auxiliary components parse with a
foot gap. It runs as two passes over one chart of TAG CKY items (node, span
and foot gap). The node numbering and the deduction rules depend only on
the grammar, so they are built once per grammar (``ChartTables``) and
shared by all its parses. A node where no adjunction can happen has one
symbol for "with" and "without an adjunction here", and foot items are
implicit: a foot covers any span at cost 0, so the chart never holds them.

1. Recognition, with no budget: a Knuth-style worklist finds the least
   instance count of every derivable item. Items form cycles (stacked and
   zero-width auxiliaries over one span); the worklist settles each item
   once, at its least cost, so cycles end without a budget. A foot's
   sibling, once settled, yields the items with every foot gap next to it.
2. Enumeration: instance trees are unpacked top down, and ``max_uses`` is
   applied here as an instance budget. Each call returns exactly the
   parses of total instance count within its budget, and skips every item
   and split point whose pass-1 least cost exceeds what is left of it, so
   only productive items are ever visited.

Phase 2 restores set discipline one priority level at a time, cheapest
first. A derivation's cost (sum of use priorities minus one, so
priority-1 pairs are free) is fixed by its instance tree, so the instance
trees are bucketed by cost before any grouping. Per cost, instances of
multi-component pairs are grouped into uses by bijective matching per
component, each grouping is composed once, and groupings whose dominance
requirements fail are discarded; a cost with no survivor is skipped.
Surviving trees are canonicalized in place, deduplicated and sorted.
``parse`` returns the cheapest level, or every level when asked, each
carrying its derivations' composed trees so no later stage composes them
again; dearer levels are never grouped or composed unless asked for.
``all_derivations`` returns every level's derivations flat.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

from .derive import (
    OP_ADJOIN,
    OP_SUBST,
    Attachment,
    Derivation,
    DerivedTree,
    build_derived_tree,
    canonicalize,
    dominance_violations,
    make_derivation,
    ranking_key,
    uses_cost,
)
from .errors import InternalError, LexicalGapError, NoParseError
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
    TreeNode,
)
from .morphotok import TokenizedSentence


@dataclass(frozen=True)
class Op:
    """An attachment into the instance being parsed, at elementary site."""

    site: GornAddress
    op: str
    inst: "InstParse"


@dataclass(frozen=True)
class InstParse:
    """One component instance covering lex[i:j], with a foot gap if auxiliary."""

    pair: str
    comp: int
    i: int
    j: int
    gap: tuple[int, int] | None
    ops: tuple[Op, ...]
    size: int


@dataclass(frozen=True)
class PriorityLevel:
    """The derivations of one cost, as composed trees in ranking order."""

    cost: int
    trees: tuple[DerivedTree, ...]

    @property
    def derivations(self) -> tuple[Derivation, ...]:
        return tuple(tree.derivation for tree in self.trees)


class ChartTables:
    """The grammar-only tables of both passes of phase 1.

    Built once per grammar on first use and kept as ``Grammar.chart_tables``
    for as long as the grammar lives. Nothing writes to them after
    construction, so concurrent parses of one grammar share them.

    Every node of every component gets an integer id. An item is a symbol
    over lex[i:j], plus the foot gap when the subtree holds a foot:

    - ``at`` symbol (the node id ``n``): the subtree at n, with at most one
      adjunction at n;
    - ``below`` symbol (``below[n]``): the subtree at n, no adjunction at
      n. Where no adjunction can happen at n (a leaf, or an interior node
      that is null-adjoining or has no auxiliary of its category) and n is
      not obligatory-adjoining, the two items are the same and ``below[n]``
      is n itself;
    - instance symbol (``inst0 + c``): one whole instance of component c;
    - sequence symbol ``seq[p][k]``: the children of interior node p from
      the k-th on. ``seq[p][0]`` is p's below symbol and the last entry is
      the at symbol of p's last child; the ones in between get ids of their
      own.

    Foot items are implicit: a foot covers any span, as its own gap, at
    cost 0, so pass 1 never builds them (see ``_SpanParser._recognize``).
    """

    def __init__(self, grammar: Grammar):
        self.node: list[TreeNode] = []
        self.addr: list[GornAddress] = []
        self.children: list[tuple[int, ...]] = []
        # component id -> (pair name, component index, root node id)
        self.comps: list[tuple[str, int, int]] = []
        self.comp_id: dict[tuple[str, int], int] = {}
        self.subst_candidates: dict[str, list[int]] = {}
        self.adjoin_candidates: dict[str, list[int]] = {}
        for pair in grammar.pairs:
            for ci, comp in enumerate(pair.source.components):
                table = (self.adjoin_candidates if comp.is_auxiliary
                         else self.subst_candidates)
                table.setdefault(comp.root_cat, []).append(len(self.comps))
                self.comp_id[pair.name, ci] = len(self.comps)
                self.comps.append((pair.name, ci, self._add_node(comp.root, ROOT)))
        hosting = [node.kind == KIND_INTERIOR and node.adjoin != ADJOIN_NA
                   and node.cat in self.adjoin_candidates for node in self.node]
        next_sym = len(self.node)
        self.below: list[int] = []
        for n, node in enumerate(self.node):
            if hosting[n] or node.adjoin == ADJOIN_OA:
                self.below.append(next_sym)
                next_sym += 1
            else:
                self.below.append(n)
        self.inst0 = next_sym
        next_sym += len(self.comps)
        self.seq: list[tuple[int, ...]] = []
        for p, kids in enumerate(self.children):
            middle = range(next_sym, next_sym + max(len(kids) - 2, 0))
            next_sym += len(middle)
            last = (kids[-1],) if len(kids) > 1 else ()
            self.seq.append((self.below[p], *middle, *last))
        self._rules(hosting)

    def _add_node(self, node: TreeNode, addr: GornAddress) -> int:
        nid = len(self.node)
        self.node.append(node)
        self.addr.append(addr)
        self.children.append(())
        self.children[nid] = tuple(self._add_node(child, addr.child(k))
                                   for k, child in enumerate(node.children, 1))
        return nid

    def _rules(self, hosting: list[bool]) -> None:
        """The deduction rules of pass 1, indexed by antecedent symbol."""
        # foot at symbols: an obligatory-adjoining foot is never derivable
        self.feet = frozenset(n for n, node in enumerate(self.node)
                              if node.kind == KIND_FOOT and self.below[n] == n)
        self.unary: dict[int, list[tuple[int, int]]] = {}
        self.as_left: dict[int, tuple[int, int]] = {}
        self.as_right: dict[int, tuple[int, int]] = {}
        self.foot_left: dict[int, int] = {}   # right sibling of a foot -> out
        self.foot_right: dict[int, int] = {}  # left sibling of a last foot -> out
        self.foot_only: list[int] = []        # below symbols over a lone foot
        self.lex_syms: dict[str, list[int]] = {}
        self.empty_syms: list[int] = []
        self.hosts: dict[str, list[int]] = {}     # cat -> adjoinable node ids
        self.host_of: dict[int, tuple[int, str]] = {}  # below symbol -> (n, cat)
        self.aux_cat: dict[int, str] = {}         # instance symbol -> root cat
        subst_slots: dict[str, list[int]] = {}
        for n, node in enumerate(self.node):
            below = self.below[n]
            if below != n and node.adjoin != ADJOIN_OA:
                self.unary.setdefault(below, []).append((n, 0))
            if node.kind == KIND_SUBST:
                subst_slots.setdefault(node.cat, []).append(below)
            elif node.kind == KIND_LEX:
                self.lex_syms.setdefault(node.word, []).append(below)
            elif node.kind == KIND_EMPTY:
                self.empty_syms.append(below)
            elif hosting[n]:
                self.hosts.setdefault(node.cat, []).append(n)
                self.host_of[below] = (n, node.cat)
            kids, seq = self.children[n], self.seq[n]
            if len(kids) == 1:
                if kids[0] in self.feet:
                    self.foot_only.append(seq[0])
                else:
                    self.unary.setdefault(kids[0], []).append((seq[0], 0))
            for k in range(len(kids) - 1):
                if kids[k] in self.feet:
                    self.foot_left[seq[k + 1]] = seq[k]
                elif k == len(kids) - 2 and kids[k + 1] in self.feet:
                    self.foot_right[kids[k]] = seq[k]
                else:
                    self.as_left[kids[k]] = (seq[k + 1], seq[k])
                    self.as_right[seq[k + 1]] = (kids[k], seq[k])
        for c, (_, _, root) in enumerate(self.comps):
            inst = self.inst0 + c
            self.unary.setdefault(root, []).append((inst, 1))
            cat = self.node[root].cat
            if c in self.adjoin_candidates.get(cat, ()):
                self.aux_cat[inst] = cat
            else:
                for slot in subst_slots.get(cat, ()):
                    self.unary.setdefault(inst, []).append((slot, 0))


class _SpanParser:
    """Both passes of phase 1 over one lexical stream.

    Holds the lexical stream, the instance budget, pass 1's chart of least
    costs and pass 2's memo; the rules and symbols come from the grammar's
    shared ``ChartTables``.
    """

    def __init__(self, lex: tuple[str, ...], tables: ChartTables, budget: int):
        self.lex = lex
        self.budget = budget
        self.tables = tables
        self.low = self._recognize()
        self._memo: dict[tuple[int, int, int, int], tuple] = {}

    def _recognize(self) -> dict[tuple[int, int, int], int]:
        """Pass 1: the least instance count of every derivable item.

        Knuth's generalisation of Dijkstra's algorithm to the TAG CKY
        deduction rules: an item leaves the bucket queue once, at its least
        cost, and is then combined with the partners already settled. A
        cheaper derivation found later re-queues only its consequent, so
        cycles (stacked or zero-width auxiliaries) reach the least fixpoint
        without re-sweeping the chart. Items dearer than the whole budget
        are dropped. Foot items are never queued: when a gap-free sibling of
        a foot settles, it yields the sequence item for every foot gap on
        its open side at its own cost, and a foot that is an only child
        seeds its parent's below item over every span. Returns the least
        cost per (symbol, i, j) over gaps.
        """
        t, n_lex, budget = self.tables, len(self.lex), self.budget
        unary, as_left, as_right = t.unary, t.as_left, t.as_right
        foot_left, foot_right = t.foot_left, t.foot_right
        hosts, host_of, aux_cat = t.hosts, t.host_of, t.aux_cat
        best: dict[tuple, int] = {}
        queue: list[list[tuple]] = [[]]

        def push(sym, i, j, gap, cost):
            key = (sym, i, j, gap)
            if cost <= budget and cost < best.get(key, cost + 1):
                best[key] = cost
                while len(queue) <= cost:
                    queue.append([])
                queue[cost].append(key)

        for i, word in enumerate(self.lex):
            for sym in t.lex_syms.get(word, ()):
                push(sym, i, i + 1, None, 0)
        for sym in t.empty_syms:
            for i in range(n_lex + 1):
                push(sym, i, i, None, 0)
        for sym in t.foot_only:
            for i in range(n_lex + 1):
                for j in range(i, n_lex + 1):
                    push(sym, i, j, (i, j), 0)

        low: dict[tuple[int, int, int], int] = {}
        ends: dict[tuple[int, int], list] = {}      # left operands by end
        starts: dict[tuple[int, int], list] = {}    # right operands by start
        aux_by_gap: dict[tuple[str, int, int], list] = {}
        hosts_by_span: dict[tuple[int, int, int], list] = {}
        cost = 0
        while cost < len(queue):
            for key in queue[cost]:     # the bucket grows while it is read
                if best[key] != cost:
                    continue
                sym, i, j, gap = key
                low.setdefault((sym, i, j), cost)
                for out, extra in unary.get(sym, ()):
                    push(out, i, j, gap, cost + extra)
                if gap is None:
                    if sym in foot_left:
                        out = foot_left[sym]
                        for k in range(i + 1):
                            push(out, k, j, (k, i), cost)
                    if sym in foot_right:
                        out = foot_right[sym]
                        for k in range(j, n_lex + 1):
                            push(out, i, k, (j, k), cost)
                if sym in as_left:
                    right, out = as_left[sym]
                    ends.setdefault((sym, j), []).append((i, gap, cost))
                    for k, gap2, cost2 in starts.get((right, j), ()):
                        if gap is None or gap2 is None:
                            push(out, i, k, gap or gap2, cost + cost2)
                if sym in as_right:
                    left, out = as_right[sym]
                    starts.setdefault((sym, i), []).append((j, gap, cost))
                    for k, gap2, cost2 in ends.get((left, i), ()):
                        if gap is None or gap2 is None:
                            push(out, k, j, gap or gap2, cost + cost2)
                if sym in host_of:
                    n, cat = host_of[sym]
                    hosts_by_span.setdefault((n, i, j), []).append((gap, cost))
                    for oi, oj, cost2 in aux_by_gap.get((cat, i, j), ()):
                        push(n, oi, oj, gap, cost + cost2)
                if sym in aux_cat:
                    gi, gj = gap
                    aux_by_gap.setdefault((aux_cat[sym], gi, gj), []).append(
                        (i, j, cost))
                    for n in hosts.get(aux_cat[sym], ()):
                        for gap2, cost2 in hosts_by_span.get((n, gi, gj), ()):
                            push(n, i, j, gap2, cost + cost2)
            cost += 1
        return low

    def _least(self, sym: int, i: int, j: int) -> int | None:
        """Pass 1's least cost of an item, None if it is not derivable.

        A foot covers any span at cost 0; pass 1 never stores foot items.
        """
        if sym in self.tables.feet:
            return 0
        return self.low.get((sym, i, j))

    def _fits(self, sym: int, i: int, j: int, budget: int) -> bool:
        """Whether pass 1 found the item at a cost within budget."""
        least = self._least(sym, i, j)
        return least is not None and least <= budget

    # Pass 2: each call returns exactly the parses of the item whose total
    # instance count is at most budget, memoized per (symbol, i, j, budget).

    def instances(self, comp: int, i: int, j: int,
                  budget: int) -> tuple[InstParse, ...]:
        """All parses of one whole component instance over lex[i:j]."""
        sym = self.tables.inst0 + comp
        if not self._fits(sym, i, j, budget):
            return ()
        key = (sym, i, j, budget)
        hit = self._memo.get(key)
        if hit is None:
            pair_name, ci, root = self.tables.comps[comp]
            hit = self._memo[key] = tuple(
                InstParse(pair=pair_name, comp=ci, i=i, j=j, gap=gap, ops=ops,
                          size=1 + size)
                for gap, ops, size in self.at(root, i, j, budget - 1))
        return hit

    def at(self, n: int, i: int, j: int, budget: int) -> tuple:
        """Parses of the subtree at node n, allowing one adjunction at n."""
        t = self.tables
        if t.below[n] == n:     # no adjunction can happen at n
            return self.below(n, i, j, budget)
        if not self._fits(n, i, j, budget):
            return ()
        key = (n, i, j, budget)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        node = t.node[n]
        results = []
        if node.adjoin != ADJOIN_OA:
            results.extend(self.below(n, i, j, budget))
        for aux_comp in t.adjoin_candidates.get(node.cat, ()):
            for aux in self.instances(aux_comp, i, j, budget):
                gi, gj = aux.gap
                op = Op(t.addr[n], OP_ADJOIN, aux)
                for gap, ops, size in self.below(n, gi, gj, budget - aux.size):
                    results.append((gap, ops + (op,), size + aux.size))
        hit = self._memo[key] = tuple(results)
        return hit

    def below(self, n: int, i: int, j: int, budget: int) -> tuple:
        """Parses of the subtree at node n with no adjunction at n itself."""
        t = self.tables
        node = t.node[n]
        if node.kind == KIND_INTERIOR:
            return self._split(n, 0, i, j, budget)
        sym = t.below[n]
        if not self._fits(sym, i, j, budget):
            return ()
        if node.kind == KIND_FOOT:
            return (((i, j), (), 0),)
        if node.kind != KIND_SUBST:
            return ((None, (), 0),)     # the lexical item, or the empty leaf
        key = (sym, i, j, budget)
        hit = self._memo.get(key)
        if hit is None:
            site = t.addr[n]
            hit = self._memo[key] = tuple(
                (None, (Op(site, OP_SUBST, inst),), inst.size)
                for comp in t.subst_candidates.get(node.cat, ())
                for inst in self.instances(comp, i, j, budget))
        return hit

    def _split(self, p: int, k: int, i: int, j: int, budget: int) -> tuple:
        """Partition lex[i:j] over p's children from the k-th on, threading
        gap and budget; split points pass 1 rules out are skipped."""
        kids, seq = self.tables.children[p], self.tables.seq[p]
        if k == len(kids) - 1:
            return self.at(kids[k], i, j, budget)
        if not self._fits(seq[k], i, j, budget):
            return ()
        key = (seq[k], i, j, budget)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        head, rest, least = kids[k], seq[k + 1], self._least
        out = []
        for mid in range(i, j + 1):
            first = least(head, i, mid)
            second = least(rest, mid, j)
            if first is None or second is None or first + second > budget:
                continue
            for gap1, ops1, size1 in self.at(head, i, mid, budget):
                for gap2, ops2, size2 in self._split(p, k + 1, mid, j,
                                                     budget - size1):
                    if gap1 is not None and gap2 is not None:
                        continue
                    out.append((gap1 or gap2, ops1 + ops2, size1 + size2))
        hit = self._memo[key] = tuple(out)
        return hit
def _collect_instances(root: InstParse):
    """Flatten an instance tree into (instances, edges by child index)."""
    instances: list[InstParse] = []
    edges: dict[int, tuple[int, Op]] = {}

    def walk(inst: InstParse) -> int:
        idx = len(instances)
        instances.append(inst)
        for op in inst.ops:
            child_idx = walk(op.inst)
            edges[child_idx] = (idx, op)
        return idx

    walk(root)
    return instances, edges


def _groupings(instances, grammar: Grammar):
    """Yield use assignments: instance index -> use id.

    Singleton-pair instances each get their own use. Instances of a
    multi-component pair are grouped by matching the instance lists of its
    components bijectively; every bijection is one candidate reading.
    """
    by_pair_comp: dict[tuple[str, int], list[int]] = {}
    for idx, inst in enumerate(instances):
        if grammar.pair(inst.pair).source.is_multi:
            by_pair_comp.setdefault((inst.pair, inst.comp), []).append(idx)

    multi_pairs = sorted({name for name, _ in by_pair_comp})
    match_spaces = []
    for name in multi_pairs:
        pair = grammar.pair(name)
        lists = [by_pair_comp.get((name, c), []) for c in range(pair.n_components)]
        base = lists[0]
        if any(len(lst) != len(base) for lst in lists):
            return
        # one matching = for each further component, a permutation aligning
        # its instances with component 0's, position by position
        perms_per_comp = [itertools.permutations(lst) for lst in lists[1:]]
        matchings = []
        for combo in itertools.product(*perms_per_comp):
            groups = []
            for pos, anchor_idx in enumerate(base):
                group = (anchor_idx,) + tuple(perm[pos] for perm in combo)
                groups.append(group)
            matchings.append(tuple(groups))
        match_spaces.append(matchings)

    for chosen in itertools.product(*match_spaces):
        assignment: dict[int, int] = {}
        next_use = 0
        grouped: dict[int, tuple[int, ...]] = {}
        for matching in chosen:
            for group in matching:
                for idx in group:
                    grouped[idx] = group
        seen_groups: dict[tuple[int, ...], int] = {}
        for idx in range(len(instances)):
            if idx in assignment:
                continue
            group = grouped.get(idx)
            if group is None:
                assignment[idx] = next_use
                next_use += 1
            else:
                if group not in seen_groups:
                    seen_groups[group] = next_use
                    next_use += 1
                for member in group:
                    assignment[member] = seen_groups[group]
        yield assignment, next_use


def _priority_levels(sentence: TokenizedSentence, grammar: Grammar,
                     max_uses: int | None) -> Iterator[PriorityLevel]:
    """The priority levels of the sentence, cheapest first, each built only
    when it is asked for.

    Phase 1 runs up front; its root instance trees are then bucketed by
    cost, which the instance tree alone fixes: every grouping makes one use
    per singleton instance and one per component-0 instance of a set. Per
    cost, cheapest first, each grouping is composed exactly once; the tree
    that passes the yield and dominance checks is canonicalized in place
    and kept. A cost whose every grouping fails its dominance requirement
    yields no level.
    """
    lex = sentence.lex_stream
    for word in lex:
        if word not in grammar.anchor_index and word not in grammar.particle_map:
            raise LexicalGapError(word)

    if max_uses is None:
        max_uses = len(lex) + 2
    max_comps = max((p.n_components for p in grammar.pairs), default=1)
    tables = grammar.chart_tables
    span = _SpanParser(lex, tables, budget=max_uses * max_comps)

    buckets: dict[int, list] = {}
    for pair in grammar.pairs:
        head = pair.source.head
        head_tree = pair.source.head_tree
        if head_tree.is_auxiliary or head_tree.root_cat != grammar.start_symbol:
            continue
        for root_inst in span.instances(tables.comp_id[pair.name, head], 0,
                                        len(lex), span.budget):
            instances, edges = _collect_instances(root_inst)
            # every grouping makes one use per component-0 instance
            cost = uses_cost((inst.pair for inst in instances if inst.comp == 0),
                             grammar)
            buckets.setdefault(cost, []).append((instances, edges))

    for cost in sorted(buckets):
        found: dict[Derivation, DerivedTree] = {}
        for instances, edges in buckets[cost]:
            for assignment, n_uses in _groupings(instances, grammar):
                if n_uses > max_uses:
                    continue
                uses = [""] * n_uses
                for idx, inst in enumerate(instances):
                    uses[assignment[idx]] = inst.pair
                attachments = []
                for idx, (parent_idx, op) in edges.items():
                    attachments.append(Attachment(
                        use=assignment[idx], comp=instances[idx].comp,
                        host=assignment[parent_idx],
                        host_comp=instances[parent_idx].comp,
                        site=op.site, op=op.op))
                derivation = make_derivation(uses, assignment[0], attachments)
                tree = build_derived_tree(derivation, grammar)
                produced = tree.yield_lex()
                if produced != lex:
                    raise InternalError(
                        f"derived tree yields {produced}, not the input {lex}")
                if dominance_violations(tree, grammar):
                    continue
                found.setdefault(canonicalize(tree), tree)
        if found:
            yield PriorityLevel(cost=cost, trees=tuple(sorted(
                found.values(), key=lambda t: ranking_key(t.derivation, grammar))))


def all_derivations(sentence: TokenizedSentence, grammar: Grammar, *,
                    max_uses: int | None = None) -> tuple[Derivation, ...]:
    """Every valid derivation of the sentence, canonical and sorted.

    Derivations use at most max_uses pairs (default: token count plus two,
    enough for any set stacking the lexicon supports).
    """
    return tuple(tree.derivation
                 for level in _priority_levels(sentence, grammar, max_uses)
                 for tree in level.trees)


def parse(sentence: TokenizedSentence, grammar: Grammar, *,
          max_uses: int | None = None,
          all_levels: bool = False) -> tuple[PriorityLevel, ...]:
    """Parse and rank: the cheapest priority level, or with all_levels every
    level, cheapest first.

    Levels above the cheapest are neither composed nor checked unless
    all_levels is set. Each level carries its derivations with their
    composed source trees, so callers render from those rather than
    composing again. Raises NoParseError when no derivation covers the
    input; the budget is that of all_derivations.
    """
    levels = _priority_levels(sentence, grammar, max_uses)
    chosen = tuple(levels if all_levels else itertools.islice(levels, 1))
    if not chosen:
        raise NoParseError("no derivation covers the input")
    return chosen
