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
symbol for "with" and "without an adjunction here". Point items, which
cover no words (trace components, the slots they fill, zero-width
auxiliaries, feet), are implicit: their antecedents are point items at the
same position, so their least costs and hyperedges depend on the grammar
alone. ``ChartTables`` derives them once, as pass 1 over the empty sentence
(the point table), and a sentence's chart holds only items that cover
words. An item with no words after its foot leaves its gap's right end
open, so a foot's left sibling makes one item, not one per right end of
the gap. This is how Tree Insertion Grammar (Schabes & Waters 1995) parses
auxiliaries with a foot at one end in cubic time.

1. Recognition builds a packed forest: a Knuth-style worklist settles
   every derivable item once, at its least instance count, and records
   every rule firing, with its cost, as a hyperedge of its consequent.
2. Enumeration lists the instance trees of the start pairs' root items,
   cheapest first, by one uniform-cost search of that forest, with explicit
   stacks and no recursion, in the manner of agenda-driven deductive
   parsing (Shieber, Schabes & Pereira 1995). It hands the trees out one
   priority cost at a time and finds those of a cost without expanding
   any dearer state. ``max_uses`` is applied here, and only here, as an
   instance budget, and ``MAX_PARSES`` caps the trees one parse may
   enumerate.

Phase 2 restores set discipline one priority level at a time, reading each
instance's pair and component from ``ChartTables.comps`` by component id,
and each set pair's components from ``ChartTables.sets``. A derivation's
cost (sum of use priorities minus one, so priority-1 pairs are free) and
its use count are fixed by its instance tree, so each batch of trees from
enumeration is one level's candidates, those over the use budget dropped.
A use is its component-0 instance. Each further component's instances of
a multi-component pair are matched bijectively with that pair's uses. An
instance tree that has a grouping is expanded once, by compose's engine
(``derive.expand``), each instance its own use, at the sites pass 2 found;
``compose``'s checks of those sites are left out, since pass 1's deduction
rules guarantee them. The expansion gives its yield, checked against the
input, its instances in order of first appearance in derived preorder and
their spans. No derivation is composed. Each grouping's uses are numbered
by first appearance, which makes its canonical derivation directly, and
those whose dominance requirements fail on the spans are discarded; a cost
with none left is skipped, and the next batch is enumerated. Surviving
trees are deduplicated by their derivations and, when more than one is
left, sorted. ``parse`` returns the cheapest level, or every level when
asked, each carrying its derivations' source trees, which compose, with
every check, only when a caller reads their nodes; dearer levels are never
enumerated, grouped or expanded unless asked for.
``all_derivations`` returns every level's derivations flat.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from functools import cached_property
from typing import NamedTuple

from .derive import (
    OP_ADJOIN,
    OP_SUBST,
    Attachment,
    Derivation,
    DerivedTree,
    dominance_violations,
    expand,
    make_derivation,
    ranking_key,
)
from .errors import InternalError, LimitExceededError, NoParseError
from .model import (
    ADJOIN_NA,
    ADJOIN_OA,
    KIND_EMPTY,
    KIND_FOOT,
    KIND_INTERIOR,
    KIND_LEX,
    KIND_SUBST,
    ElementaryTree,
    GornAddress,
    Grammar,
    TreeNode,
)
from .morphotok import TokenizedSentence, check_anchored

# pass-1 chart items one parse may settle before it gives up with the coded
# error limit-exceeded (the benchmark's largest chart holds a few hundred)
MAX_CHART_ITEMS = 200_000
# root instance trees pass 2 may enumerate for one parse, cheapest level
# first, before the coded error limit-exceeded (translating a benchmark input
# enumerates at most 4, the canonical chase sentence 1 of its 5, an embedding
# chain of any depth 1; every level of a benchmark input holds at most 17)
MAX_PARSES = 10_000
# groupings of one instance tree before the coded error limit-exceeded: k
# instances of one set pair make k! (3! = 6 in the benchmark's grammars)
MAX_GROUPINGS = 10_000

# the gap of an item with no words after its foot: it runs from the item's
# end to a right end that the item leaves unfixed
OPEN = "open"


class PriorityLevel(NamedTuple):
    """The derivations of one cost, as source trees in ranking order."""

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

    Every component gets a component id (``comps`` maps it to its pair
    name and component index, ``comp_id`` back) and every node an integer
    id, in the preorder of ``ElementaryTree.nodes``. An item is a symbol
    over lex[i:j], plus the foot gap (gi, gj) when the subtree holds a foot,
    with gj < j; or, when no words follow the foot, ``OPEN``: the item
    covers lex[i:j] and its foot gap runs from j to a right end it leaves
    unfixed. The symbols are:

    - at symbol (the node id n): the subtree at n, with at most one
      adjunction at n;
    - below symbol of n: the subtree at n, no adjunction at n. Where no
      adjunction can happen at n (a leaf, or an interior node that is
      null-adjoining or has no auxiliary of its category) and n is not
      obligatory-adjoining, the two items are the same and the below
      symbol is n itself;
    - instance symbol (``inst0 + c``): one whole instance of component c;
    - sequence symbols of interior node p, one per child k: p's children
      from the k-th on. The first is p's below symbol and the last the at
      symbol of p's last child; the ones in between get ids of their own.

    A point item covers no words: its span is (i, i), and its foot gap,
    if any, is open. A foot (``feet``, the at symbol of every foot) is a
    point item at cost 0 whose gap is all it covers, so it is an operand
    like any other child. The point table is pass 1 over the empty
    sentence: ``point_best`` and ``point_edges`` hold its chart, every item
    at position 0 and every gap (0, 0), the only right end there. That key
    is a point item's only key, whatever position it fills: a sentence's
    hyperedges name their point antecedents by it.

    The deduction rules are written once, here, in one row per antecedent
    symbol (``rules``, a list indexed by symbol): its unary rules, its rule
    as a left and as a right operand, the node it hosts adjunctions at and,
    for an auxiliary instance, its root category. Each rule carries the
    point items it can meet, so pass 1 looks none up: the point items of
    an operand's partner, the zero-width auxiliaries a host can take and
    the point hosts an auxiliary can adjoin at. A settled item reads its
    row with one index and one unpack. The symbols themselves are
    construction locals. Pass 2 only searches pass 1's hyperedges, reading
    from these tables just the instance symbols and where an instance
    attaches (``site``, with the site's preorder index in its tree). Phase
    2 groups an instance tree's set instances by ``sets``, the component
    ids of each set pair, set pairs in name order, and ``set_of``, the index
    there of each set pair's component id; it expands an instance tree, and
    gives a use of a pair, ``components``, that pair's source trees.
    """

    def __init__(self, grammar: Grammar):
        self.comps: list[tuple[str, int]] = []
        self.comp_id: dict[tuple[str, int], int] = {}
        # pass 2's charge for an instance: a use is its component-0 instance
        self.comp_cost: list[int] = []
        # phase 2's, by component id: its pair's source trees
        self.components: list[tuple[ElementaryTree, ...]] = []
        nodes: list[TreeNode] = []
        addrs: list[tuple[GornAddress, int]] = []  # and preorder index in its tree
        children: list[list[int]] = []
        roots: list[tuple[int, bool]] = []  # component id -> (root, auxiliary)
        for pair in grammar.pairs:
            for ci, comp in enumerate(pair.source.components):
                self.comp_id[pair.name, ci] = len(self.comps)
                self.comps.append((pair.name, ci))
                self.comp_cost.append(pair.priority - 1 if ci == 0 else 0)
                self.components.append(pair.source.components)
                roots.append((len(nodes), comp.is_auxiliary))
                ids: dict[tuple[int, ...], int] = {}
                for address, node in comp.nodes.items():
                    ids[address.path] = len(nodes)
                    if address.path:
                        children[ids[address.path[:-1]]].append(len(nodes))
                    nodes.append(node)
                    addrs.append((address, len(ids) - 1))
                    children.append([])
        # pass 2's instance budget allows max_comps instances per use
        self.max_comps = max((p.n_components for p in grammar.pairs), default=1)
        sets = sorted((p.name, p.n_components) for p in grammar.pairs
                      if p.source.is_multi)
        self.sets = [[self.comp_id[name, ci] for ci in range(k)] for name, k in sets]
        self.set_of = {comp: rank for rank, ids in enumerate(self.sets) for comp in ids}
        aux_cats = {nodes[root].cat for root, is_aux in roots if is_aux}
        hosting = [node.kind == KIND_INTERIOR and node.adjoin != ADJOIN_NA
                   and node.cat in aux_cats for node in nodes]
        next_sym = len(nodes)
        below = list(range(next_sym))
        for n, node in enumerate(nodes):
            if hosting[n] or node.adjoin == ADJOIN_OA:
                below[n] = next_sym
                next_sym += 1
        self.inst0 = next_sym
        next_sym += len(self.comps)

        # the deduction rules, indexed by antecedent symbol
        self.feet = [n for n, node in enumerate(nodes) if node.kind == KIND_FOOT]
        unary: dict[int, list[tuple[int, int]]] = {}
        as_left: dict[int, tuple[int, int]] = {}
        as_right: dict[int, tuple[int, int]] = {}
        host_of: dict[int, tuple[int, str]] = {}  # below symbol -> (n, cat)
        aux_cat: dict[int, str] = {}              # instance symbol -> root cat
        self.lex_syms: dict[str, list[int]] = {}
        self.empty_syms: list[int] = []
        # cat -> (node id, below symbol) of its adjoinable nodes
        hosts: dict[str, list[tuple[int, int]]] = {}
        # slot or host symbol -> (address, preorder index, operation) of
        # the site where an instance there attaches
        self.site: dict[int, tuple[GornAddress, int, str]] = {}
        subst_slots: dict[str, list[int]] = {}
        for n, node in enumerate(nodes):
            if below[n] != n and node.adjoin != ADJOIN_OA:
                unary.setdefault(below[n], []).append((n, 0))
            if node.kind == KIND_SUBST:
                subst_slots.setdefault(node.cat, []).append(below[n])
                self.site[below[n]] = (*addrs[n], OP_SUBST)
            elif node.kind == KIND_LEX:
                self.lex_syms.setdefault(node.word, []).append(below[n])
            elif node.kind == KIND_EMPTY:
                self.empty_syms.append(below[n])
            elif hosting[n]:
                hosts.setdefault(node.cat, []).append((n, below[n]))
                host_of[below[n]] = (n, node.cat)
                self.site[n] = (*addrs[n], OP_ADJOIN)
            kids = children[n]
            middle = range(next_sym, next_sym + max(len(kids) - 2, 0))
            next_sym += len(middle)
            out = (below[n], *middle, *kids[-1:])
            if len(kids) == 1:
                unary.setdefault(kids[0], []).append((out[0], 0))
            for k in range(len(kids) - 1):
                as_left[kids[k]] = (out[k + 1], out[k])
                as_right[out[k + 1]] = (kids[k], out[k])
        for c, (root, is_aux) in enumerate(roots):
            inst = self.inst0 + c
            unary.setdefault(root, []).append((inst, 1))
            if is_aux:
                aux_cat[inst] = nodes[root].cat
            else:
                for slot in subst_slots.get(nodes[root].cat, ()):
                    unary.setdefault(inst, []).append((slot, 0))

        def rows(points, point_auxes):
            """symbol -> (unary rules as (consequent, instance count), as a
            left operand (right partner, consequent, the partner's point
            items), as a right operand (left partner, consequent, the
            partner's point items), as a host (node id, cat, the zero-width
            auxiliaries of cat), as an auxiliary instance (its root cat, the
            point items at the hosts of cat as (node id, below symbol, gap,
            key, cost))), each None where the symbol has no such rule"""
            lefts = {sym: (partner, out, points.get(partner, ()))
                     for sym, (partner, out) in as_left.items()}
            rights = {sym: (partner, out, points.get(partner, ()))
                      for sym, (partner, out) in as_right.items()}
            host_rows = {sym: (n, cat, point_auxes.get(cat, ()))
                         for sym, (n, cat) in host_of.items()}
            aux_rows = {sym: (cat, [(n, below, *point)
                                    for n, below in hosts.get(cat, ())
                                    for point in points.get(below, ())])
                        for sym, cat in aux_cat.items()}
            return [(tuple(unary.get(sym, ())), lefts.get(sym), rights.get(sym),
                     host_rows.get(sym), aux_rows.get(sym)) for sym in range(next_sym)]

        # the point table's run covers no words, so it meets no point
        # partners and starts from no point hyperedges, and its gaps all
        # end at 0
        self.rules = rows({}, {})
        self.point_edges: dict[tuple, list[tuple]] = {}
        empty = _SpanParser((), self)
        self.point_best, self.point_edges = empty.best, empty.edges
        # the point items by symbol, as (gap, key, cost) with the gap None
        # or OPEN, and the zero-width auxiliaries by category, as (key, cost)
        points: dict[int, list[tuple[str | None, tuple, int]]] = {}
        point_auxes: dict[str, list[tuple[tuple, int]]] = {}
        for key, cost in self.point_best.items():
            sym, gap = key[0], key[3]
            points.setdefault(sym, []).append((gap and OPEN, key, cost))
            if sym in aux_cat:
                point_auxes.setdefault(aux_cat[sym], []).append((key, cost))
        self.rules = rows(points, point_auxes)


class _SpanParser:
    """Both passes of phase 1 over one lexical stream.

    Holds the lexical stream and pass 1's forest: the least cost of every
    item that covers words and the log of every firing, which ``edges``
    files. The rules, symbols and point items come from the grammar's
    shared ``ChartTables``.
    """

    def __init__(self, lex: tuple[str, ...], tables: ChartTables):
        self.lex = lex
        self.tables = tables
        self.best, self.log = self._recognize()

    @cached_property
    def edges(self) -> dict[tuple, list[tuple]]:
        """The per-item hyperedge map, filed from the log on first read:
        the point table's hyperedges, then each item over words with its
        hyperedges in firing order. Sentence items cover words, so no key
        of theirs is a table key. Pass 2 reads it only once a start pair's
        root item settled within the budget, so an input that derives no
        goal item files none."""
        edges = dict(self.tables.point_edges)
        for key, edge in self.log:
            edges.setdefault(key, []).append(edge)
        return edges

    def _recognize(self) -> tuple[dict[tuple, int], list[tuple[tuple, tuple]]]:
        """Pass 1: the least instance count of every derivable item that
        covers words, and the log of the hyperedges that derive them.

        Knuth's generalisation of Dijkstra's algorithm to the TAG CKY
        deduction rules: an item leaves the bucket queue once, at its least
        cost, and is then combined with the partners already settled. A
        cheaper derivation found later re-queues only its consequent, so
        cycles (stacked or zero-width auxiliaries) reach the least fixpoint
        without re-sweeping the chart. Every firing is logged as
        (consequent key, hyperedge), cheapest or not, so pass 2 can list
        every derivation. A hyperedge is the cost it fired at (the
        consequent's own instance count plus its antecedents' least
        costs), then its antecedent item keys, left to right. No instance
        budget applies; pass 2 applies it.

        Point items (over no words, feet among them) are never queued,
        except over the empty sentence, whose chart is the point table: an
        item that settles meets the point partners its row carries, a left
        operand at its end, a right operand at its start, a host the
        zero-width auxiliaries and an auxiliary the point hosts at its
        gap's start. Settled hosts are filed by category and start, so an
        auxiliary finds the hosts over words at its gap's start with one
        lookup.

        An open gap is carried unchanged by unary rules, by a gap-free left
        operand and by a point partner on its right. Each rule that fixes
        its right end loops over the settled partners, never over the
        right ends:
        - an open left operand meets a gap-free right operand over words
          that starts at or after its end, which ends the gap there;
        - an open auxiliary adjoins at a host that starts where its gap
          does, and its gap ends where the host does;
        - a closed auxiliary adjoins at an open host whose words its gap
          covers, and the host's gap ends where the auxiliary's does.
        A right operand whose left partner covers only its gap, such as a
        foot, still yields one item per left end of that gap. The chart is
        capped at ``MAX_CHART_ITEMS`` items.
        """
        t, n_lex = self.tables, len(self.lex)
        rules = t.rules
        best: dict[tuple, int] = {}
        log: list[tuple[tuple, tuple]] = []
        fired = log.append
        queue: list[list[tuple]] = [[]]

        def push(key, edge):
            cost = edge[0]
            known = best.get(key)
            if known is None and len(best) >= MAX_CHART_ITEMS:
                raise LimitExceededError(
                    f"the input needs more than {MAX_CHART_ITEMS} chart items")
            fired((key, edge))
            if known is None or cost < known:
                best[key] = cost
                while len(queue) <= cost:
                    queue.append([])
                queue[cost].append(key)

        def adjoined(n, host, aux):
            """The item at node n with aux adjoined at host, which starts
            where the gap of aux does; None where their ends disagree."""
            gap, agap = host[3], aux[3]
            if agap is OPEN:        # the gap of aux ends where host does
                return (n, aux[1], host[2], gap)
            if gap is OPEN:         # the gap of host ends where that of aux does
                if host[2] <= agap[1]:
                    return (n, aux[1], aux[2], (host[2], agap[1]))
            elif host[2] == agap[1]:
                return (n, aux[1], aux[2], gap)
            return None

        for i, word in enumerate(self.lex):
            for sym in t.lex_syms.get(word, ()):
                push((sym, i, i + 1, None), (0,))
        if not n_lex:   # the point table's own run
            for sym in t.empty_syms:
                push((sym, 0, 0, None), (0,))
            for sym in t.feet:
                push((sym, 0, 0, (0, 0)), (0,))

        # partner indexes of settled item keys
        ends: dict[tuple[int, int], list] = {}      # left operands by end
        starts: dict[tuple[int, int], list] = {}    # right operands by start
        open_lefts: dict[int, list] = {}            # open left operands
        free_rights: dict[int, list] = {}           # gap-free right operands
        aux_by_gap: dict[tuple[str, int], list] = {}     # by gap start
        host_items: dict[tuple[str, int], list] = {}     # (node, key) by cat, start
        cost = 0
        while cost < len(queue):
            for key in queue[cost]:     # the bucket grows while it is read
                if best[key] != cost:
                    continue
                sym, i, j, gap = key
                unary, as_left, as_right, host_of, aux_of = rules[sym]
                for out, extra in unary:
                    push((out, i, j, gap), (cost + extra, key))
                if as_left is not None:
                    right, out, right_points = as_left
                    if gap is OPEN:     # a right partner over words closes it
                        open_lefts.setdefault(sym, []).append(key)
                        for other in free_rights.get(right, ()):
                            if other[1] >= j:
                                push((out, i, other[2], (j, other[1])),
                                     (cost + best[other], key, other))
                    else:
                        ends.setdefault((sym, j), []).append(key)
                        for other in starts.get((right, j), ()):
                            if gap is None or other[3] is None:
                                push((out, i, other[2], gap or other[3]),
                                     (cost + best[other], key, other))
                    for pgap, pkey, extra in right_points:
                        if gap is None or pgap is None:
                            push((out, i, j, gap or pgap),
                                 (cost + extra, key, pkey))
                if as_right is not None:
                    left, out, left_points = as_right
                    starts.setdefault((sym, i), []).append(key)
                    for other in ends.get((left, i), ()):
                        if gap is None or other[3] is None:
                            push((out, other[1], j, gap or other[3]),
                                 (cost + best[other], other, key))
                    if gap is None:
                        free_rights.setdefault(sym, []).append(key)
                        for other in open_lefts.get(left, ()):
                            if other[2] <= i:
                                push((out, other[1], j, (other[2], i)),
                                     (cost + best[other], other, key))
                    for pgap, pkey, extra in left_points:
                        if pgap is None:
                            push((out, i, j, gap), (cost + extra, pkey, key))
                        elif gap is None:   # its gap runs from any p to i
                            for p in range(i + 1):
                                push((out, p, j, (p, i)),
                                     (cost + extra, pkey, key))
                if host_of is not None:
                    n, cat, zero_auxes = host_of
                    host_items.setdefault((cat, i), []).append((n, key))
                    for aux in aux_by_gap.get((cat, i), ()):
                        out = adjoined(n, key, aux)
                        if out:
                            push(out, (cost + best[aux], key, aux))
                    for pkey, extra in zero_auxes:
                        push((n, i, j, gap), (cost + extra, key, pkey))
                if aux_of is not None:
                    cat, point_hosts = aux_of
                    gi = j if gap is OPEN else gap[0]
                    aux_by_gap.setdefault((cat, gi), []).append(key)
                    for n, host in host_items.get((cat, gi), ()):
                        out = adjoined(n, host, key)
                        if out:
                            push(out, (cost + best[host], host, key))
                    for n, below, pgap, pkey, extra in point_hosts:
                        out = adjoined(n, (below, gi, gi, pgap), key)
                        if out:
                            push(out, (cost + extra, pkey, key))
            cost += 1
        return best, log

    def trees(self, roots: list[tuple], budget: int
              ) -> Iterator[tuple[int, list[tuple]]]:
        """Pass 2: every instance tree of the root items with at most budget
        instances, cheapest first, as one (cost, trees) batch per priority
        cost that has any. A tree's cost is the sum of ``comp_cost`` over
        its instances: priority minus one per use. A tree is flat: one
        (component id, parent index, ``site`` entry) per instance, each
        parent before its children. An instance a root item holds at its
        top, the item's own instance among them, has parent index ``None``;
        the item's own has no site either. More than ``MAX_PARSES`` trees
        are refused.

        A uniform-cost search of the hyperedge map (Knuth 1977), with one
        explicit stack per cost so far, as pass 1's bucket queue. A state
        holds the items still to expand, as a linked list of (item, parent
        index, the ``site`` of the item that holds it); the instances found
        so far, as a linked list, and their count; and its slack, the
        budget less a lower bound on the tree's size: the count plus every
        pending item's least cost. Expanding an item by a hyperedge costs
        the hyperedge's recorded cost less the item's least cost. That
        cost is the item's own instance count plus its antecedents' least
        costs, so a state within the budget always completes to a tree, no
        state over it is pushed, and the work grows with the trees found.
        The successors of a state that pops an instance are pushed on the
        stack of its cost plus the instance's charge, the others on the
        current one, whose rightmost pending item is expanded first. No
        charge is negative, since every priority is at least 1, so once
        the stack of cost c is empty every tree of cost c has been found
        and no dearer state expanded: a batch is complete when it is
        handed out, and a caller that stops after it pays for no dearer
        one. Trees hold no positions, so a point item, named by its table
        key, has one set of trees for every position it fills, and an open
        item one for every right end of its gap.
        """
        t = self.tables
        best, point_best, site = self.best, t.point_best, t.site
        inst0, comp_cost = t.inst0, t.comp_cost
        n_comps = len(comp_cost)
        buckets: list[list[tuple]] = [[]]
        for key in reversed(roots):     # the first root is expanded first
            least = best.get(key, point_best.get(key))
            if least is not None and least <= budget:   # some tree fits
                buckets[0].append((((key, None, None), None), None, 0,
                                   budget - least))
        if not buckets[0]:
            return
        edges = self.edges      # filed only for an item with a tree to find
        n_trees = 0
        for cost, stack in enumerate(buckets):  # the queue grows while read
            found = []
            while stack:
                pending, insts, count, slack = stack.pop()
                if pending is None:
                    n_trees += 1
                    if n_trees > MAX_PARSES:
                        raise LimitExceededError(
                            f"the input has more than {MAX_PARSES} instance trees")
                    tree = []
                    while insts:
                        inst, insts = insts
                        tree.append(inst)
                    found.append(tuple(reversed(tree)))
                    continue
                (item, parent, at), pending = pending
                sym = item[0]
                comp, out = sym - inst0, stack
                if 0 <= comp < n_comps:     # an instance, parent of its own
                    insts = ((comp, parent, at), insts)
                    parent, count = count, count + 1
                    if comp_cost[comp]:
                        dearer = cost + comp_cost[comp]
                        while len(buckets) <= dearer:
                            buckets.append([])
                        out = buckets[dearer]
                least = best.get(item)
                if least is None:
                    least = point_best[item]
                held_at = site.get(sym)     # where an instance antecedent attaches
                for edge in edges[item]:
                    left = slack + least - edge[0]
                    if left >= 0:
                        grown = pending
                        for ante in edge[1:]:
                            grown = ((ante, parent, held_at), grown)
                        out.append((grown, insts, count, left))
            if found:
                yield cost, found


def _groupings(flat: tuple, tables: ChartTables):
    """Yield the use of each further component's instance, by instance
    index, a use being its component-0 instance's index.

    flat is an instance tree from ``_SpanParser.trees``. One pass over it
    files the instances of each set pair's components by component id
    (``ChartTables.sets``). The instances of each further component of a
    multi-component pair are matched bijectively with that pair's uses;
    every choice of one permutation per further component is one candidate
    reading. A tree in which a further component has more or fewer
    instances than its pair has uses has none. More than
    ``MAX_GROUPINGS`` readings are refused before any is built.
    """
    set_of = tables.set_of
    members: dict[int, list[int]] = {}  # component id -> its instances
    for idx, (comp, _, _) in enumerate(flat):
        if comp in set_of:
            members.setdefault(comp, []).append(idx)
    matched = []    # (a further component's instances, its pair's uses)
    for rank in sorted({set_of[comp] for comp in members}):
        first, *further = tables.sets[rank]
        base = members.get(first, ())
        for comp in further:
            found = members.get(comp, ())
            if len(found) != len(base):
                return
            matched.append((found, base))
    if math.prod(math.factorial(len(base)) for _, base in matched) > MAX_GROUPINGS:
        raise LimitExceededError(
            f"an instance tree has more than {MAX_GROUPINGS} groupings")

    for chosen in itertools.product(*(itertools.permutations(found)
                                      for found, _ in matched)):
        yield {idx: use for perm, (_, base) in zip(chosen, matched)
               for idx, use in zip(perm, base)}


def _priority_levels(sentence: TokenizedSentence, grammar: Grammar,
                     max_uses: int | None) -> Iterator[PriorityLevel]:
    """The priority levels of the sentence, cheapest first, each built only
    when it is asked for.

    Phase 1 runs up front, from every start pair's head component. An
    instance tree with a grouping is expanded once: its yield is checked
    against the input, and its order of first appearance numbers each
    grouping's uses canonically and its spans settle dominance.
    ``max_uses`` None is ``all_derivations``' default.
    """
    check_anchored(sentence, grammar)
    lex = sentence.lex_stream

    if max_uses is None:
        max_uses = len(lex)
    tables = grammar.chart_tables
    budget = max_uses * tables.max_comps
    span = _SpanParser(lex, tables)

    roots = [(tables.inst0 + tables.comp_id[pair.name, pair.source.head],
              0, len(lex), None) for pair in grammar.start_pairs]
    for cost, batch in span.trees(roots, budget):
        found: dict[Derivation, DerivedTree] = {}
        for flat in batch:
            insts = [tables.comps[comp] for comp, _, _ in flat]  # (pair, component)
            # a use is its component-0 instance
            heads = {idx: idx for idx, (_, ci) in enumerate(insts) if ci == 0}
            if len(heads) > max_uses:
                continue
            expanded = None
            for further in _groupings(flat, tables):
                if expanded is None:    # each instance its own use
                    sites: dict[tuple[int, int], dict[int, tuple]] = {}
                    for idx, (_, parent, (_, index, op)) in enumerate(flat[1:], 1):
                        sites.setdefault((parent, insts[parent][1]), {})[index] = (
                            idx, insts[idx][1], op)
                    words, joins, entered, spans, _ = expanded = expand(
                        [tables.components[comp] for comp, _, _ in flat], sites,
                        (0, insts[0][1]), False)
                    if words != lex:
                        raise InternalError(
                            f"derived tree yields {words}, not the input {lex}")
                use_of = heads | further    # instance index -> use
                # use -> its canonical number, its rank of first appearance
                rank = {use: n for n, use in enumerate(
                    dict.fromkeys(use_of[idx] for idx in entered))}
                canon = [rank[use_of[idx]] for idx in range(len(flat))]
                derivation = make_derivation([insts[use][0] for use in rank], canon[0], [
                    Attachment(canon[idx], insts[idx][1], canon[parent],
                               insts[parent][1], address, op)
                    for idx, (_, parent, (address, _, op)) in enumerate(flat[1:], 1)])
                # spans, like entered, are in order of first appearance
                tree = DerivedTree(
                    [tables.components[flat[use][0]] for use in rank], derivation,
                    insts[0][1], (words, joins, None, {
                        (canon[idx], insts[idx][1]): span
                        for idx, span in zip(entered, spans.values())}, None))
                if not dominance_violations(tree, grammar):
                    found.setdefault(derivation, tree)
        if found:   # a level of one derivation needs no ranking
            trees = found.values() if len(found) == 1 else sorted(
                found.values(), key=lambda t: ranking_key(t.derivation, grammar))
            yield PriorityLevel(cost=cost, trees=tuple(trees))


def all_derivations(sentence: TokenizedSentence, grammar: Grammar, *,
                    max_uses: int | None = None) -> tuple[Derivation, ...]:
    """Every valid derivation of the sentence, canonical and sorted.

    Derivations use at most max_uses pairs. The default, the number of
    lexical items, cuts nothing: every pair of a ``Grammar`` is anchored,
    so every use puts a word into the yield.
    """
    return tuple(tree.derivation
                 for level in _priority_levels(sentence, grammar, max_uses)
                 for tree in level.trees)


def parse(sentence: TokenizedSentence, grammar: Grammar, *,
          all_levels: bool = False) -> tuple[PriorityLevel, ...]:
    """Parse and rank: the cheapest priority level, or with all_levels every
    level, cheapest first.

    Levels above the cheapest are neither expanded nor checked unless
    all_levels is set. Each level carries its derivations with their source
    trees, which compose when a caller first reads their nodes. Raises
    NoParseError when no derivation covers the input; the budget is
    all_derivations' default.
    """
    levels = _priority_levels(sentence, grammar, None)
    chosen = tuple(levels if all_levels else itertools.islice(levels, 1))
    if not chosen:
        raise NoParseError("no derivation covers the input")
    return chosen
