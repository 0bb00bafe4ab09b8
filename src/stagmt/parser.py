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
symbol for "with" and "without an adjunction here". A component's root has
no item of its own: each rule that completes a root makes the component's
instance item, one instance dearer, so no unary rule relays one to the
other (such relays fold into the rules that feed them, Shieber, Schabes &
Pereira 1995). Nor has a substitution slot: an initial instance item
plays the part of every slot of its category in the rules that read one,
so it fills each slot directly. Point items, which cover no words (trace
components, zero-width auxiliaries, feet), are implicit: their
antecedents are point items at the same position, so their least costs
and hyperedges depend on the grammar alone. ``ChartTables`` derives them
once, as pass 1 over the empty sentence (the point table), and a
sentence's chart holds only items that cover words. An item with no words
after its foot leaves its gap's right end open, so a foot's left sibling
makes one item, not one per right end of the gap. This is how Tree Insertion Grammar (Schabes & Waters 1995) parses
auxiliaries with a foot at one end in cubic time. Pass 1 relies on the
grammar's one-foot rule (``multiple-feet``): of two sibling subtrees at
most one holds its tree's foot, so no rule joins two gapped operands and
none checks for it, as in the TAG CKY items of Vijay-Shanker & Joshi 1985.

1. Recognition builds a packed forest: a Knuth-style worklist settles
   every derivable item once, at its least instance count, and records
   every rule firing, with its cost, as a hyperedge of its consequent.
2. Enumeration lists the instance trees of the start pairs' root items,
   cheapest first, by one uniform-cost search of that forest, with one
   explicit stack per cost that has pending states and no recursion, in
   the manner of agenda-driven deductive parsing. It expands only items
   whose symbol can hold an instance (``ChartTables.holds``): any other
   item costs 0 and has one instance tree, the empty one, so it is never
   pushed. It hands the trees out one priority cost at a time and finds
   those of a cost without expanding any dearer state. ``max_uses`` is
   applied here, and only here, as an instance budget, and ``MAX_PARSES``
   caps the trees one parse may enumerate.

Phase 2 restores set discipline one priority level at a time, reading each
instance's pair and component from ``ChartTables.comps`` by component id,
and each set pair's components from ``ChartTables.sets``. A derivation's
cost (sum of use priorities minus one, so priority-1 pairs are free) and
its use count are fixed by its instance tree, so each batch of trees from
enumeration is one level's candidates, those over the use budget dropped.
A use is its component-0 instance. Each further component's instances of
a multi-component pair are matched bijectively with that pair's uses. An
instance tree that has a grouping is expanded once, by the composing
engine (``derive.expand``), each instance its own use, at the sites pass 2
found; ``DerivedTree``'s checks of those sites are left out, since pass
1's deduction rules guarantee them. A tree with no grouping is skipped
unexpanded. The expansion gives its yield, checked against the input, its
instances in order of first appearance in derived preorder and their
spans. No derivation is composed. Each grouping's uses are numbered
by first appearance, which makes its canonical derivation directly, and
those whose dominance requirements fail on the spans are discarded; a cost
with none left is skipped, and the next batch is enumerated.
``MAX_GROUPINGS`` caps the groupings of one parse, every level it builds
counted, each tree's count taken before any of its groupings is built.
Surviving trees are deduplicated by their derivations and, when more than
one is left, sorted. ``parse`` returns the cheapest level, or every level
when asked, each carrying its derivations' source trees, which compose,
with every check, only when a caller reads their nodes; dearer levels are
never enumerated, grouped or expanded unless asked for.
``all_derivations`` returns every level's derivations flat.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
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

# pass-1 firings one parse may log before it gives up with the coded error
# limit-exceeded; every chart item enters through one, so this caps the
# chart and the log alike (the benchmark's largest chart holds a few hundred
# items; the input shapes measured log about 1.0 to 1.2 firings per item)
MAX_CHART_ITEMS = 200_000
# root instance trees pass 2 may enumerate for one parse, cheapest level
# first, before the coded error limit-exceeded (translating a benchmark input
# enumerates at most 4, the canonical chase sentence 1 of its 5, an embedding
# chain of any depth 1; every level of a benchmark input holds at most 17)
MAX_PARSES = 10_000
# groupings of the instance trees of one parse, every level it builds
# counted, before the coded error limit-exceeded: k instances of one set
# pair make k! (3! = 6 in the benchmark's grammars), a tree with no set
# instance makes 1
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
    name and component index) and every node an integer id, in the
    preorder of ``ElementaryTree.nodes``. An item is a symbol
    over lex[i:j], plus the foot gap (gi, gj) when the subtree holds a foot,
    with gj < j; or, when no words follow the foot, ``OPEN``: the item
    covers lex[i:j] and its foot gap runs from j to a right end it leaves
    unfixed. The symbols are:

    - at symbol (the node id n): the subtree at n, with at most one
      adjunction at n. A component's root has none: its instance symbol
      stands in for it. Nor has a substitution slot: the rules that read
      a slot read an instance of its category instead;
    - below symbol of n: the subtree at n, no adjunction at n. Where no
      adjunction can happen at n (a leaf, or an interior node that is
      null-adjoining or has no auxiliary of its category) and n is not
      obligatory-adjoining, the two items are the same and the below
      symbol is n itself;
    - instance symbol (``inst0 + c``): one whole instance of component c.
      Each rule that completes c's root makes it, one instance dearer:
      the rule of the root's children, or for a root where adjunction can
      happen, the unary rule from its below symbol and an adjunction there;
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
    symbol (``rules``, a list indexed by symbol): the key pass 1 files its
    operand items under, its unary rules, its rules as a left and as a
    right operand, the symbol its adjunctions make and, for an auxiliary
    instance, its root category. All substitution slots of one category
    share one partner key. An initial instance is filed under its
    category's key, and its row carries the role of every slot of that
    category, as an only child or as a left or right operand, so no slot
    item is ever made; its point items, such as traces, are the point
    partners of that key. Each rule carries the instance count of its
    consequent (1 where it makes an instance, else 0) and the point items
    it can meet, so pass 1 looks none up: the point items of an operand's
    partner, the zero-width auxiliaries a host can take and the point
    hosts an auxiliary can adjoin at, each point item's cost with that
    count added. A settled item reads its row with one index and one
    unpack. The symbols themselves are construction locals. ``holds``
    flags, by symbol, whether an item of it can hold an instance: an
    instance, a site, or what a rule makes from one, to a fixpoint over the
    rules. Pass 2 only searches pass 1's hyperedges, reading from these
    tables just the instance symbols, ``holds`` and where an instance
    attaches (``site``). ``site`` is keyed by consequent: the symbol an
    adjunction makes, or one made by a rule that reads a slot, these being
    the sites. It gives one entry per antecedent position, the address,
    preorder index in its tree and operation of the site where an instance
    at that position attaches, or None; an adjunction's entry is the same
    at both positions. Each parse's root items are the instances of the
    start pairs' head components over the whole input, their symbols listed
    in ``starts``, in ``Grammar.start_pairs`` order. Phase 2 groups an
    instance tree's set instances by ``sets``, the component ids of each
    set pair, set pairs in name order; it expands an instance tree, and
    gives a use of a pair, ``components``, that pair's source trees.
    """

    def __init__(self, grammar: Grammar):
        self.comps: list[tuple[str, int]] = []
        comp_id: dict[tuple[str, int], int] = {}
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
                comp_id[pair.name, ci] = len(self.comps)
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
        self.sets = [[comp_id[name, ci] for ci in range(k)] for name, k in sets]
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
        self.starts = [self.inst0 + comp_id[p.name, p.source.head]
                       for p in grammar.start_pairs]

        # the deduction rules, indexed by antecedent symbol
        self.feet = [n for n, node in enumerate(nodes) if node.kind == KIND_FOOT]
        unary: dict[int, list[tuple[int, int]]] = {}
        as_left: dict[int, list[tuple[int, int, int]]] = {}
        as_right: dict[int, list[tuple[int, int, int]]] = {}
        # below symbol -> (consequent, its instance count, cat)
        host_of: dict[int, tuple[int, int, str]] = {}
        aux_cat: dict[int, str] = {}              # instance symbol -> root cat
        self.lex_syms: dict[str, list[int]] = {}
        self.empty_syms: list[int] = []
        # cat -> (consequent, its instance count, below symbol) of its
        # adjoinable nodes
        hosts: dict[str, list[tuple[int, int, int]]] = {}
        # consequent of an adjunction or of a rule that reads a slot -> per
        # antecedent position, (address, preorder index, operation) of the
        # site where an instance there attaches, or None
        self.site: dict[int, tuple] = {}
        # cat -> the one partner key of its slots, its last slot's symbol,
        # which no item has: an initial instance of cat is filed under it
        slot_key = {node.cat: n for n, node in enumerate(nodes)
                    if node.kind == KIND_SUBST}
        # (symbol, instance count) of what a rule that completes a root
        # makes: the root's instance, one instance dearer
        lift = {root: (self.inst0 + c, 1) for c, (root, _) in enumerate(roots)}
        for n, node in enumerate(nodes):
            at = lift.get(n, (n, 0))
            if below[n] != n and node.adjoin != ADJOIN_OA:
                unary.setdefault(below[n], []).append(at)
            if node.kind == KIND_LEX:
                self.lex_syms.setdefault(node.word, []).append(below[n])
            elif node.kind == KIND_EMPTY:
                self.empty_syms.append(below[n])
            elif hosting[n]:
                hosts.setdefault(node.cat, []).append((*at, below[n]))
                host_of[below[n]] = (*at, node.cat)
                self.site[at[0]] = ((*addrs[n], OP_ADJOIN),) * 2
            # where an instance in each child slot attaches; a slot child's
            # symbol in the rules is its category's key
            slots = [(*addrs[k], OP_SUBST) if nodes[k].kind == KIND_SUBST else None
                     for k in children[n]]
            kids = [slot_key[nodes[k].cat] if slot else k
                    for k, slot in zip(children[n], slots)]
            middle = range(next_sym, next_sym + max(len(kids) - 2, 0))
            next_sym += len(middle)
            out = (below[n], *middle, *kids[-1:])
            made = [lift.get(sym, (sym, 0)) for sym in out]
            if len(kids) == 1:
                unary.setdefault(kids[0], []).append(made[0])
                if slots[0]:
                    self.site[made[0][0]] = (slots[0],)
            for k in range(len(kids) - 1):
                as_left.setdefault(kids[k], []).append((out[k + 1], *made[k]))
                as_right.setdefault(out[k + 1], []).append((kids[k], *made[k]))
                # the right operand is a child only when it is the last
                held = (slots[k], slots[-1] if k + 2 == len(kids) else None)
                if any(held):
                    self.site[made[k][0]] = held
        fills: dict[int, int] = {}  # initial instance symbol -> its slot key
        for c, (root, is_aux) in enumerate(roots):
            if is_aux:
                aux_cat[self.inst0 + c] = nodes[root].cat
            elif nodes[root].cat in slot_key:
                fills[self.inst0 + c] = slot_key[nodes[root].cat]
        # the symbols whose items can hold an instance: the instances, the
        # sites and whatever a rule makes from one of them, to a fixpoint
        holds = self.holds = [sym in self.site or 0 <= sym - self.inst0 < len(self.comps)
                              for sym in range(next_sym)]
        links = [(sym, out) for sym, rules in unary.items() for out, _ in rules]
        links += [(ante, out) for sym, roles in as_left.items()
                  for partner, out, _ in roles for ante in (sym, partner)]
        while any(holds[sym] and not holds[out] for sym, out in links):
            for sym, out in links:
                holds[out] = holds[out] or holds[sym]

        def rows(points, point_auxes):
            """symbol -> (the key its operands are filed under, unary rules
            as (consequent, instance count), rules as a left operand (right
            partner, consequent, its instance count, the partner's point
            items), rules as a right operand (left partner, consequent, its
            instance count, the partner's point items), as a host
            (consequent, its instance count, cat, the zero-width auxiliaries
            of cat), as an auxiliary instance (its root cat, the point items
            at the hosts of cat as (consequent, below symbol, gap, key,
            cost))), the last two None where the symbol has no such rule.
            An initial instance's key and rules are its category's slots'.
            A point partner's cost includes the consequent's instance count."""
            def dearer(items, extra):
                return [(*item[:-1], item[-1] + extra) for item in items]

            lefts, rights = ({sym: [(partner, out, extra,
                                     dearer(points.get(partner, ()), extra))
                                    for partner, out, extra in roles]
                              for sym, roles in operands.items()}
                             for operands in (as_left, as_right))
            host_rows = {sym: (at, extra, cat, dearer(point_auxes.get(cat, ()), extra))
                         for sym, (at, extra, cat) in host_of.items()}
            # one list per category, shared by its auxiliaries
            point_hosts = {cat: [(at, below, *point) for at, extra, below in cat_hosts
                                 if below in points
                                 for point in dearer(points[below], extra)]
                           for cat, cat_hosts in hosts.items()}
            aux_rows = {sym: (cat, point_hosts.get(cat, []))
                        for sym, cat in aux_cat.items()}
            return [(part, tuple(unary.get(part, ())), lefts.get(part, ()),
                     rights.get(part, ()), host_rows.get(sym), aux_rows.get(sym))
                    for sym, part in ((sym, fills.get(sym, sym)) for sym in range(next_sym))]

        # the point table's run covers no words, so it meets no point
        # partners and starts from no point hyperedges, and its gaps all
        # end at 0
        self.rules = rows({}, {})
        self.point_edges: dict[tuple, list[tuple]] = {}
        empty = _SpanParser((), self)
        self.point_best, self.point_edges = empty.best, empty.edges
        # the point items by the key they are filed under, as (gap, key,
        # cost) with the gap None or OPEN, and the zero-width auxiliaries by
        # category, as (key, cost)
        points: dict[int, list[tuple[str | None, tuple, int]]] = {}
        point_auxes: dict[str, list[tuple[tuple, int]]] = {}
        for key, cost in self.point_best.items():
            sym, gap = key[0], key[3]
            points.setdefault(fills.get(sym, sym), []).append((gap and OPEN, key, cost))
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
        foot, still yields one item per left end of that gap. The log, and
        with it the chart, is capped at ``MAX_CHART_ITEMS`` firings.
        """
        t, n_lex = self.tables, len(self.lex)
        rules = t.rules
        best: dict[tuple, int] = {}
        log: list[tuple[tuple, tuple]] = []
        fired = log.append
        queue: list[list[tuple]] = [[]]

        def push(key, edge):
            if len(log) >= MAX_CHART_ITEMS:
                raise LimitExceededError(
                    f"the input needs more than {MAX_CHART_ITEMS} pass-1 firings")
            fired((key, edge))
            cost = edge[0]
            known = best.get(key)
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
                part, unary, as_left, as_right, host_of, aux_of = rules[sym]
                for out, extra in unary:
                    push((out, i, j, gap), (cost + extra, key))
                if as_left:
                    if gap is OPEN:     # a right partner over words closes it
                        open_lefts.setdefault(part, []).append(key)
                    else:
                        ends.setdefault((part, j), []).append(key)
                for right, out, extra, right_points in as_left:
                    if gap is OPEN:
                        for other in free_rights.get(right, ()):
                            if other[1] >= j:
                                push((out, i, other[2], (j, other[1])),
                                     (cost + extra + best[other], key, other))
                    else:
                        for other in starts.get((right, j), ()):
                            push((out, i, other[2], gap or other[3]),
                                 (cost + extra + best[other], key, other))
                    for pgap, pkey, extra in right_points:
                        push((out, i, j, gap or pgap), (cost + extra, key, pkey))
                if as_right:
                    starts.setdefault((part, i), []).append(key)
                    if gap is None:
                        free_rights.setdefault(part, []).append(key)
                for left, out, extra, left_points in as_right:
                    for other in ends.get((left, i), ()):
                        push((out, other[1], j, gap or other[3]),
                             (cost + extra + best[other], other, key))
                    if gap is None:
                        for other in open_lefts.get(left, ()):
                            if other[2] <= i:
                                push((out, other[1], j, (other[2], i)),
                                     (cost + extra + best[other], other, key))
                    for pgap, pkey, extra in left_points:
                        if pgap is None:
                            push((out, i, j, gap), (cost + extra, pkey, key))
                        else:   # key is gap-free: the gap runs from any p to i
                            for p in range(i + 1):
                                push((out, p, j, (p, i)),
                                     (cost + extra, pkey, key))
                if host_of is not None:
                    n, extra, cat, zero_auxes = host_of
                    host_items.setdefault((cat, i), []).append((n, key, cost + extra))
                    for aux in aux_by_gap.get((cat, i), ()):
                        out = adjoined(n, key, aux)
                        if out:
                            push(out, (cost + extra + best[aux], key, aux))
                    for pkey, extra in zero_auxes:
                        push((n, i, j, gap), (cost + extra, key, pkey))
                if aux_of is not None:
                    cat, point_hosts = aux_of
                    gi = j if gap is OPEN else gap[0]
                    aux_by_gap.setdefault((cat, gi), []).append(key)
                    for n, host, host_cost in host_items.get((cat, gi), ()):
                        out = adjoined(n, host, key)
                        if out:
                            push(out, (cost + host_cost, host, key))
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
        explicit stack per cost that has pending states, keyed by that cost,
        the least taken next: time and memory follow the states, not the
        priority values. A state holds the items still to expand, as a
        linked list of (item, parent index, the ``site`` entry of its
        position in the hyperedge that holds it); the instances found so
        far, as a linked list, and their count; and its slack, the budget
        less a lower bound on the tree's size: the count plus every pending
        item's least cost. Expanding an item by a hyperedge costs
        the hyperedge's recorded cost less the item's least cost. That
        cost is the item's own instance count plus its antecedents' least
        costs, so a state within the budget always completes to a tree, no
        state over it is pushed, and the work grows with the trees found.
        A hyperedge that records less than its item's least cost is an
        ``InternalError``: it would grow the slack, without end on a cyclic
        forest. So is an instance over the budget, which one that records
        less than its antecedents' least costs lets in. An antecedent whose
        symbol can hold no instance (``holds``) is not pushed at all: it
        costs 0 and its one tree is empty. The successors of a state that
        pops an instance are pushed on the stack of its cost plus the
        instance's charge, the others on the current one, whose rightmost
        pending item is expanded first. No charge is negative, since every
        priority is at least 1, so once the stack of cost c is empty every
        tree of cost c has been found and no dearer state expanded: a batch
        is complete when it is handed out, and a caller that stops after it
        pays for no dearer one. Trees hold no positions, so a point item,
        named by its table key, has one set of trees for every position it
        fills, and an open item one for every right end of its gap.
        """
        t = self.tables
        best, point_best, site = self.best, t.point_best, t.site
        inst0, comp_cost, holds = t.inst0, t.comp_cost, t.holds
        n_comps, nowhere = len(comp_cost), (None, None)
        stacks: dict[int, list[tuple]] = {0: []}    # pending states by cost
        for key in reversed(roots):     # the first root is expanded first
            least = best.get(key, point_best.get(key))
            if least is not None and least <= budget:   # some tree fits
                stacks[0].append((((key, None, None), None), None, 0,
                                  budget - least))
        if not stacks[0]:
            return
        edges = self.edges      # filed only for an item with a tree to find
        n_trees = 0
        while stacks:
            cost = min(stacks)
            stack, found = stacks.pop(cost), []
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
                    if count > budget:  # the slack grew: pass 1 erred
                        raise InternalError(f"{item} overruns the budget {budget}")
                    if comp_cost[comp]:
                        out = stacks.setdefault(cost + comp_cost[comp], [])
                least = best.get(item)
                if least is None:
                    least = point_best[item]
                # where an instance at each antecedent position attaches
                held_at = site.get(sym, nowhere)
                for edge in edges[item]:
                    if edge[0] < least:     # would grow the slack
                        raise InternalError(f"a hyperedge of {item} costs {edge[0]},"
                                            f" below its least cost {least}")
                    left = slack + least - edge[0]
                    if left >= 0:
                        grown = pending
                        for ante, at in zip(edge[1:], held_at):
                            if holds[ante[0]]:
                                grown = ((ante, parent, at), grown)
                        out.append((grown, insts, count, left))
            if found:
                yield cost, found


def _groupings(flat: tuple, tables: ChartTables) -> tuple[int, Iterable[dict]]:
    """The number of readings of an instance tree, and the readings, each
    the use of each further component's instance, by instance index, a use
    being its component-0 instance's index.

    flat is an instance tree from ``_SpanParser.trees``. One pass over it
    files its instances by component id, and ``ChartTables.sets`` is walked
    in order. The instances of each further component of a multi-component
    pair are matched bijectively with that pair's uses; every choice of one
    permutation per further component is one candidate reading. A tree in
    which a further component has more or fewer instances than its pair has
    uses has none. The count comes before any reading is built.
    """
    members: dict[int, list[int]] = {}  # component id -> its instances
    for idx, (comp, _, _) in enumerate(flat):
        members.setdefault(comp, []).append(idx)
    matched = []    # (a further component's instances, its pair's uses)
    for first, *further in tables.sets:
        base = members.get(first, ())
        for comp in further:
            found = members.get(comp, ())
            if len(found) != len(base):
                return 0, ()
            matched.append((found, base))
    return math.prod(math.factorial(len(base)) for _, base in matched), (
        {idx: use for perm, (_, base) in zip(chosen, matched)
         for idx, use in zip(perm, base)}
        for chosen in itertools.product(*(itertools.permutations(found)
                                          for found, _ in matched)))


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

    roots = [(sym, 0, len(lex), None) for sym in tables.starts]
    n_groupings = 0
    for cost, batch in span.trees(roots, budget):
        found: dict[Derivation, DerivedTree] = {}
        for flat in batch:
            insts = [tables.comps[comp] for comp, _, _ in flat]  # (pair, component)
            # a use is its component-0 instance
            heads = {idx: idx for idx, (_, ci) in enumerate(insts) if ci == 0}
            if len(heads) > max_uses:
                continue
            count, readings = _groupings(flat, tables)
            if not count:
                continue
            n_groupings += count
            if n_groupings > MAX_GROUPINGS:
                raise LimitExceededError(
                    f"the input has more than {MAX_GROUPINGS} groupings")
            # expanded with each instance its own use
            sites: dict[tuple[int, int], dict[int, tuple]] = {}
            for idx, (_, parent, (_, index, op)) in enumerate(flat[1:], 1):
                sites.setdefault((parent, insts[parent][1]), {})[index] = (
                    idx, insts[idx][1], op)
            words, joins, entered, spans, _ = expand(
                [tables.components[comp] for comp, _, _ in flat], sites,
                (0, insts[0][1]), False)
            if words != lex:
                raise InternalError(f"derived tree yields {words}, not the input {lex}")
            for further in readings:
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
