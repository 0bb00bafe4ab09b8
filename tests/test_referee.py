"""Pass 1 of the parser against a textbook TAG CKY deduction in (min, +).

The referee is the TAG CKY recognizer of Vijay-Shanker & Joshi 1985,
written as a weighted deduction system in the manner of Shieber, Schabes &
Pereira 1995, over items (node, i, j, gi, gj) whose foot gap, when the
node's subtree holds a foot, has both ends explicit. Every component of
every pair is a free-standing tree, as in the parser's phase 1: a
substitution slot is filled by an instance of any initial component of
its category, an interior node that is not null-adjoining takes at most
one adjunction by an instance of any auxiliary component of its category,
and an obligatory-adjoining node takes exactly one. An item's weight is
the least number of component instances that derive it; the rule that
completes a component's root adds that component's own instance. Knuth's
(1977) generalisation of Dijkstra's algorithm settles each item once.

It shares no code with ``stagmt.parser``: it numbers nodes its own way,
keeps no point table, leaves no gap end open and seeds every item over no
words at every position. For each start pair's head component, the least
instance count of its instance over the whole input must equal pass 1's
least cost of that start item, and a goal the referee cannot derive must
be missing from pass 1's chart. So must the least count of every
instance item that covers words, read from pass 1's chart by component
and span: pass 1 keys an instance with no words after its foot by the
words it covers, its gap's right end left open.

The corpus lines, the orders of the three-object sentence and the
embedding chains of depth 1 to 4 run in tier-1. Deeper chains and
generated grammars run under ``--hypothesis-profile=thorough`` (see
``conftest.py``).
"""

import heapq
import itertools
import random

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from support import (AMBIGUOUS_GRAMMAR, AMBIGUOUS_WORDS, chain_sentence,
                     corpus, permutation_closure, random_derivation)
from test_generated import grammars

import stagmt.parser
from stagmt.derive import build_derived_tree
from stagmt.grammar_io import load_grammar
from stagmt.model import (ADJOIN_NA, ADJOIN_OA, KIND_EMPTY, KIND_FOOT,
                          KIND_INTERIOR, KIND_LEX, KIND_SUBST)
from stagmt.morphotok import tokenize

MAX_WORDS = 12


def referee(grammar, lex):
    """The least instance count of every derivable item over lex, and the
    component ids by (pair name, component index)."""
    n = len(lex)
    nodes, kids, up = [], [], []    # up: (parent, child index), None at a root
    comps = []                      # (root id, auxiliary, root category)
    comp_of = {}                    # root id -> component id
    comp_ids = {}                   # (pair name, component index) -> id
    for pair in grammar.pairs:
        for ci, tree in enumerate(pair.source.components):
            comp_ids[pair.name, ci] = comp_of[len(nodes)] = len(comps)
            comps.append((len(nodes), tree.is_auxiliary, tree.root.cat))
            queue = [(tree.root, None)]
            for node, where in queue:     # breadth first; grows while read
                v = len(nodes)
                nodes.append(node)
                kids.append([])
                up.append(where)
                if where is not None:
                    kids[where[0]].append(v)
                queue.extend((child, (v, k)) for k, child in enumerate(node.children))
    slots = {}
    for v, node in enumerate(nodes):
        if node.kind == KIND_SUBST:
            slots.setdefault(node.cat, []).append(v)

    best, heap, tie = {}, [], itertools.count()

    def add(item, cost):
        if cost < best.get(item, cost + 1):
            best[item] = cost
            heapq.heappush(heap, (cost, next(tie), item))

    # axioms: words, empty leaves at every position, feet over every gap
    for v, node in enumerate(nodes):
        if node.kind == KIND_LEX:
            for i, word in enumerate(lex):
                if word == node.word:
                    add(("B", v, i, i + 1, None), 0)
        elif node.kind == KIND_EMPTY:
            for i in range(n + 1):
                add(("B", v, i, i, None), 0)
        elif node.kind == KIND_FOOT:
            for i in range(n + 1):
                for j in range(i, n + 1):
                    add(("B", v, i, j, (i, j)), 0)

    # settled items by where a partner looks them up
    prefixes = {}   # (node, children done, end) -> (start, gap, cost)
    tops = {}       # (node, start) -> (end, gap, cost)
    hosts = {}      # (category, start, end) -> (node, gap, cost)
    auxes = {}      # (category, gap start, gap end) -> (start, end, cost)
    done = set()
    while heap:
        cost, _, item = heapq.heappop(heap)
        if item in done:
            continue
        done.add(item)
        kind = item[0]
        if kind == "B":     # the subtree at v, no adjunction at v
            _, v, i, j, gap = item
            node = nodes[v]
            if node.adjoin != ADJOIN_OA:
                add(("T", v, i, j, gap), cost)
            if node.kind == KIND_INTERIOR and node.adjoin != ADJOIN_NA:
                hosts.setdefault((node.cat, i, j), []).append((v, gap, cost))
                for ai, aj, aux_cost in auxes.get((node.cat, i, j), ()):
                    add(("T", v, ai, aj, gap), cost + aux_cost)
        elif kind == "T":   # the subtree at v, its adjunction done
            _, v, i, j, gap = item
            if up[v] is None:
                add(("I", comp_of[v], i, j, gap), cost + 1)
                continue
            p, k = up[v]
            tops.setdefault((v, i), []).append((j, gap, cost))
            if k == 0:
                add(("D", p, 1, i, j, gap), cost)
            for pi, pgap, pcost in prefixes.get((p, k, i), ()):
                if pgap is None or gap is None:
                    add(("D", p, k + 1, pi, j, pgap or gap), pcost + cost)
        elif kind == "D":   # the first k children of p
            _, p, k, i, j, gap = item
            if k == len(kids[p]):
                add(("B", p, i, j, gap), cost)
                continue
            prefixes.setdefault((p, k, j), []).append((i, gap, cost))
            for tj, tgap, tcost in tops.get((kids[p][k], j), ()):
                if gap is None or tgap is None:
                    add(("D", p, k + 1, i, tj, gap or tgap), cost + tcost)
        else:               # one whole instance of component c
            _, c, i, j, gap = item
            _, auxiliary, cat = comps[c]
            if auxiliary:
                auxes.setdefault((cat, *gap), []).append((i, j, cost))
                for v, hgap, hcost in hosts.get((cat, *gap), ()):
                    add(("T", v, i, j, hgap), cost + hcost)
            else:
                for v in slots.get(cat, ()):
                    add(("B", v, i, j, None), cost)
    return best, comp_ids


def check(grammar, line):
    """Pass 1 against the referee on one input: the least cost of each
    start item, and of every instance item over words. Returns the start
    items' least costs, None where one never settles."""
    lex = tokenize(line, grammar).lex_stream
    n, tables = len(lex), grammar.chart_tables
    least, comp_ids = referee(grammar, lex)
    span = stagmt.parser._SpanParser(lex, tables)
    goals = [least.get(("I", comp_ids[p.name, p.source.head], 0, n, None))
             for p in grammar.start_pairs]
    assert [span.best.get((sym, 0, n, None)) for sym in tables.starts] == goals
    # pass 1 keys an instance with no words after its foot by the words it
    # covers, its gap's right end left open; the referee has one item, at
    # one cost, per right end
    names = {c: name for name, c in comp_ids.items()}
    instances = {}
    for item, cost in least.items():
        if item[0] == "I":
            _, c, i, j, gap = item
            if gap is not None and gap[1] == j:
                j, gap = gap[0], stagmt.parser.OPEN
            if i < j:
                assert instances.setdefault((names[c], i, j, gap), cost) == cost
    assert {(tables.comps[sym - tables.inst0], i, j, gap): cost
            for (sym, i, j, gap), cost in span.best.items()
            if 0 <= sym - tables.inst0 < len(tables.comps)} == instances
    return goals


def thorough():
    """Skip the calling test unless the thorough profile (2,000 examples)
    is loaded."""
    if settings.default.max_examples < 1000:
        pytest.skip("runs under --hypothesis-profile=thorough")


@pytest.mark.parametrize("name", ["chase", "ditransitive", "embedded"])
def test_corpus_lines(name):
    grammar = load_grammar(name)
    goals = [check(grammar, line) for line in corpus(name)]
    assert any(cost is not None for found in goals for cost in found)


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6, 7])
def test_embedding_chains(depth):
    # the object fronted over depth embedding verbs: two instances per
    # embedding (its verb and subject), two for the chased verb and its
    # subject, and the two components of the fronted object's set pair
    if depth > 4:
        thorough()
    grammar = load_grammar("embedded")
    assert check(grammar, chain_sentence(depth))[0] == 2 * depth + 4


def test_three_object_orders():
    grammar = load_grammar(str(AMBIGUOUS_GRAMMAR))
    goals = [check(grammar, line) for line in permutation_closure(AMBIGUOUS_WORDS)]
    assert any(cost is not None for found in goals for cost in found)


@st.composite
def inputs(draw, grammar):
    """Up to MAX_WORDS words: a random derivation's yield or its shuffle,
    or any string over the grammar's words."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    derivation = random_derivation(grammar, rng, max_uses=MAX_WORDS // 2)
    kind = draw(st.sampled_from(("yield", "shuffle", "random")))
    if derivation is not None and kind != "random":
        words = list(build_derived_tree(derivation, grammar).words)
        if len(words) <= MAX_WORDS:
            if kind == "shuffle":
                rng.shuffle(words)
            return words
    return draw(st.lists(st.sampled_from(sorted(grammar.anchor_index)),
                         min_size=1, max_size=MAX_WORDS))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_generated_grammars(data):
    thorough()
    grammar = data.draw(grammars(), label="grammar")
    words = data.draw(inputs(grammar), label="words")
    goals = check(grammar, " ".join(words) + ".")
    event("a goal" if any(cost is not None for cost in goals) else "no goal")
