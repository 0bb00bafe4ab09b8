"""Parser against the blind oracle on generated grammars.

Hypothesis builds small grammars that ``validate_pair`` admits: singleton
initial and auxiliary trees, and sets of two or three components with
dominance links, empty place-holders and zero-width auxiliaries (``S(e
S*)``). Feet come first, in the middle, last or as an only child, interior
nodes may be null- or obligatory-adjoining, and every pair carries an
anchor, as ``validate_pair`` requires. Sentences are the yields of random
derivations (``support.random_derivation``), their shuffles and small
edits, and short strings over the grammar's words. On each, the parser's
derivations must equal the oracle's, in the same order, at the default
budget and at the tightest one that keeps a derivation, and one use over
the default must find no more; ``parse`` must return exactly the oracle's
derivations of least cost. On each derivation, and on its target where
that composes, what composition reads off (yield, joins, use order, spans)
must equal what a walk of the built nodes reads. Pairs, the start pair
among them, draw their priority independently of their component count,
which no shipped grammar does. A draw past either
side's coded bound (the oracle's configurations, the parser's root
instance trees) is rejected.

The default profile keeps this quick; ``--hypothesis-profile=thorough``
(see ``conftest.py``) runs many more grammars.
"""

import random
from unittest import mock

from hypothesis import (HealthCheck, event, given, reject, settings,
                        strategies as st)

from support import (empty, foot, interior, lex, random_derivation, read_off,
                     subst)

from stagmt.derive import build_derived_tree
from stagmt.model import (
    ADJOIN_ALLOW,
    ADJOIN_NA,
    ADJOIN_OA,
    ElementaryTree,
    Grammar,
    Link,
    SourceSet,
    SyncPair,
)
from stagmt import oracle
from stagmt.errors import (LimitExceededError, NoParseError, OracleBoundError,
                           StagError)
from stagmt.generator import realize
from stagmt.morphotok import tokenize
from stagmt.oracle import brute_force_derivations
from stagmt.parser import all_derivations, parse
from stagmt.transfer import transfer_derivation

WORDS = ("a", "b", "c", "d")
CATS = ("S", "A", "B")
MAX_WORDS = 5
# the oracle tries about ten thousand configurations a second; a draw that
# needs more is skipped rather than waited for
MAX_CONFIGS = 20_000

adjoins = st.sampled_from((ADJOIN_ALLOW, ADJOIN_ALLOW, ADJOIN_NA, ADJOIN_OA))


@st.composite
def leaves(draw):
    """One to three leaves, at least one of them a lexical anchor."""
    out = []
    kinds = st.sampled_from(("lex", "subst", "empty"))
    for kind in draw(st.lists(kinds, min_size=1, max_size=3)):
        if kind == "lex":
            out.append(lex("W", draw(st.sampled_from(WORDS))))
        elif kind == "subst":
            out.append(subst(draw(st.sampled_from(CATS))))
        else:
            out.append(empty())
    if not any(node.word for node in out):
        out[draw(st.integers(0, len(out) - 1))] = lex(
            "W", draw(st.sampled_from(WORDS)))
    return out


@st.composite
def trees(draw, cat: str, auxiliary: bool):
    """A tree rooted in cat: the leaves, the foot among them when
    auxiliary, and a run of them maybe under one inner interior node."""
    children = draw(leaves())
    if auxiliary:
        children.insert(draw(st.integers(0, len(children))), foot(cat))
    if draw(st.booleans()):
        start = draw(st.integers(0, len(children) - 1))
        stop = draw(st.integers(start + 1, len(children)))
        inner = interior(draw(st.sampled_from(CATS)), *children[start:stop],
                         adjoin=draw(adjoins))
        children[start:stop] = [inner]
    return ElementaryTree(interior(cat, *children, adjoin=draw(adjoins)))


def pair_of(name, components, head=0, dominance=(), priority=1):
    """A pair whose target copies the head component, each of its
    substitution slots linked to itself."""
    target = components[head]
    links = tuple(Link(comp=head, src=addr, tgt=addr)
                  for addr in target.subst_addresses)
    return SyncPair(name=name, source=SourceSet(tuple(components), head=head,
                                                dominance=tuple(dominance)),
                    target=target, links=links, priority=priority)


@st.composite
def tree_sets(draw, name: str):
    """Two or three components: an anchored auxiliary that carries the
    moved material, then place-holders, zero-width auxiliaries or further
    anchored trees."""
    cat = draw(st.sampled_from(CATS))
    components = [draw(trees(cat, auxiliary=True))]
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("placeholder", "zero-width", "anchored")))
        cat = draw(st.sampled_from(CATS))
        if kind == "placeholder":
            components.append(ElementaryTree(interior(cat, empty())))
        elif kind == "zero-width":
            components.append(ElementaryTree(
                interior(cat, *draw(st.permutations([empty(), foot(cat)])))))
        else:
            components.append(draw(trees(cat, auxiliary=draw(st.booleans()))))
    n = len(components)
    placeholders = [i for i, c in enumerate(components)
                    if not c.is_auxiliary and not c.lex_words
                    and not c.subst_addresses]
    # dominance links between two distinct components
    dominance = {(d, e + (e >= d)) for d, e in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)), max_size=2))}
    if len(placeholders) == 1:
        # the place-holder heads the set, below its scrambled auxiliary
        head = placeholders[0]
        dominance.add((0, head))
    else:
        head = draw(st.integers(0, n - 1))
    return pair_of(name, components, head, sorted(dominance),
                   priority=draw(st.integers(1, 3)))


@st.composite
def grammars(draw):
    """A start pair plus one to three more pairs, all valid."""
    pairs = [pair_of("p0", [draw(trees("S", auxiliary=False))],
                     priority=draw(st.integers(1, 3)))]
    for i in range(1, 1 + draw(st.integers(1, 3))):
        name = f"p{i}"
        kind = draw(st.sampled_from(("initial", "auxiliary", "set")))
        if kind == "set":
            pair = draw(tree_sets(name))
        else:
            tree = draw(trees(draw(st.sampled_from(CATS)),
                              auxiliary=kind == "auxiliary"))
            pair = pair_of(name, [tree], priority=draw(st.integers(1, 3)))
        pairs.append(pair)
    return Grammar(pairs=pairs, source_language="ko", target_language="en",
                   start_symbol="S", particles=())


@st.composite
def sentences(draw, grammar):
    """Word strings: a random derivation's yield, its shuffle, the yield
    with one word inserted, dropped or replaced, or any short string. The
    derivation is one of two or more pairs where a few draws find one, so
    that more sentences can mix priorities."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    words = sorted(grammar.anchor_index)
    derived = None
    for _ in range(20):
        derivation = random_derivation(grammar, rng, max_uses=4)
        if derivation is not None:
            derived = list(build_derived_tree(derivation, grammar).words)
            if len(set(derivation.uses)) > 1:
                break
    kind = draw(st.sampled_from(("yield", "shuffle", "edit", "random")))
    if derived is None or len(derived) > MAX_WORDS or kind == "random":
        return draw(st.lists(st.sampled_from(words), min_size=1,
                             max_size=MAX_WORDS))
    if kind == "shuffle":
        rng.shuffle(derived)
    elif kind == "edit":
        at = draw(st.integers(0, len(derived)))
        edit = draw(st.sampled_from(("insert", "drop", "replace")))
        if edit == "insert" and len(derived) < MAX_WORDS:
            derived.insert(at, draw(st.sampled_from(words)))
        elif len(derived) > 1 and at < len(derived):
            derived[at:at + 1] = ([] if edit == "drop"
                                  else [draw(st.sampled_from(words))])
    return derived


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_parser_equals_oracle(data):
    grammar = data.draw(grammars(), label="grammar")
    words = data.draw(sentences(grammar), label="words")
    sentence = tokenize(" ".join(words) + ".", grammar)
    with mock.patch.object(oracle, "MAX_CONFIGS", MAX_CONFIGS):
        try:
            found = brute_force_derivations(sentence, grammar)
        except OracleBoundError:
            reject()
    event("parses" if found else "no parse")
    try:
        parsed = all_derivations(sentence, grammar)
    except LimitExceededError:
        # past the parser's own coded bound on root instance trees (a stack
        # of zero-width auxiliaries can make millions): as with the oracle's
        # bound, the draw has nothing to compare
        event("parser limit")
        reject()
    assert parsed == found
    # the expansion refereed by the built nodes, on each derivation and on
    # its target where that transfers and composes
    for derivation in parsed:
        trees = [build_derived_tree(derivation, grammar)]
        try:
            trees.append(realize(transfer_derivation(derivation, grammar), grammar))
        except StagError:
            event("a target does not compose")
        for tree in trees:
            words, joins, order, spans = read_off(tree)
            assert (words, joins, spans) == (tree.words, tree.joins, tree.spans)
            assert order == list(range(len(tree.derivation.uses)))
    if len({grammar.pair(name).priority for d in found for name in d.uses}) > 1:
        event("derivations mix priorities")
    # the default translate path searches cheapest first: its one level is
    # the oracle's derivations of least cost
    try:
        cheapest = parse(sentence, grammar)[0].derivations
    except NoParseError:
        cheapest = ()
    except LimitExceededError:
        event("parser limit, cheapest level")
        reject()
    least = min((d.cost(grammar) for d in found), default=None)
    assert cheapest == tuple(d for d in found if d.cost(grammar) == least)
    if found:
        # every pair is anchored, so the default budget of one use per
        # lexical item is a bound: a use more finds nothing more
        try:
            wider = all_derivations(sentence, grammar,
                                    max_uses=len(sentence.lex_stream) + 1)
        except LimitExceededError:
            event("parser limit, a use over the default")
            reject()
        assert wider == parsed
        # a least cost set too high would lose the smallest derivations
        fewest = min(len(d.uses) for d in found)
        assert all_derivations(sentence, grammar, max_uses=fewest) == tuple(
            d for d in found if len(d.uses) == fewest)
