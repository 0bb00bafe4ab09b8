"""Core tree and grammar data model.

Elementary trees are immutable ordered trees whose nodes are addressed by
Gorn addresses (paths of 1-based child positions). A synchronous pair couples
a source-side tree set (one or more components, a designated head, dominance
requirements between components) with a single target tree plus explicit
node-to-node links. Everything here is plain data; composition lives in
:mod:`stagmt.derive` and file handling in :mod:`stagmt.grammar_io`.

The value records are named tuples. ``ElementaryTree`` and ``Grammar``,
which cache tables derived from their fields, and ``TreeNode``, whose
fields composition reads at every node, are read-only plain classes
(``Record``).
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from .errors import (DuplicatePairNameError, GrammarError, GrammarSchemaError,
                     GrammarValidationError, NoStartPairError)

if TYPE_CHECKING:
    from collections.abc import Iterable

    from .parser import ChartTables

KIND_INTERIOR = "interior"
KIND_SUBST = "subst_slot"
KIND_FOOT = "foot"
KIND_LEX = "lex"
KIND_EMPTY = "empty"
KINDS = (KIND_INTERIOR, KIND_SUBST, KIND_FOOT, KIND_LEX, KIND_EMPTY)

ADJOIN_ALLOW = "allow"
ADJOIN_NA = "na"
ADJOIN_OA = "oa"
ADJOIN_VALUES = (ADJOIN_ALLOW, ADJOIN_NA, ADJOIN_OA)

SET_VARIABLE = "@set"

# what expanding a node does (ElementaryTree.compiled): an interior node's
# code holds CODE_JOIN when it joins a case particle to its noun and CODE_OA
# when it is obligatory-adjoining, and is 0 when it does neither, as an
# empty leaf's is; a lexical leaf, a foot and a slot have one code each
CODE_JOIN, CODE_OA, CODE_WORD, CODE_FOOT, CODE_SLOT = 1, 2, 4, 5, 6
_LEAF_CODES = {KIND_LEX: CODE_WORD, KIND_FOOT: CODE_FOOT, KIND_SUBST: CODE_SLOT}


class GornAddress(NamedTuple):
    """Path of 1-based child positions; the empty path is the root."""

    path: tuple[int, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "GornAddress":
        if text == "e":
            return cls(())
        parts = text.split(".")
        if not all(p.isdigit() for p in parts):
            raise ValueError(f"bad address {text!r}")
        path = tuple(int(p) for p in parts)
        if any(p < 1 for p in path):
            raise ValueError(f"bad address {text!r}")
        return cls(path)

    def __str__(self) -> str:
        return ".".join(map(str, self.path)) if self.path else "e"

    def __repr__(self) -> str:
        return f"GornAddress({str(self)!r})"

    def child(self, position: int) -> "GornAddress":
        return GornAddress(self.path + (position,))


ROOT = GornAddress(())


class Record:
    """Base of the records that are plain classes rather than named tuples.

    ``__init__`` sets the fields named in ``_fields`` once; after that no
    attribute can be assigned or deleted. Equality, hashing and the repr
    read those fields only, so per-instance caches (``cached_property``
    writes to ``__dict__`` directly) never change a record's value.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class TreeNode(Record):
    """One node of an elementary tree.

    ``feats`` is stored as a sorted tuple of (name, value) pairs so nodes
    stay hashable; values are atomic strings, or the set variable "@set"
    inside multi-component sets. Composition reads these fields at every
    node it expands, and a slot reads faster than a named-tuple field.
    """

    __slots__ = _fields = ("cat", "kind", "adjoin", "word", "feats", "children")

    def __init__(self, cat: str, kind: str = KIND_INTERIOR,
                 adjoin: str = ADJOIN_ALLOW, word: str | None = None,
                 feats: tuple[tuple[str, str], ...] = (),
                 children: tuple[TreeNode, ...] = ()):
        self._set(cat, kind, adjoin, word, feats, children)

    @property
    def is_leaf_kind(self) -> bool:
        return self.kind in (KIND_SUBST, KIND_FOOT, KIND_LEX, KIND_EMPTY)


class ElementaryTree(Record):
    """A whole elementary tree; auxiliary iff it contains a foot node."""

    _fields = ("root",)

    def __init__(self, root: TreeNode):
        self._set(root)

    @cached_property
    def nodes(self) -> dict[GornAddress, TreeNode]:
        """Every node by its address, in preorder."""
        out: dict[GornAddress, TreeNode] = {}
        stack = [(ROOT, self.root)]
        while stack:
            addr, node = stack.pop()
            out[addr] = node
            for i in range(len(node.children), 0, -1):
                stack.append((addr.child(i), node.children[i - 1]))
        return out

    def node_at(self, addr: GornAddress) -> TreeNode | None:
        return self.nodes.get(addr)

    @cached_property
    def compiled(self) -> tuple:
        """The tables composition expands this tree by: (nodes, addresses,
        index, ends, codes), the nodes and their addresses in preorder,
        each node's preorder index by its address path, and by index, one
        past the last node below it and its ``CODE_*``, what expanding the
        node does. ``CODE_JOIN`` marks an interior node whose children are
        exactly a lexical N then a lexical P, a case particle on its noun.
        Tree roots are interior and lexical nodes are never sites, so no
        substitution or adjunction changes that: the mark holds of the
        node's image in every derived tree."""
        addresses, nodes = zip(*self.nodes.items())
        index = {addr.path: i for i, addr in enumerate(addresses)}
        # in preorder, the nodes at or below node i are the next ones whose
        # paths start with its path
        ends = tuple(i + sum(a.path[:len(at.path)] == at.path for a in addresses)
                     for i, at in enumerate(addresses))
        codes = tuple(_LEAF_CODES.get(node.kind) or (
            (node.adjoin == ADJOIN_OA) * CODE_OA
            | ([(kid.kind, kid.cat) for kid in node.children]
               == [(KIND_LEX, "N"), (KIND_LEX, "P")]) * CODE_JOIN)
            for node in nodes)
        return nodes, addresses, index, ends, codes

    @cached_property
    def foot_address(self) -> GornAddress | None:
        for addr, node in self.nodes.items():
            if node.kind == KIND_FOOT:
                return addr
        return None

    @property
    def is_auxiliary(self) -> bool:
        return self.foot_address is not None

    @property
    def root_cat(self) -> str:
        return self.root.cat

    @cached_property
    def subst_addresses(self) -> tuple[GornAddress, ...]:
        return tuple(a for a, n in self.nodes.items() if n.kind == KIND_SUBST)

    @cached_property
    def lex_words(self) -> tuple[str, ...]:
        return tuple(n.word for n in self.nodes.values() if n.kind == KIND_LEX)

    def operable(self, addr: GornAddress) -> bool:
        """True if the node can be the site of a substitution or adjunction."""
        node = self.node_at(addr)
        if node is None:
            return False
        if node.kind == KIND_SUBST:
            return True
        return node.kind == KIND_INTERIOR and node.adjoin != ADJOIN_NA


class SourceSet(NamedTuple):
    """Source side of a pair: components, head index, dominance links."""

    components: tuple[ElementaryTree, ...]
    head: int = 0
    dominance: tuple[tuple[int, int], ...] = ()

    @property
    def is_multi(self) -> bool:
        return len(self.components) > 1

    @property
    def head_tree(self) -> ElementaryTree:
        return self.components[self.head]


class Link(NamedTuple):
    comp: int
    src: GornAddress
    tgt: GornAddress


class SyncPair(NamedTuple):
    name: str
    source: SourceSet
    target: ElementaryTree
    links: tuple[Link, ...] = ()
    priority: int = 1

    def component(self, index: int) -> ElementaryTree:
        return self.source.components[index]

    @property
    def n_components(self) -> int:
        return len(self.source.components)


class Particle(NamedTuple):
    form: str
    case: str


def check_particles(particles, path: str = "particles") -> None:
    """Refuse a particle form that no word segments to, or one listed twice;
    path names the list in the error."""
    seen: set[str] = set()
    for i, particle in enumerate(particles):
        form, where = particle.form, f"{path}[{i}].form"
        if not form:  # the empty form is a suffix of every word
            raise GrammarSchemaError("particle form must be nonempty", where)
        # a line splits into words at whitespace, and a word at its last
        # hyphen, so no word segments to such a form
        if "-" in form or form.split() != [form]:
            raise GrammarSchemaError(
                f"particle form {form!r} holds a hyphen or whitespace", where)
        if form in seen:  # else the particle map keeps only the last case
            raise GrammarSchemaError(f"particle form {form!r} is listed twice",
                                     where)
        seen.add(form)


class Diagnostic(NamedTuple):
    """One validation finding; any finding invalidates the pair."""

    pair: str
    rule: str
    message: str
    address: str | None = None

    def __str__(self) -> str:
        where = f" at {self.address}" if self.address else ""
        return f"[error] {self.pair}{where}: {self.message} ({self.rule})"


class Grammar(Record):
    """Validated pair inventory plus the derived lookup tables.

    Construction checks the particle forms (``check_particles``) and every
    pair (``validate_pair``), then refuses a duplicate pair name and a
    grammar with no start pair, so every ``Grammar`` is valid. Immutable
    after construction; safe to share across concurrent parses.
    """

    _fields = ("source_language", "target_language", "start_symbol", "pairs",
               "particles")

    def __init__(self, source_language: str, target_language: str,
                 start_symbol: str, pairs: Iterable[SyncPair],
                 particles: Iterable[Particle]):
        pairs, particles = tuple(pairs), tuple(particles)
        check_particles(particles)
        diagnostics = [d for pair in pairs for d in validate_pair(pair)]
        if diagnostics:
            raise GrammarValidationError(diagnostics)
        seen: set[str] = set()
        for pair in pairs:
            if pair.name in seen:
                raise DuplicatePairNameError(f"duplicate pair name {pair.name!r}")
            seen.add(pair.name)
        self._set(source_language, target_language, start_symbol, pairs,
                  particles)
        if not self.start_pairs:
            raise NoStartPairError(
                f"no pair has an initial head component rooted in {start_symbol!r}")

    @cached_property
    def pair_by_name(self) -> dict[str, SyncPair]:
        return {p.name: p for p in self.pairs}

    def pair(self, name: str) -> SyncPair:
        try:
            return self.pair_by_name[name]
        except KeyError:
            raise GrammarError(f"the grammar has no pair named {name!r}") from None

    @cached_property
    def target_sites(self) -> dict[tuple[str, int, GornAddress], GornAddress]:
        """Where transfer carries a source site, by (pair name, component,
        source address): the target address a link of the pair names, or
        for the root of the pair's head component, when no link names it,
        the target root."""
        sites = {(p.name, p.source.head, ROOT): ROOT for p in self.pairs}
        sites.update(((p.name, link.comp, link.src), link.tgt)
                     for p in self.pairs for link in p.links)
        return sites

    @cached_property
    def particle_map(self) -> dict[str, str]:
        return {p.form: p.case for p in self.particles}

    @cached_property
    def particles_longest_first(self) -> tuple[str, ...]:
        """The particle forms in the order segmentation tries them as
        suffixes: longest first, equal lengths in string order."""
        return tuple(sorted(self.particle_map, key=lambda f: (-len(f), f)))

    @cached_property
    def anchor_index(self) -> dict[str, tuple[str, ...]]:
        """Content lex word -> sorted pair names; particle forms are excluded."""
        particles = {p.form for p in self.particles}
        index: dict[str, set[str]] = {}
        for pair in self.pairs:
            for comp in pair.source.components:
                for word in comp.lex_words:
                    if word in particles:
                        continue
                    index.setdefault(word, set()).add(pair.name)
        return {w: tuple(sorted(names)) for w, names in sorted(index.items())}

    @cached_property
    def start_pairs(self) -> tuple[SyncPair, ...]:
        """The pairs that can root a derivation: their head component is an
        initial tree rooted in the start symbol."""
        return tuple(p for p in self.pairs
                     if not p.source.head_tree.is_auxiliary
                     and p.source.head_tree.root_cat == self.start_symbol)

    @cached_property
    def chart_tables(self) -> ChartTables:
        """The parser's grammar-only chart tables, built on first use."""
        from .parser import ChartTables
        return ChartTables(self)


def _tree_diagnostics(pair_name: str, label: str, tree: ElementaryTree,
                      in_multi: bool) -> list[Diagnostic]:
    out: list[Diagnostic] = []

    def diag(rule, message, addr=None):
        out.append(Diagnostic(pair=pair_name, rule=rule, message=message,
                              address=f"{label}:{addr}" if addr is not None else label))

    if tree.root.kind != KIND_INTERIOR:
        diag("root-kind", f"tree root must be an interior node, not {tree.root.kind}")

    feet = []
    for addr, node in tree.nodes.items():
        if node.kind not in KINDS:
            diag("node-kind", f"unknown node kind {node.kind!r}", addr)
            continue
        if node.adjoin not in ADJOIN_VALUES:
            diag("adjoin-value", f"unknown adjoining constraint {node.adjoin!r}", addr)
        if node.is_leaf_kind and node.children:
            diag("leaf-children", f"{node.kind} node may not have children", addr)
        if node.is_leaf_kind and node.adjoin == ADJOIN_OA:
            # adjunction happens only at interior nodes, so nothing could
            # ever satisfy the constraint
            diag("oa-leaf", f"{node.kind} node cannot be obligatory-adjoining",
                 addr)
        if node.kind == KIND_INTERIOR and not node.children:
            diag("interior-children", "interior node must have children", addr)
        if node.kind == KIND_LEX and not node.word:
            diag("lex-word", "lex node needs a word", addr)
        if node.kind != KIND_LEX and node.word is not None:
            diag("word-on-nonlex", f"{node.kind} node may not carry a word", addr)
        if node.kind == KIND_FOOT:
            feet.append(addr)
        for key, value in node.feats:
            if value == SET_VARIABLE and not in_multi:
                diag("set-variable", f"{SET_VARIABLE} feature {key!r} outside a "
                                     "multi-component set", addr)

    if len(feet) > 1:
        diag("multiple-feet", f"{len(feet)} foot nodes, at most one allowed")
    elif len(feet) == 1:
        foot_node = tree.node_at(feet[0])
        if foot_node.cat != tree.root_cat:
            diag("foot-category",
                 f"foot category {foot_node.cat!r} differs from root {tree.root_cat!r}",
                 feet[0])
    return out


def validate_pair(pair: SyncPair) -> list[Diagnostic]:
    """Check every pair invariant; returns diagnostics, empty when valid.

    Deterministic and order-independent over links.
    """
    out: list[Diagnostic] = []

    def diag(rule, message, addr=None):
        out.append(Diagnostic(pair=pair.name, rule=rule, message=message,
                              address=addr))

    src = pair.source
    if not src.components:
        diag("empty-set", "source set has no components")
        return out

    multi = src.is_multi
    for i, comp in enumerate(src.components):
        out.extend(_tree_diagnostics(pair.name, f"source[{i}]", comp, multi))
    out.extend(_tree_diagnostics(pair.name, "target", pair.target, False))
    # an anchored use yields a word, so no derivation has more uses than words
    if not any(comp.lex_words for comp in src.components):
        diag("unanchored", "no source component has a lexical word")

    if not 0 <= src.head < len(src.components):
        diag("head-index", f"head index {src.head} out of range")
        return out
    if not multi and src.dominance:
        diag("singleton-dominance", "singleton set may not declare dominance")

    for d, e in src.dominance:
        if d == e or not (0 <= d < len(src.components)) or not (0 <= e < len(src.components)):
            diag("dominance-index", f"bad dominance pair ({d}, {e})")

    # Scrambled-argument convention: when the set has exactly one empty-yield
    # initial component (the place-holder), it must be the head and must be
    # dominated by a scrambled auxiliary component.
    if multi:
        placeholders = [i for i, c in enumerate(src.components)
                        if not c.is_auxiliary and not c.lex_words
                        and not c.subst_addresses]
        if len(placeholders) == 1:
            ph = placeholders[0]
            if src.head != ph:
                diag("head-convention",
                     f"place-holder component {ph} must be the head, not {src.head}")
            dominators = [d for d, e in src.dominance  # a bad d is reported above
                          if e == ph and 0 <= d < len(src.components)]
            if not any(src.components[d].is_auxiliary for d in dominators):
                diag("placeholder-dominance",
                     "place-holder must be dominated by a scrambled auxiliary component")

    if pair.priority < 1:
        diag("priority", f"priority must be >= 1, got {pair.priority}")

    seen_src: set[tuple[int, GornAddress]] = set()
    seen_tgt: set[GornAddress] = set()
    for link in pair.links:
        if not 0 <= link.comp < len(src.components):
            diag("link-comp", f"link names component {link.comp}, out of range")
            continue
        comp = src.components[link.comp]
        if comp.node_at(link.src) is None:
            diag("link-src", f"link src {link.src} does not name a node",
                 addr=str(link.src))
        elif not comp.operable(link.src):
            diag("link-src", f"link src {link.src} is not an operable node",
                 addr=str(link.src))
        if pair.target.node_at(link.tgt) is None:
            diag("link-tgt", f"link tgt {link.tgt} does not name a node",
                 addr=str(link.tgt))
        elif not pair.target.operable(link.tgt):
            diag("link-tgt", f"link tgt {link.tgt} is not an operable node",
                 addr=str(link.tgt))
        if (link.comp, link.src) in seen_src:
            diag("duplicate-link-src", f"two links share source ({link.comp}, {link.src})")
        if link.tgt in seen_tgt:
            diag("duplicate-link-tgt", f"two links share target {link.tgt}")
        seen_src.add((link.comp, link.src))
        seen_tgt.add(link.tgt)

    # Substitution slots in the head component and target must be linked;
    # other components may be unlinked.
    for addr in src.components[src.head].subst_addresses:
        if (src.head, addr) not in seen_src:
            diag("unlinked-substitution",
                 f"substitution slot {addr} in head component has no link",
                 addr=str(addr))
    linked_tgts = {l.tgt for l in pair.links}
    for addr in pair.target.subst_addresses:
        if addr not in linked_tgts:
            diag("unlinked-substitution",
                 f"substitution slot {addr} in target tree has no link",
                 addr=str(addr))

    return out

