"""Derivations and tree composition.

A derivation names a multiset of pair uses and says, for every component of
every use except the root's head, where that component attaches (host use,
host component, site address, operation). Attachments are named tuples
sorted by (use, comp), so a reader takes them in one pass. Composition reads
a derivation's derived tree off top down, as a function of the derivation.
``compose`` is the one engine and the one checker: source derivations reach
it through ``build_derived_tree``, and target derivations, whose trees are
single components (component 0 of each use), through ``generator.realize``,
so both sides run the same checks.

``compose`` first indexes the attachments by the instance they attach to,
and within it by the preorder index of the site they fill, checking in one
pass over them that the uses, components and operation exist, that every
component but the root instance attaches once, and that each fits its site
in its host's elementary tree. It then expands the root instance in derived
preorder over the elementary trees' compiled tables
(``ElementaryTree.compiled``, which codes each node by what expanding it
does), looking up each node's attachment once, with an explicit stack of
runs of one instance's nodes: a filled slot enters the instance substituted
there, and an adjunction at a node enters the auxiliary instance first,
whose foot then takes that node and all below it before the host resumes.
Unfilled slots, stranded feet and unmet obligatory adjunction are met on
the way, and an instance never entered hangs from a cycle of attachments.

The expansion builds no node. It reads off what the parser and the
generator need: the lexical yield, where case particles join their nouns
and the instances' spans. It numbers each use by its first appearance in
the derived tree's preorder, which is a function of the derivation, so
renumbering a derivation's uses does not change what it composes into. A
``DerivedTree`` carries what the expansion read off and the derivation in
that numbering, its canonical form (``canonicalize``), which it computes
when ``derivation`` is first read. It builds its nodes (``DNode``) by the
same expansion only when its ``root`` is first read. Nothing renumbers a
composed tree afterwards.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    CategoryMismatchError,
    DoubleAdjunctionError,
    IllegalAttachmentError,
    InternalError,
    NAViolationError,
    NotASlotError,
    ObligatoryAdjunctionError,
    UnfilledSlotError,
)
from .model import (
    ADJOIN_NA,
    CODE_FOOT,
    CODE_JOIN,
    CODE_SLOT,
    CODE_WORD,
    KIND_EMPTY,
    KIND_INTERIOR,
    KIND_LEX,
    GornAddress,
    Grammar,
    SET_VARIABLE,
    TreeNode,
)

OP_SUBST = "subst"
OP_ADJOIN = "adjoin"

# the sites of an instance that nothing attaches to; never written, since
# only a site that holds an attachment is
_NO_SITES: dict[int, Attachment] = {}


class Attachment(NamedTuple):
    """Component (use, comp) attaches at address site of (host, host_comp);
    each (use, comp) attaches once, so attachments sort in (use, comp) order."""

    use: int
    comp: int
    host: int
    host_comp: int
    site: GornAddress
    op: str


class Derivation(NamedTuple):
    """uses[i] is the pair name of use i; root is the index of the root use."""

    uses: tuple[str, ...]
    root: int
    attachments: tuple[Attachment, ...]

    def cost(self, grammar: Grammar) -> int:
        """Priority minus one per use, so priority-1 pairs are free."""
        return sum(grammar.pair(name).priority - 1 for name in self.uses)


def make_derivation(uses, root, attachments) -> Derivation:
    return Derivation(uses=tuple(uses), root=root,
                      attachments=tuple(sorted(attachments)))


class DNode:
    """Mutable node of a derived tree, tagged with its provenance."""

    __slots__ = ("cat", "kind", "word", "feats", "children",
                 "use", "comp", "addr")

    def __init__(self, src: TreeNode, use: int, comp: int, addr: GornAddress):
        self.cat = src.cat
        self.kind = src.kind
        self.word = src.word
        self.feats = src.feats  # the elementary node's (name, value) pairs
        self.children: list[DNode] = []
        self.use = use
        self.comp = comp
        self.addr = addr

    def __repr__(self) -> str:
        return f"<DNode {self.cat} {_provenance(self.use, self.comp, self.addr)}>"


class DerivedTree:
    """A composed tree: its derivation, numbered canonically, and what its
    expansion read off in preorder.

    Uses are numbered by first appearance in the tree's preorder, so
    ``derivation`` is the canonical form of the derivation the tree was
    composed from (``canonicalize``), and ``spans`` and the nodes of
    ``root`` are numbered as it is. ``words`` is the lexical yield, and
    ``joins`` the indexes k in words where words k and k + 1 are a noun and
    its case particle. ``spans[use, comp]`` is [start, end): start ranks
    that instance's root among the instance roots in preorder, and end
    counts the instance roots met before its subtree ends, so one instance
    root lies below another's exactly when its start falls in the other's
    span.

    ``derivation`` is computed, and ``root`` built by the same expansion,
    when first read; both are kept, and neither can be assigned.
    """

    __slots__ = ("words", "joins", "spans", "_composed", "_order",
                 "_derivation", "_root")

    def __init__(self, elementary, derivation: Derivation, root_comp: int):
        self._composed = (elementary, derivation, root_comp)
        self._derivation = self._root = None
        self.words, self.joins, self._order, self.spans, _ = _expand(
            elementary, derivation, root_comp, False)

    @property
    def derivation(self) -> Derivation:
        if self._derivation is None:
            self._derivation = canonicalize(self._composed[1], self._order)
        return self._derivation

    @property
    def root(self) -> DNode:
        if self._root is None:
            self._root = _expand(*self._composed, True)[4][0]
        return self._root


def _provenance(use: int, comp: int, addr: GornAddress) -> str:
    return f"u{use}/c{comp}:{addr}"


def _where(att: Attachment) -> str:
    return _provenance(att.host, att.host_comp, att.site)


def _index_sites(elementary, derivation: Derivation, root_comp: int):
    """The derivation's attachments by the instance they attach to, as (host,
    host component), and within it by their site's preorder index. One pass
    checks each attachment's shape, then its site; after it, every instance
    but the root's must have attached."""
    n = len(elementary)
    if not 0 <= derivation.root < n:
        raise IllegalAttachmentError(f"root index {derivation.root} out of range")
    root = (derivation.root, root_comp)
    attached: set[tuple[int, int]] = set()
    sites: dict[tuple[int, int], dict[int, Attachment]] = {}
    for att in derivation.attachments:
        use, comp, host, host_comp, address, op = att
        if not (0 <= use < n and 0 <= host < n):
            raise IllegalAttachmentError(
                f"attachment references unknown use ({use}, {host})")
        if not 0 <= comp < len(elementary[use]):
            raise IllegalAttachmentError(f"use {use} has no component {comp}")
        if not 0 <= host_comp < len(elementary[host]):
            raise IllegalAttachmentError(
                f"use {host} has no component {host_comp}")
        if op not in (OP_SUBST, OP_ADJOIN):
            raise IllegalAttachmentError(f"unknown operation {op!r}")
        instance = (use, comp)
        if instance in attached:
            raise IllegalAttachmentError(
                f"component ({use}, {comp}) attaches twice")
        if instance == root:
            raise IllegalAttachmentError(
                "root head component must not attach anywhere")
        attached.add(instance)
        nodes, _, index, _, codes = elementary[host][host_comp].compiled
        index = index.get(address.path)
        tree = elementary[use][comp]
        if index is None:
            raise IllegalAttachmentError(
                f"no node at site {address} of use {host}")
        site = nodes[index]
        filled = sites.setdefault((host, host_comp), {})
        if op == OP_SUBST:
            if not address.path:
                raise IllegalAttachmentError(f"slot {_where(att)} has no parent")
            if codes[index] != CODE_SLOT:
                raise NotASlotError(f"substitution into {site.kind} node {_where(att)}")
            if index in filled:
                raise IllegalAttachmentError(f"slot {_where(att)} is already filled")
            if tree.root.cat != site.cat:
                raise CategoryMismatchError(
                    f"cannot substitute {tree.root.cat} into {site.cat} slot")
        else:
            if tree.foot_address is None:
                raise IllegalAttachmentError(
                    f"component {comp} of use {use} is not auxiliary")
            if site.kind != KIND_INTERIOR:
                raise IllegalAttachmentError(
                    f"adjunction at {site.kind} node {_where(att)}")
            if site.adjoin == ADJOIN_NA:
                raise NAViolationError(
                    f"adjunction at null-adjoining node {_where(att)}")
            if index in filled:
                raise DoubleAdjunctionError(f"second adjunction at {_where(att)}")
            if tree.root.cat != site.cat:
                raise CategoryMismatchError(
                    f"cannot adjoin {tree.root.cat} auxiliary at {site.cat} node")
        filled[index] = att
    if len(attached) < sum(map(len, elementary)) - 1:
        use, comp = next((use, comp) for use, trees in enumerate(elementary)
                         for comp in range(len(trees))
                         if (use, comp) not in attached and (use, comp) != root)
        raise IllegalAttachmentError(f"missing component: ({use}, {comp}) of "
                                     f"{derivation.uses[use]} never attaches")
    return sites


def _expand(elementary, derivation: Derivation, root_comp: int, build: bool):
    """Expand the derivation in derived preorder, checking it, as compose
    documents. Returns the yield, the joins, each use's rank of first
    appearance, the spans that DerivedTree documents and a list that holds
    the root node when build is set, with a node made per derived node in
    preorder. Spans and nodes number a use by its rank."""
    sites = _index_sites(elementary, derivation, root_comp)
    words: list[str] = []
    joins: list[int] = []
    order: dict[int, int] = {}
    spans: dict = {}
    top: list[DNode] = []
    # (children, arity) of each node built whose children are not all made
    parents: list[tuple[list, int]] = [(top, 1)]
    # a frame runs over nodes [i, stop) of instance (use, comp), stop None
    # for all of them, and its foot takes the frame filler; an instance's
    # span key marks where its span ends
    stack: list = [[derivation.root, root_comp, 0, None, None]]
    while stack:
        frame = stack.pop()
        if frame.__class__ is tuple:
            spans[frame] = (spans[frame], len(spans))
            continue
        use, comp, i, stop, filler = frame
        nodes, addresses, _, ends, codes = elementary[use][comp].compiled
        filled = sites.get((use, comp), _NO_SITES)
        stop = stop or len(nodes)
        if not i and filled.get(0) is None:  # the instance root, in its subtree's frame
            rank = order.setdefault(use, len(order))
            spans[rank, comp] = len(spans)
            stack.append((rank, comp))
        while i < stop:
            att = filled.get(i)
            if att is not None:  # enter its instance
                filled[i] = None  # a node adjoined at, for the foot that takes it
                if att.op == OP_SUBST:
                    stack += ([use, comp, i + 1, stop, filler],
                              [att.use, att.comp, 0, None, None])
                else:  # the auxiliary's foot takes node i and all below it
                    below = [use, comp, i, ends[i], filler]
                    stack += ([use, comp, ends[i], stop, filler],
                              [att.use, att.comp, 0, None, below])
                break
            code = codes[i]
            if code:
                if code == CODE_WORD:
                    words.append(nodes[i].word)
                elif code == CODE_JOIN:
                    joins.append(len(words))
                elif code == CODE_FOOT:
                    if filler is None:
                        raise IllegalAttachmentError(
                            f"stranded foot node {_provenance(use, comp, addresses[i])}")
                    stack += ([use, comp, i + 1, stop, None], filler)
                    break
                elif code == CODE_SLOT:
                    raise UnfilledSlotError(_provenance(use, comp, addresses[i]),
                                            nodes[i].cat)
                elif i not in filled:  # CODE_OA is set
                    where = _provenance(use, comp, addresses[i])
                    raise ObligatoryAdjunctionError(
                        f"no adjunction at obligatory-adjoining node {where}")
                elif code & CODE_JOIN:
                    joins.append(len(words))
            if build:
                node = nodes[i]
                made = DNode(node, order[use], comp, addresses[i])
                children, arity = parents[-1]
                children.append(made)
                if len(children) == arity:
                    parents.pop()
                if node.children:
                    parents.append((made.children, len(node.children)))
            i += 1
    # every instance but the root attaches once, and is entered only from
    # its host, so those whose root was never met hang from a cycle
    unreached = len(derivation.attachments) + 1 - len(spans)
    if unreached:
        raise IllegalAttachmentError(
            f"cyclic attachment: {unreached} instance(s) never reached from the root")
    return tuple(words), joins, order, spans, top


def compose(elementary, derivation: Derivation, root_comp: int) -> DerivedTree:
    """Expand the derivation top down into its derived tree, checking it.

    elementary[use][comp] is the tree of component comp of use; the
    instance of component root_comp of the derivation's root use tops the
    result, which carries the derivation's canonical form. Raises a
    CompositionError subclass when the derivation is ill-formed (a root,
    use, component or operation that does not exist, a component attaching
    twice or never, the root instance attaching), when an attachment does
    not apply (bad site, category clash, NA or double adjunction, cycle) or
    when the result is not finished (unfilled slot, stranded foot,
    unsatisfied obligatory adjunction).
    """
    return DerivedTree(elementary, derivation, root_comp)


def build_derived_tree(derivation: Derivation, grammar: Grammar) -> DerivedTree:
    """Compose the derivation into a source derived tree: pick each use's
    source components and the root's head, and let compose check the rest.

    Raises a CompositionError subclass when compose rejects the derivation.
    Dominance requirements are a separate judgement, see
    dominance_violations.
    """
    pairs = [grammar.pair(name) for name in derivation.uses]
    root = derivation.root
    # compose rejects a root out of range, whatever component it is given
    head = pairs[root].source.head if 0 <= root < len(pairs) else 0
    return compose([pair.source.components for pair in pairs], derivation, head)


def dominance_violations(tree: DerivedTree, grammar: Grammar) -> list[str]:
    """Dominance requirements of set uses that fail in the composed tree,
    read off its spans."""
    derivation = tree.derivation
    spans = tree.spans
    out = []
    for use, name in enumerate(derivation.uses):
        for dominator, dominated in grammar.pair(name).source.dominance:
            start, end = spans[use, dominator]
            if not start <= spans[use, dominated][0] < end:
                out.append(f"dominance: use {use} ({name}) component {dominator}"
                           f" does not dominate component {dominated}")
    return out


def render_tree(tree: DerivedTree, grammar: Grammar) -> str:
    """Bracketed rendering of a source or target tree, set uses coindexed
    by first appearance in preorder.

    Walks a stack of nodes and of the text between them, so depth is
    bounded by memory, not by the interpreter's recursion limit.
    """
    uses = tree.derivation.uses
    marks: dict[int, str] = {}  # by use: "<k>" for the k-th set use met, else ""
    sets = 0
    out: list[str] = []
    stack: list[DNode | str] = [tree.root]
    while stack:  # nodes pop in preorder
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        mark = marks.get(node.use)
        if mark is None:
            mark = ""
            if grammar.pair(uses[node.use]).source.is_multi:
                sets += 1
                mark = f"<{sets}>"
            marks[node.use] = mark
        label = node.cat
        if mark and any(v == SET_VARIABLE for _, v in node.feats):
            label += mark
        if node.kind == KIND_LEX:
            out.append(f"({label} {node.word})")
        elif node.kind == KIND_EMPTY:
            out.append("e")
        else:
            out.append(f"({label} ")
            stack.append(")")
            # the children pop left to right, a space between two
            for k, child in enumerate(reversed(node.children)):
                stack.extend((" ", child) if k else (child,))
    return "".join(out)


def canonicalize(derivation: Derivation, order: dict[int, int]) -> Derivation:
    """Renumber a derivation's uses by order, their ranks of first
    appearance in its composed tree's preorder, as composing it finds them.

    Two derivations that differ only in use numbering canonicalize to equal
    values, which is what parser/oracle comparison and deduplication rely on.
    """
    # every component's root is in the tree: each attaches, and no cycle composes
    missing = len(derivation.uses) - len(order)
    if missing:
        raise InternalError(f"the composed tree lacks {missing} of its "
                            f"{len(derivation.uses)} uses")
    uses = tuple(derivation.uses[use] for use in order)  # in first-appearance order
    attachments = [Attachment(order[use], comp, order[host], host_comp, site, op)
                   for use, comp, host, host_comp, site, op in derivation.attachments]
    return make_derivation(uses, order[derivation.root], attachments)


def render_derivation(derivation: Derivation, grammar: Grammar) -> str:
    """Stable one-line-per-use description of a derivation."""
    parts: list[list[str]] = [[] for _ in derivation.uses]
    for att in derivation.attachments:  # by use, then component
        where = f"{att.op} u{att.host}/c{att.host_comp}@{att.site}"
        if grammar.pair(derivation.uses[att.use]).n_components > 1:
            where = f"c{att.comp} {where}"
        parts[att.use].append(where)
    lines = []
    for use, name in enumerate(derivation.uses):
        # the root's head attaches nowhere, but its further components do
        label = f"u{use} {name}" + (" (root)" if use == derivation.root else "")
        lines.append(f"{label}: {', '.join(parts[use])}" if parts[use] else label)
    return "\n".join(lines)


def ranking_key(derivation: Derivation, grammar: Grammar):
    """Order of ranked output: cost, then pair names, sites, and the whole
    derivation, so two derivations tie only when they are equal."""
    return (derivation.cost(grammar), tuple(sorted(derivation.uses)),
            tuple(str(a.site) for a in derivation.attachments),
            derivation.uses, derivation.root, derivation.attachments)
