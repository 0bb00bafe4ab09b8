"""Derivations and tree composition.

A derivation names a multiset of pair uses and says, for every component of
every use except the root's head, where that component attaches (host use,
host component, site address, operation). Attachments are named tuples
sorted by (use, comp), so a reader takes them in one pass. Composition turns
a derivation into a derived tree, which is a function of the derivation read
off top down. ``compose`` is the one engine and the one checker: source
derivations reach it through ``build_derived_tree``, and target derivations,
whose trees are single components (component 0 of each use), through
``generator.realize``, so both sides run the same checks.

``compose`` first indexes the attachments by the site they fill, checking
in one pass over them that the uses, components and operation exist, that
every component but the root instance attaches once, and that each fits
its site in its host's elementary tree. It then clones the root instance in
preorder, with an explicit stack of one frame per instance being cloned: a
filled slot enters the instance substituted there, and a node hosting an
adjunction is cloned and enters the auxiliary instance, whose foot the
clone fills. Unfilled slots, stranded feet and unmet obligatory adjunction
are met on the way, and an instance never entered hangs from a cycle of
attachments. A finished tree is its root, whose nodes link only to their
children (so reference counting frees it), and its derivation.
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
    ADJOIN_OA,
    KIND_EMPTY,
    KIND_FOOT,
    KIND_INTERIOR,
    KIND_LEX,
    KIND_SUBST,
    GornAddress,
    Grammar,
    SET_VARIABLE,
    TreeNode,
)

OP_SUBST = "subst"
OP_ADJOIN = "adjoin"


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
        return uses_cost(self.uses, grammar)


def uses_cost(pair_names, grammar: Grammar) -> int:
    """The cost of one use of each named pair: priority minus one per use,
    so priority-1 pairs are free."""
    return sum(grammar.pair(name).priority - 1 for name in pair_names)


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

    @property
    def provenance(self) -> str:
        return f"u{self.use}/c{self.comp}:{self.addr}"

    def __repr__(self) -> str:
        return f"<DNode {self.cat} {self.provenance}>"


class DerivedTree:
    """A composed tree: its root and the derivation it was composed from,
    which the parser replaces with the canonical one."""

    __slots__ = ("root", "derivation")

    def __init__(self, root: DNode, derivation: Derivation):
        self.root = root
        self.derivation = derivation


def walk_tree(tree: DerivedTree) -> tuple[tuple[str, ...], dict[int, int], dict]:
    """Walk a composed tree once in preorder. Returns its lexical yield, the
    rank of each use in first appearance, and spans[use, comp], the
    preorder interval [start, end) of that instance's root and all below
    it. The walk relabels the nodes' uses by rank; spans keep the numbers
    of tree.derivation, which canonicalize renumbers by the same ranks."""
    order: dict[int, int] = {}
    spans: dict = {}
    words = []
    stack: list = [tree.root]
    position = 0
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:  # the end of the instance it keys
            spans[node] = (spans[node], position)
            continue
        if not node.addr.path:  # an instance root: mark where it ends
            spans[node.use, node.comp] = position
            stack.append((node.use, node.comp))
        if node.kind == KIND_LEX:
            words.append(node.word)
        node.use = order.setdefault(node.use, len(order))
        position += 1
        stack += node.children[::-1]
    return tuple(words), order, spans


def _where(att: Attachment) -> str:
    return f"u{att.host}/c{att.host_comp}:{att.site}"


def _index_sites(elementary, derivation: Derivation, root_comp: int):
    """The derivation's attachments by the site they fill, as (host, host
    component, address path). One pass checks each attachment's shape, then
    its site; after it, every instance but the root's must have attached."""
    n = len(elementary)
    if not 0 <= derivation.root < n:
        raise IllegalAttachmentError(f"root index {derivation.root} out of range")
    root = (derivation.root, root_comp)
    attached: set[tuple[int, int]] = set()
    sites: dict[tuple[int, int, tuple[int, ...]], Attachment] = {}
    for att in derivation.attachments:
        if not (0 <= att.use < n and 0 <= att.host < n):
            raise IllegalAttachmentError(
                f"attachment references unknown use ({att.use}, {att.host})")
        if not 0 <= att.comp < len(elementary[att.use]):
            raise IllegalAttachmentError(f"use {att.use} has no component {att.comp}")
        if not 0 <= att.host_comp < len(elementary[att.host]):
            raise IllegalAttachmentError(
                f"use {att.host} has no component {att.host_comp}")
        if att.op not in (OP_SUBST, OP_ADJOIN):
            raise IllegalAttachmentError(f"unknown operation {att.op!r}")
        instance = (att.use, att.comp)
        if instance in attached:
            raise IllegalAttachmentError(
                f"component ({att.use}, {att.comp}) attaches twice")
        if instance == root:
            raise IllegalAttachmentError(
                "root head component must not attach anywhere")
        attached.add(instance)
        key = (att.host, att.host_comp, att.site.path)
        site = elementary[att.host][att.host_comp].node_at(att.site)
        tree = elementary[att.use][att.comp]
        if site is None:
            raise IllegalAttachmentError(
                f"no node at site {att.site} of use {att.host}")
        if att.op == OP_SUBST:
            if att.site.is_root:
                raise IllegalAttachmentError(f"slot {_where(att)} has no parent")
            if site.kind != KIND_SUBST:
                raise NotASlotError(f"substitution into {site.kind} node {_where(att)}")
            if key in sites:
                raise IllegalAttachmentError(f"slot {_where(att)} is already filled")
            if tree.root_cat != site.cat:
                raise CategoryMismatchError(
                    f"cannot substitute {tree.root_cat} into {site.cat} slot")
        else:
            if tree.foot_address is None:
                raise IllegalAttachmentError(
                    f"component {att.comp} of use {att.use} is not auxiliary")
            if site.kind != KIND_INTERIOR:
                raise IllegalAttachmentError(
                    f"adjunction at {site.kind} node {_where(att)}")
            if site.adjoin == ADJOIN_NA:
                raise NAViolationError(
                    f"adjunction at null-adjoining node {_where(att)}")
            if key in sites:
                raise DoubleAdjunctionError(f"second adjunction at {_where(att)}")
            if tree.root_cat != site.cat:
                raise CategoryMismatchError(
                    f"cannot adjoin {tree.root_cat} auxiliary at {site.cat} node")
        sites[key] = att
    if len(sites) < sum(map(len, elementary)) - 1:
        use, comp = next((use, comp) for use, trees in enumerate(elementary)
                         for comp in range(len(trees))
                         if (use, comp) not in attached and (use, comp) != root)
        raise IllegalAttachmentError(f"missing component: ({use}, {comp}) of "
                                     f"{derivation.uses[use]} never attaches")
    return sites


def compose(elementary, derivation: Derivation, root_comp: int) -> DerivedTree:
    """Expand the derivation top down into its derived tree, checking it.

    elementary[use][comp] is the tree of component comp of use; the
    instance of component root_comp of the derivation's root use tops the
    result, which carries the derivation. Raises a CompositionError
    subclass when the derivation is ill-formed (a root, use, component or
    operation that does not exist, a component attaching twice or never,
    the root instance attaching), when an attachment does not apply (bad
    site, category clash, NA or double adjunction, cycle) or when the
    result is not finished (unfilled slot, stranded foot, unsatisfied
    obligatory adjunction).
    """
    sites = _index_sites(elementary, derivation, root_comp)
    top: list[DNode] = []
    entered = 1  # instances entered, the root's first
    # a frame per instance being cloned: its nodes still to clone, use,
    # component, clones by path, foot filler and the list its root goes into
    stack = [(iter(elementary[derivation.root][root_comp].nodes.items()),
              derivation.root, root_comp, {}, None, top)]
    while stack:
        nodes, use, comp, clones, filler, into = stack[-1]
        for addr, src in nodes:  # preorder, so a node's parent is cloned first
            path = addr.path
            siblings = clones[path[:-1]].children if path else into
            att = sites.get((use, comp, path))
            if att is None:
                if src.kind == KIND_FOOT and filler is not None:
                    siblings.append(filler)
                    continue
                node = clones[path] = DNode(src, use, comp, addr)
                if src.kind == KIND_SUBST:
                    raise UnfilledSlotError(node.provenance, node.cat)
                if src.kind == KIND_FOOT:
                    raise IllegalAttachmentError(
                        f"stranded foot node {node.provenance}")
                if src.adjoin == ADJOIN_OA:
                    raise ObligatoryAdjunctionError(
                        f"no adjunction at obligatory-adjoining node {node.provenance}")
                siblings.append(node)
                continue
            # enter the attached instance; this one resumes when it is done
            entered += 1
            # an adjunction site is cloned, and the auxiliary's foot takes it
            host = None
            if att.op == OP_ADJOIN:
                host = clones[path] = DNode(src, use, comp, addr)
            stack.append((iter(elementary[att.use][att.comp].nodes.items()),
                          att.use, att.comp, {}, host, siblings))
            break
        else:
            stack.pop()
    # every instance but the root attaches once, and is entered only from
    # its host, so those never entered hang from a cycle
    unreached = len(sites) + 1 - entered
    if unreached:
        raise IllegalAttachmentError(
            f"cyclic attachment: {unreached} instance(s) never reached from the root")
    return DerivedTree(root=top[0], derivation=derivation)


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


def dominance_violations(tree: DerivedTree, grammar: Grammar, spans: dict) -> list[str]:
    """Dominance requirements of set uses that fail in the composed tree, read
    off walk_tree(tree)'s spans, before tree.derivation is renumbered."""
    derivation = tree.derivation
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
    appearance in its composed tree's preorder, as walk_tree returns them.

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
