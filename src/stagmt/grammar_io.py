"""Reading and writing grammar files.

A ``.grammar`` file is JSON with a ``version`` marker, language names, a
start symbol, a particle table, and a list of synchronous pairs. Node dicts
accept ``cat`` (required) plus optional ``kind`` (default interior),
``adjoin`` (default allow), ``word``, ``feats``, and ``children``; unknown
keys anywhere are rejected so that typos fail loudly rather than silently
changing the grammar. Addresses in links are written in dotted Gorn form
("2.2"; "e" for the root).
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import GrammarSchemaError, GrammarSyntaxError
from .model import (
    ADJOIN_ALLOW,
    ADJOIN_VALUES,
    KIND_INTERIOR,
    KINDS,
    ElementaryTree,
    GornAddress,
    Grammar,
    Link,
    Particle,
    SourceSet,
    SyncPair,
    TreeNode,
    check_particles,
)

FORMAT_VERSION = 1
# the deepest level a grammar tree may reach, its root at level 0: the builder
# takes two frames a level, and 3.10 and 3.11 run out of stack near level 490,
# so this holds on every interpreter from any caller (shipped trees reach 2)
MAX_TREE_DEPTH = 200

_TOP_KEYS = {"version", "source_language", "target_language",
             "start_symbol", "particles", "pairs"}
_PAIR_KEYS = {"name", "priority", "source", "target", "links"}
_SOURCE_KEYS = {"components", "head", "dominance"}
_NODE_KEYS = {"cat", "kind", "adjoin", "word", "feats", "children"}
_LINK_KEYS = {"comp", "src", "tgt"}
_PARTICLE_KEYS = {"form", "case"}


def _require(obj, allowed, required, path):
    if not isinstance(obj, dict):
        raise GrammarSchemaError(f"expected an object, got {type(obj).__name__}", path)
    unknown = set(obj) - allowed
    if unknown:
        raise GrammarSchemaError(f"unknown field {sorted(unknown)[0]!r}", path)
    for key in required:
        if key not in obj:
            raise GrammarSchemaError(f"missing field {key!r}", path)


def _is_int(value) -> bool:
    """A JSON integer: true and false are Python ints but not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _list(value, path) -> list:
    if not isinstance(value, list):
        raise GrammarSchemaError(f"expected a list, got {type(value).__name__}", path)
    return value


def _string(value, path) -> str:
    if not isinstance(value, str):
        raise GrammarSchemaError(f"expected a string, got {type(value).__name__}", path)
    return value


def _address(text, path) -> GornAddress:
    try:
        return GornAddress.parse(_string(text, path))
    except ValueError as exc:
        raise GrammarSchemaError(str(exc), path) from None


def _node_from_json(obj, path, depth=0) -> TreeNode:
    if depth > MAX_TREE_DEPTH:  # named by where the tree starts
        tree = path[:path.index(".children[")]
        raise GrammarSyntaxError(f"{tree}: nested too deeply to read")
    _require(obj, _NODE_KEYS, {"cat"}, path)
    cat = _string(obj["cat"], f"{path}.cat")
    kind = obj.get("kind", KIND_INTERIOR)
    if kind not in KINDS:
        raise GrammarSchemaError(f"unknown node kind {kind!r}", path)
    adjoin = obj.get("adjoin", ADJOIN_ALLOW)
    if adjoin not in ADJOIN_VALUES:
        raise GrammarSchemaError(f"unknown adjoin value {adjoin!r}", path)
    feats = obj.get("feats", {})
    if not isinstance(feats, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in feats.items()):
        raise GrammarSchemaError("feats must map strings to strings", path)
    word = obj.get("word")
    if word is not None:
        _string(word, f"{path}.word")
    children = tuple(
        _node_from_json(c, f"{path}.children[{i}]", depth + 1)
        for i, c in enumerate(_list(obj.get("children", []), f"{path}.children")))
    return TreeNode(cat=cat, kind=kind, adjoin=adjoin, word=word,
                    feats=tuple(sorted(feats.items())), children=children)


def _pair_from_json(obj, path) -> SyncPair:
    _require(obj, _PAIR_KEYS, {"name", "source", "target"}, path)
    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise GrammarSchemaError("pair name must be a nonempty string", path)

    source_json = obj["source"]
    spath = f"{path}.source"
    _require(source_json, _SOURCE_KEYS, {"components"}, spath)
    comp_json = source_json["components"]
    if not isinstance(comp_json, list) or not comp_json:
        raise GrammarSchemaError("components must be a nonempty list of trees", spath)
    components = tuple(
        ElementaryTree(_node_from_json(t, f"{spath}.components[{i}]"))
        for i, t in enumerate(comp_json))

    head = source_json.get("head", 0)
    if not _is_int(head):
        raise GrammarSchemaError("head must be an integer", f"{spath}.head")
    dominance = []
    for i, entry in enumerate(_list(source_json.get("dominance", []),
                                    f"{spath}.dominance")):
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(_is_int(x) for x in entry)):
            raise GrammarSchemaError("dominance entries are [dominator, dominated]",
                                     f"{spath}.dominance[{i}]")
        dominance.append((entry[0], entry[1]))

    target = ElementaryTree(_node_from_json(obj["target"], f"{path}.target"))

    links = []
    for i, link_json in enumerate(_list(obj.get("links", []), f"{path}.links")):
        lpath = f"{path}.links[{i}]"
        _require(link_json, _LINK_KEYS, {"src", "tgt"}, lpath)
        comp = link_json.get("comp", head)
        if not _is_int(comp):
            raise GrammarSchemaError("comp must be an integer", f"{lpath}.comp")
        src = _address(link_json["src"], f"{lpath}.src")
        tgt = _address(link_json["tgt"], f"{lpath}.tgt")
        if not (0 <= comp < len(components)) or src not in components[comp].nodes:
            raise GrammarSchemaError(f"link src {src} does not name a node", lpath)
        if tgt not in target.nodes:
            raise GrammarSchemaError(f"link tgt {tgt} does not name a node", lpath)
        links.append(Link(comp=comp, src=src, tgt=tgt))

    priority = obj.get("priority", 1 if len(components) == 1 else 2)
    if not _is_int(priority):
        raise GrammarSchemaError("priority must be an integer", f"{path}.priority")

    return SyncPair(name=name, source=SourceSet(components=components, head=head,
                                                dominance=tuple(dominance)),
                    target=target, links=tuple(links), priority=priority)


def parse_grammar(text: str, origin: str = "<string>") -> Grammar:
    """Build and validate a Grammar from grammar-file text.

    A tree nested deeper than MAX_TREE_DEPTH is a syntax error, and so is
    other nesting deeper than the JSON reader's recursion limit.
    """
    try:
        return _parse_grammar(text, origin)
    except RecursionError:
        raise GrammarSyntaxError(f"{origin}: nested too deeply to read") from None


def _parse_grammar(text: str, origin: str) -> Grammar:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GrammarSyntaxError(f"{origin}: {exc}") from None

    _require(doc, _TOP_KEYS,
             {"version", "source_language", "target_language", "start_symbol",
              "particles", "pairs"}, origin)
    if not _is_int(doc["version"]) or doc["version"] != FORMAT_VERSION:
        raise GrammarSchemaError(
            f"unsupported version {doc['version']!r}, expected {FORMAT_VERSION}",
            f"{origin}.version")
    names = {key: _string(doc[key], f"{origin}.{key}")
             for key in ("source_language", "target_language", "start_symbol")}

    particles = []
    for i, entry in enumerate(_list(doc["particles"], f"{origin}.particles")):
        ppath = f"{origin}.particles[{i}]"
        _require(entry, _PARTICLE_KEYS, _PARTICLE_KEYS, ppath)
        particles.append(Particle(form=_string(entry["form"], f"{ppath}.form"),
                                  case=_string(entry["case"], f"{ppath}.case")))
    check_particles(particles, f"{origin}.particles")

    pairs = [
        _pair_from_json(p, f"{origin}.pairs[{i}]")
        for i, p in enumerate(_list(doc["pairs"], f"{origin}.pairs"))]

    return Grammar(pairs=pairs, particles=particles, **names)


def load_grammar(path) -> Grammar:
    """Load a grammar from a file path or a builtin grammar name."""
    resolved = resolve_grammar_path(path)
    try:
        text = resolved.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GrammarSyntaxError(f"{resolved}: not UTF-8 text: {exc}") from None
    return parse_grammar(text, origin=str(resolved))


def resolve_grammar_path(path) -> Path:
    p = Path(path)
    if p.exists():
        return p
    if p.suffix == "" and str(path) in builtin_grammar_names():
        return builtin_grammar_path(str(path))
    raise FileNotFoundError(f"no such grammar file or builtin grammar: {path}")


# the built-in grammars ship beside this module's source
_BUILTIN_DIR = Path(__file__).parent / "grammars"


def builtin_grammar_names() -> tuple[str, ...]:
    return tuple(sorted(entry.stem for entry in _BUILTIN_DIR.glob("*.grammar")))


def builtin_grammar_path(name: str) -> Path:
    return _BUILTIN_DIR / f"{name}.grammar"


def _node_to_json(node: TreeNode) -> dict:
    out: dict = {"cat": node.cat}
    if node.kind != KIND_INTERIOR:
        out["kind"] = node.kind
    if node.adjoin != ADJOIN_ALLOW:
        out["adjoin"] = node.adjoin
    if node.word is not None:
        out["word"] = node.word
    if node.feats:
        out["feats"] = dict(node.feats)
    if node.children:
        out["children"] = [_node_to_json(c) for c in node.children]
    return out


def _pair_to_json(pair: SyncPair) -> dict:
    out: dict = {"name": pair.name, "priority": pair.priority}
    src = pair.source
    source_json: dict = {"components": [_node_to_json(c.root) for c in src.components]}
    if src.head:
        source_json["head"] = src.head
    if src.dominance:
        source_json["dominance"] = [list(d) for d in src.dominance]
    out["source"] = source_json
    out["target"] = _node_to_json(pair.target.root)
    out["links"] = [
        {"comp": l.comp, "src": str(l.src), "tgt": str(l.tgt)} for l in pair.links]
    return out


def dump_grammar(grammar: Grammar) -> str:
    """Serialize a grammar; parse_grammar(dump_grammar(g)) reproduces g."""
    doc = {
        "version": FORMAT_VERSION,
        "source_language": grammar.source_language,
        "target_language": grammar.target_language,
        "start_symbol": grammar.start_symbol,
        "particles": [{"form": p.form, "case": p.case} for p in grammar.particles],
        "pairs": [_pair_to_json(p) for p in grammar.pairs],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
