"""Grammar file reading, validation surfacing, and canonical dumping."""

import json

import pytest

from stagmt.errors import (
    GrammarSchemaError,
    GrammarSyntaxError,
    GrammarValidationError,
)
from stagmt.grammar_io import (
    builtin_grammar_names,
    dump_grammar,
    load_grammar,
    parse_grammar,
)

ALL_BUILTINS = ("chase", "ditransitive", "embedded")


def doc_of(grammar) -> dict:
    return json.loads(dump_grammar(grammar))


def reparse(doc: dict):
    return parse_grammar(json.dumps(doc))


class TestLoading:
    def test_builtin_names(self):
        assert builtin_grammar_names() == ALL_BUILTINS

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_builtins_load(self, name):
        grammar = load_grammar(name)
        assert grammar.start_symbol == "S"
        assert grammar.source_language == "ko"
        assert grammar.target_language == "en"

    def test_load_from_path(self, tmp_path, g_chase):
        path = tmp_path / "mine.grammar"
        path.write_text(dump_grammar(g_chase), encoding="utf-8")
        assert load_grammar(path) == g_chase

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_grammar(tmp_path / "nope.grammar")

    def test_chase_inventory(self, g_chase):
        assert len(g_chase.pairs) == 8
        names = {p.name for p in g_chase.pairs}
        assert names == {
            "gamma_chase", "alpha_tom_sp", "alpha_tom_op", "alpha_jerry_sp",
            "alpha_jerry_op", "beta_tom_sp", "beta_jerry_sp", "beta_jerry_op"}

    def test_chase_transitive_links(self, g_chase):
        pair = g_chase.pair("gamma_chase")
        assert [(str(l.src), str(l.tgt)) for l in pair.links] == [
            ("1", "1"), ("2", "2.2")]
        assert all(l.comp == 0 for l in pair.links)

    def test_beta_shape(self, g_chase):
        beta = g_chase.pair("beta_jerry_op")
        assert beta.n_components == 2
        assert beta.source.head == 1
        assert beta.source.dominance == ((0, 1),)
        assert beta.source.components[0].is_auxiliary
        assert not beta.source.components[1].is_auxiliary
        assert beta.priority == 2


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_load_dump_load_identity(self, name):
        grammar = load_grammar(name)
        assert parse_grammar(dump_grammar(grammar)) == grammar

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_dump_is_idempotent(self, name):
        grammar = load_grammar(name)
        once = dump_grammar(grammar)
        twice = dump_grammar(parse_grammar(once))
        assert once == twice

    def test_adjoining_constraints_round_trip(self, g_chase):
        doc = doc_of(g_chase)
        gamma = doc["pairs"][0]
        gamma["source"]["components"][0]["adjoin"] = "oa"
        gamma["target"]["children"][1]["adjoin"] = "na"
        grammar = reparse(doc)
        text = dump_grammar(grammar)
        assert parse_grammar(text) == grammar
        assert json.loads(text)["pairs"][0] == gamma

    def test_dump_is_sorted_json(self, g_chase):
        text = dump_grammar(g_chase)
        doc = json.loads(text)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text


class TestSchemaErrors:
    def test_empty_file_is_syntax_error(self):
        with pytest.raises(GrammarSyntaxError):
            parse_grammar("")

    def test_garbage_is_syntax_error(self):
        with pytest.raises(GrammarSyntaxError):
            parse_grammar("{not json")

    def test_undecodable_file_is_syntax_error(self, tmp_path):
        path = tmp_path / "latin1.grammar"
        path.write_bytes(b'{"source_language": "k\xf6"}')
        with pytest.raises(GrammarSyntaxError, match="UTF-8"):
            load_grammar(path)

    def test_version_checked(self, g_chase):
        doc = doc_of(g_chase)
        doc["version"] = 99
        with pytest.raises(GrammarSchemaError, match="version"):
            reparse(doc)

    def test_unknown_top_level_field(self, g_chase):
        doc = doc_of(g_chase)
        doc["extra"] = True
        with pytest.raises(GrammarSchemaError, match="extra"):
            reparse(doc)

    def test_unknown_node_field(self, g_chase):
        doc = doc_of(g_chase)
        doc["pairs"][0]["target"]["color"] = "red"
        with pytest.raises(GrammarSchemaError, match="color"):
            reparse(doc)

    def test_unknown_source_field(self, g_chase):
        doc = doc_of(g_chase)
        doc["pairs"][0]["source"]["weight"] = 3
        with pytest.raises(GrammarSchemaError, match="weight"):
            reparse(doc)

    def test_components_must_be_nonempty(self, g_chase):
        doc = doc_of(g_chase)
        doc["pairs"][0]["source"]["components"] = []
        with pytest.raises(GrammarSchemaError, match="components"):
            reparse(doc)

    def test_bad_link_address_names_the_address(self, g_chase):
        doc = doc_of(g_chase)
        for pair in doc["pairs"]:
            if pair["name"] == "gamma_chase":
                pair["links"][0]["src"] = "9"
        with pytest.raises(GrammarSchemaError, match="9"):
            reparse(doc)

    def test_malformed_address_rejected(self, g_chase):
        doc = doc_of(g_chase)
        for pair in doc["pairs"]:
            if pair["name"] == "gamma_chase":
                pair["links"][0]["tgt"] = "2..2"
        with pytest.raises(GrammarSchemaError):
            reparse(doc)

    def test_unknown_kind_rejected(self, g_chase):
        doc = doc_of(g_chase)
        doc["pairs"][0]["target"]["kind"] = "stem"
        with pytest.raises(GrammarSchemaError, match="stem"):
            reparse(doc)

    def test_feats_must_be_string_map(self, g_chase):
        doc = doc_of(g_chase)
        doc["pairs"][0]["target"]["feats"] = {"n": 3}
        with pytest.raises(GrammarSchemaError, match="feats"):
            reparse(doc)

    # (edit of the chase grammar's document, path the error must name);
    # pairs[0] is gamma_chase (two links), pairs[5] beta_tom_sp (a set)
    WRONG_TYPES = {
        "particles": (lambda doc: doc.update(particles=5), ".particles:"),
        "pairs": (lambda doc: doc.update(pairs=7), ".pairs:"),
        "links": (lambda doc: doc["pairs"][0].update(links=3), ".pairs[0].links:"),
        "children": (lambda doc: doc["pairs"][0]["target"].update(children=4),
                     ".pairs[0].target.children:"),
        "dominance": (lambda doc: doc["pairs"][5]["source"].update(dominance=3),
                      ".pairs[5].source.dominance:"),
        "version": (lambda doc: doc.update(version=True), ".version:"),
        "priority": (lambda doc: doc["pairs"][0].update(priority=True),
                     ".pairs[0].priority:"),
        "link comp": (lambda doc: doc["pairs"][0]["links"][0].update(comp=False),
                      ".pairs[0].links[0].comp:"),
        "dominance entry": (
            lambda doc: doc["pairs"][5]["source"].update(dominance=[[False, True]]),
            ".pairs[5].source.dominance[0]:"),
        "particle form": (lambda doc: doc["particles"][0].update(form=5),
                          ".particles[0].form:"),
        "particle case": (lambda doc: doc["particles"][0].update(case=None),
                          ".particles[0].case:"),
        "node cat": (lambda doc: doc["pairs"][0]["source"]["components"][0].update(cat=7),
                     ".pairs[0].source.components[0].cat:"),
        "node word": (lambda doc: doc["pairs"][0]["target"]["children"][1]["children"][0]
                      .update(word=3), ".pairs[0].target.children[1].children[0].word:"),
        "source_language": (lambda doc: doc.update(source_language=["ko"]),
                            ".source_language:"),
        "target_language": (lambda doc: doc.update(target_language=None),
                            ".target_language:"),
        "start_symbol": (lambda doc: doc.update(start_symbol=1), ".start_symbol:"),
    }

    # (edit of the chase grammar's document, what the refusal must say)
    REFUSALS = {
        "pair not an object": (lambda doc: doc["pairs"].append(5),
                               "expected an object, got int"),
        "pair without target": (lambda doc: doc["pairs"][0].pop("target"),
                                "missing field 'target'"),
        "adjoin value": (lambda doc: doc["pairs"][0]["target"].update(adjoin="maybe"),
                         "unknown adjoin value 'maybe'"),
        "empty pair name": (lambda doc: doc["pairs"][0].update(name=""),
                            "pair name must be a nonempty string"),
        "head": (lambda doc: doc["pairs"][5]["source"].update(head="1"),
                 "head must be an integer"),
        "link tgt": (lambda doc: doc["pairs"][0]["links"][0].update(tgt="9"),
                     "link tgt 9 does not name a node"),
        # else the unknown word 'Tomx' segments as stem '' plus particle ''
        "empty particle form": (
            lambda doc: doc["particles"].append({"form": "", "case": "nom"}),
            r"\.particles\[4\]\.form: particle form must be nonempty"),
        # no word segments to it: 'Jerry-l-y' splits at its last hyphen
        "hyphen in particle form": (
            lambda doc: doc["particles"].append({"form": "l-y", "case": "acc"}),
            r"\.particles\[4\]\.form: particle form 'l-y' holds a hyphen"),
        "whitespace in particle form": (
            lambda doc: doc["particles"].append({"form": "l y", "case": "acc"}),
            r"\.particles\[4\]\.form: particle form 'l y' holds a hyphen"),
        # else the grammar's particle map keeps only the last case
        "particle form twice": (
            lambda doc: doc["particles"].append({"form": "i", "case": "acc"}),
            r"\.particles\[4\]\.form: particle form 'i' is listed twice"),
    }

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_loader_refusal(self, g_chase, case):
        edit, message = self.REFUSALS[case]
        doc = doc_of(g_chase)
        edit(doc)
        with pytest.raises(GrammarSchemaError, match=message):
            reparse(doc)

    @pytest.mark.parametrize("field", sorted(WRONG_TYPES))
    def test_wrong_json_type_is_a_schema_error(self, g_chase, field):
        edit, path = self.WRONG_TYPES[field]
        doc = doc_of(g_chase)
        edit(doc)
        with pytest.raises(GrammarSchemaError) as info:
            reparse(doc)
        assert info.value.code == "schema-error"
        assert path in str(info.value)


class TestDefaults:
    def test_singleton_defaults(self, g_chase):
        doc = doc_of(g_chase)
        (alpha,) = [p for p in doc["pairs"] if p["name"] == "alpha_tom_sp"]
        alpha["source"].pop("head", None)
        alpha.pop("priority")
        grammar = reparse(doc)
        pair = grammar.pair("alpha_tom_sp")
        assert pair.source.head == 0
        assert pair.priority == 1

    def test_multi_priority_default(self, g_chase):
        doc = doc_of(g_chase)
        (beta,) = [p for p in doc["pairs"] if p["name"] == "beta_jerry_op"]
        beta.pop("priority")
        grammar = reparse(doc)
        assert grammar.pair("beta_jerry_op").priority == 2

    def test_link_comp_defaults_to_head(self, g_chase):
        doc = doc_of(g_chase)
        for pair in doc["pairs"]:
            for link in pair.get("links", []):
                link.pop("comp", None)
        grammar = reparse(doc)
        for link in grammar.pair("gamma_chase").links:
            assert link.comp == 0


class TestValidationSurfacing:
    def test_invalid_pair_reported_with_diagnostics(self, g_chase):
        doc = doc_of(g_chase)
        for pair in doc["pairs"]:
            if pair["name"] == "beta_jerry_op":
                pair["source"]["head"] = 0
                pair["source"]["dominance"] = []
        with pytest.raises(GrammarValidationError) as info:
            reparse(doc)
        rules = {d.rule for d in info.value.diagnostics}
        assert "head-convention" in rules
        assert all(d.pair == "beta_jerry_op" for d in info.value.diagnostics)

    # (edit of the chase grammar's document) by the rule it breaks;
    # pairs[0] is gamma_chase, pairs[1] alpha_tom_sp, pairs[5] beta_tom_sp
    RULES = {
        "root-kind": lambda doc: doc["pairs"][1]["source"]["components"][0].update(
            kind="lex", word="Tom", children=[]),
        "leaf-children": lambda doc: doc["pairs"][1]["source"]["components"][0][
            "children"][0].update(children=[{"cat": "X", "kind": "lex", "word": "y"}]),
        "word-on-nonlex": lambda doc: doc["pairs"][1]["target"].update(word="Tom"),
        "foot-category": lambda doc: doc["pairs"][5]["source"]["components"][0][
            "children"][1].update(cat="VP"),
        "head-index": lambda doc: doc["pairs"][5]["source"].update(head=2),
        "singleton-dominance": lambda doc: doc["pairs"][1]["source"].update(
            dominance=[[0, 0]]),
        # the verb is a lex node: it names a node, but not an operable one
        "link-tgt": lambda doc: doc["pairs"][0]["links"][1].update(tgt="2.1"),
        "duplicate-link-tgt": lambda doc: doc["pairs"][0]["links"][1].update(tgt="1"),
    }

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_rule_reached_from_a_file(self, g_chase, rule):
        doc = doc_of(g_chase)
        self.RULES[rule](doc)
        with pytest.raises(GrammarValidationError) as info:
            reparse(doc)
        assert rule in {d.rule for d in info.value.diagnostics}

    def test_duplicate_pair_names_rejected(self, g_chase):
        doc = doc_of(g_chase)
        doc["pairs"].append(dict(doc["pairs"][1]))
        with pytest.raises(Exception, match="duplicate|Duplicate"):
            reparse(doc)
