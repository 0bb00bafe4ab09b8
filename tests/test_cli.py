"""The stagmt command-line front end, exercised through main()."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from support import (AMBIGUOUS_CANONICAL, AMBIGUOUS_FRONTED, AMBIGUOUS_GRAMMAR,
                     CHASE_CANONICAL, CHASE_NEGATIVES, CHASE_SCRAMBLED,
                     CHASE_WORDS, DITRANS_NEGATIVES, DITRANS_WORDS,
                     EMBEDDED_CANONICAL, EMBEDDED_NEGATIVES, EMBEDDED_WORDS,
                     chain_sentence, corpus)

from stagmt.cli import main
from stagmt.grammar_io import MAX_TREE_DEPTH, builtin_grammar_path


# Regenerate after an intended output change: PYTHONPATH=src python tests/test_cli.py
GOLDEN = Path(__file__).parent / "golden"
# golden file -> CLI arguments, run over each shipped grammar's golden input
GOLDEN_RUNS = {
    "translate_corpus.txt": ("translate", "--show", "both", "--trace-transfer",
                             "--all-derivations"),
    "translate_json_corpus.txt": ("translate", "--format", "json",
                                  "--all-derivations"),
    "parse_corpus.txt": ("parse", "--all-derivations"),
    "parse_json_corpus.txt": ("parse", "--format", "json", "--all-derivations"),
    "permutations_corpus.txt": ("permutations",),
    "permutations_json_corpus.txt": ("permutations", "--format", "json"),
}
# grammar -> the words of its word-order study sentence and its lines that
# must not parse
PERMUTATION_INPUTS = {"chase": (CHASE_WORDS, CHASE_NEGATIVES),
                      "ditransitive": (DITRANS_WORDS, DITRANS_NEGATIVES),
                      "embedded": (EMBEDDED_WORDS, EMBEDDED_NEGATIVES)}


def nested_grammar(depth):
    """The chase grammar's header and one pair whose tree nests depth nodes
    deep, written as text: json.dumps would recurse."""
    tree = ('{"cat": "S", "children": [' * depth
            + '{"cat": "S", "kind": "lex", "word": "x"}' + "]}" * depth)
    pair = (f'{{"name": "deep", "source": {{"components": [{tree}]}}, '
            '"target": {"cat": "S", "children": [{"cat": "S", "kind": "lex", '
            '"word": "x"}]}}')
    header = {**json.loads(builtin_grammar_path("chase").read_text()), "pairs": []}
    return json.dumps(header).replace('"pairs": []', f'"pairs": [{pair}]')


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_process(*argv):
    """The CLI in a fresh interpreter, on this checkout's library."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-m", "stagmt.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})


def golden_input(command, name) -> tuple[str, ...]:
    """The lines a golden run feeds on stdin: the grammar's regression corpus,
    or for permutations its study sentence and negative lines."""
    if command != "permutations":
        return corpus(name)
    words, negatives = PERMUTATION_INPUTS[name]
    return (" ".join(words) + ".", *negatives)


def corpus_transcript(*argv) -> str:
    """Exit status, stdout and stderr of one CLI run per shipped grammar over
    its golden input, fed on stdin."""
    parts = []
    for name in ("chase", "ditransitive", "embedded"):
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO("".join(f"{line}\n"
                                        for line in golden_input(argv[0], name)))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main([argv[0], "-g", name, *argv[1:]])
        finally:
            sys.stdin = stdin
        parts.append(f"=== {name}: exit {status}\n--- stdout\n{out.getvalue()}"
                     f"--- stderr\n{err.getvalue()}")
    return "".join(parts)


class TestTranslate:
    def test_canonical(self, capsys):
        status, out, err = run(capsys, "translate", "-g", "chase",
                               "Tom-i", "Jerry-lul", "ccossnunta.")
        assert (status, out, err) == (0, "Tom chases Jerry.\n", "")

    def test_scrambled_translates_the_same(self, capsys):
        status, out, _ = run(capsys, "translate", "-g", "chase",
                             "Jerry-lul", "Tom-i", "ccossnunta.")
        assert (status, out) == (0, "Tom chases Jerry.\n")

    def test_stdin_lines_are_numbered(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(
            f"{CHASE_CANONICAL}\n\nccossnunta Tom-i Jerry-lul.\n"))
        status, out, err = run(capsys, "translate", "-g", "chase")
        assert status == 1
        assert out == "Tom chases Jerry.\nERROR\n"
        assert err.startswith("line 3: no-parse:")

    def test_deep_input_translates(self, capsys, monkeypatch):
        # the object fronted over 80, then 400 embedding verbs: pass 2
        # searches the forest with its own stack, so depth is no limit
        monkeypatch.setattr("sys.stdin", io.StringIO(
            f"{chain_sentence(80)}\n{chain_sentence(400)}\n{EMBEDDED_CANONICAL}\n"))
        status, out, err = run(capsys, "translate", "-g", "embedded")
        assert (status, err) == (0, "")
        assert out.splitlines() == ["Mary says " * 80 + "Tom chases Jerry.",
                                    "Mary says " * 400 + "Tom chases Jerry.",
                                    "Mary says Tom chases Jerry."]

    def test_deep_input_needs_no_stack(self):
        # no code on the translate path recurses, so a recursion limit of
        # 100 still translates a chain 400 embeddings deep
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys\n"
                "from stagmt.grammar_io import load_grammar\n"
                "from stagmt.pipeline import translate_line\n"
                "grammar = load_grammar('embedded')\n"
                "sys.setrecursionlimit(100)\n"
                f"print(translate_line({chain_sentence(400)!r}, grammar).best.surface)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "Mary says " * 400 + "Tom chases Jerry.\n"

    def test_chart_limit_is_a_coded_error(self, capsys, monkeypatch):
        # pass 1 over the object fronted over three embedding verbs settles
        # 62 items, over the canonical sentence 36: under a cap of 50 the
        # first is refused and the batch goes on to the second
        monkeypatch.setattr("stagmt.parser.MAX_CHART_ITEMS", 50)
        monkeypatch.setattr("sys.stdin", io.StringIO(
            f"{chain_sentence(3)}\n{EMBEDDED_CANONICAL}\n"))
        status, out, err = run(capsys, "translate", "-g", "embedded")
        assert status == 1
        assert out == "ERROR\nMary says Tom chases Jerry.\n"
        assert err.startswith("line 1: limit-exceeded:")

    def test_grouping_limit_is_a_coded_error(self, capsys, monkeypatch):
        # the fronted objects group in 3! = 6 ways per instance tree, the
        # cheapest reading of the canonical order in one: under a cap of 5
        # the first is refused and the batch goes on to the second
        monkeypatch.setattr("stagmt.parser.MAX_GROUPINGS", 5)
        monkeypatch.setattr("sys.stdin", io.StringIO(
            f"{AMBIGUOUS_FRONTED}\n{AMBIGUOUS_CANONICAL}\n"))
        status, out, err = run(capsys, "translate", "-g", str(AMBIGUOUS_GRAMMAR))
        assert status == 1
        assert out == "ERROR\nTom lists Jerry Jerry Jerry.\n"
        assert err.startswith("line 1: limit-exceeded:")

    @pytest.mark.parametrize("argv", [("--format", "json"), ("--show", "derived")])
    def test_deep_parse_renders_its_trees(self, capsys, monkeypatch, argv):
        # a parse 170 embeddings deep is printed with its trees, and the
        # batch goes on to the next line
        monkeypatch.setattr("sys.stdin", io.StringIO(
            f"{chain_sentence(170)}\n{EMBEDDED_CANONICAL}\n"))
        status, out, err = run(capsys, "translate", "-g", "embedded", *argv)
        assert (status, err) == (0, "")
        lines = out.splitlines()
        if argv[0] == "--format":
            translations = [json.loads(line)["translation"] for line in lines]
        else:  # each translation is followed by its source and target trees
            translations = lines[::3]
        assert translations == ["Mary says " * 170 + "Tom chases Jerry.",
                                "Mary says Tom chases Jerry."]

    def test_one_untranslatable_candidate_fails_the_line(self, capsys, tmp_path):
        # chase plus an adverb pair that links nothing: on the cheapest level
        # it adjoins at the verb's root and translates, but a dearer level
        # adjoins it at the root of beta_tom_sp's scrambled component, which
        # has no target node for it, so every level fails the whole line
        doc = json.loads(builtin_grammar_path("chase").read_text())
        doc["pairs"].append({
            "name": "beta_adv", "priority": 1, "links": [],
            "source": {"components": [{"cat": "S", "children": [
                {"cat": "ADV", "kind": "lex", "word": "acik"},
                {"cat": "S", "kind": "foot"}]}]},
            "target": {"cat": "S", "children": [
                {"cat": "S", "kind": "foot"},
                {"cat": "ADV", "kind": "lex", "word": "still"}]}})
        adverb = tmp_path / "adverb.grammar"
        adverb.write_text(json.dumps(doc))
        line = "acik Tom-i Jerry-lul ccossnunta."
        assert run(capsys, "translate", "-g", str(adverb), line) == (
            0, "Tom chases Jerry still.\n", "")
        status, out, err = run(capsys, "translate", "-g", str(adverb),
                               "--all-derivations", line)
        assert (status, out) == (1, "ERROR\n")
        assert err.startswith("line 1: untranslatable-attachment: use 0 "
                              "(beta_adv) attaches at u1/c0@e")

    def test_unknown_word(self, capsys):
        status, out, err = run(capsys, "translate", "-g", "chase",
                               "Spike-lul", "Tom-i", "ccossnunta.")
        assert status == 1
        assert out == "ERROR\n"
        assert "lexical-gap" in err

    def test_stray_particle_is_a_lexical_gap(self, capsys):
        # a particle is legal only after a stem, so a bare one names itself
        assert run(capsys, "translate", "-g", "chase", "Tom-i ul ccossnunta.") == (
            1, "ERROR\n", "line 1: lexical-gap: no pair is anchored on 'ul'\n")

    def test_show_derivation(self, capsys):
        _, out, _ = run(capsys, "translate", "-g", "chase", "--show",
                        "derivation", *CHASE_SCRAMBLED.split())
        assert out.startswith("Tom chases Jerry.\n# cost 1\n")
        assert "u0 beta_jerry_op (root)" not in out  # root is the gamma
        assert "beta_jerry_op" in out

    def test_show_both(self, capsys):
        _, out, _ = run(capsys, "translate", "-g", "chase", "--show", "both",
                        *CHASE_CANONICAL.split())
        assert "source: (S (SP (N Tom) (P i)) (OP (N Jerry) (P lul)) (V ccossnunta))" in out
        assert "target: (S (NP (N Tom)) (VP (V chases) (NP (N Jerry))))" in out

    def test_trace_transfer(self, capsys):
        _, out, _ = run(capsys, "translate", "-g", "chase", "--trace-transfer",
                        *CHASE_SCRAMBLED.split())
        assert "-> target" in out

    def test_all_derivations_shows_every_level(self, capsys):
        _, out, _ = run(capsys, "translate", "-g", "chase", "--all-derivations",
                        "--show", "derivation", *CHASE_CANONICAL.split())
        assert "# cost 0" in out and "# cost 1" in out and "# cost 2" in out

    def test_json_output(self, capsys):
        _, out, _ = run(capsys, "translate", "-g", "chase", "--format", "json",
                        *CHASE_CANONICAL.split())
        payload = json.loads(out)
        assert payload["input"] == CHASE_CANONICAL
        assert payload["translation"] == "Tom chases Jerry."
        (candidate,) = payload["candidates"]
        assert candidate["cost"] == 0
        assert candidate["pairs"] == ["gamma_chase", "alpha_tom_sp",
                                      "alpha_jerry_op"]
        assert candidate["target_tree"] == (
            "(S (NP (N Tom)) (VP (V chases) (NP (N Jerry))))")

    def test_json_error_object(self, capsys):
        status, out, _ = run(capsys, "translate", "-g", "chase", "--format",
                             "json", "ccossnunta", "Tom-i", "Jerry-lul.")
        payload = json.loads(out)
        assert status == 1
        assert payload["translation"] == "ERROR"
        assert payload["error"] == "no-parse"
        assert payload["line"] == 1

    def test_missing_grammar_file(self, capsys):
        status, _, err = run(capsys, "translate", "-g", "/no/such.grammar",
                             *CHASE_CANONICAL.split())
        assert status == 2
        assert err.startswith("error:")

    def test_unreadable_grammar_path(self, capsys, tmp_path):
        # a directory exists but cannot be read as a grammar file
        status, out, err = run(capsys, "translate", "-g", str(tmp_path),
                               *CHASE_CANONICAL.split())
        assert (status, out) == (2, "")
        assert err.startswith("error:")


class TestParse:
    def test_default_shows_best_level_only(self, capsys):
        status, out, _ = run(capsys, "parse", "-g", "chase",
                             *CHASE_CANONICAL.split())
        assert status == 0
        assert out.startswith("cost 0: 1 derivation(s)\n")
        assert "u0 gamma_chase (root)" in out
        assert "(S (SP (N Tom) (P i)) (OP (N Jerry) (P lul)) (V ccossnunta))" in out
        assert "cost 1" not in out

    def test_all_derivations(self, capsys):
        _, out, _ = run(capsys, "parse", "-g", "chase", "--all-derivations",
                        *CHASE_CANONICAL.split())
        assert "cost 1: 1 derivation(s)" in out
        assert "cost 2: 1 derivation(s)" in out

    def test_show_derivation_only(self, capsys):
        _, out, _ = run(capsys, "parse", "-g", "chase", "--show", "derivation",
                        *CHASE_SCRAMBLED.split())
        assert "subst" in out
        assert "(S (OP<1>" not in out

    def test_coindexation_in_trees(self, capsys):
        _, out, _ = run(capsys, "parse", "-g", "chase", "--show", "derived",
                        *CHASE_SCRAMBLED.split())
        assert "(S (OP<1> (N Jerry) (P lul)) (S (SP (N Tom) (P i)) (OP<1> e) (V ccossnunta)))" in out

    def test_error_reporting(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(
            f"{CHASE_CANONICAL}\nTom-i ccossnunta.\n"))
        status, _, err = run(capsys, "parse", "-g", "chase")
        assert status == 1
        assert "line 2: no-parse" in err

    def test_json(self, capsys):
        _, out, _ = run(capsys, "parse", "-g", "chase", "--format", "json",
                        *CHASE_CANONICAL.split())
        payload = json.loads(out)
        (level,) = payload["levels"]
        assert level["cost"] == 0
        assert level["derivations"][0]["pairs"][0] == "gamma_chase"


class TestCheck:
    def test_builtin_grammars_pass(self, capsys):
        for name, pairs in (("chase", 8), ("ditransitive", 7), ("embedded", 6),
                            (str(AMBIGUOUS_GRAMMAR), 9)):
            status, out, _ = run(capsys, "check", "-g", name)
            assert status == 0
            assert out == f"OK, {pairs} pairs\n"

    def test_unanchored_pair_refused(self, capsys, tmp_path):
        # chase plus S(S*) on both sides: its uses could stack without end
        doc = json.loads(builtin_grammar_path("chase").read_text())
        zero_width = {"cat": "S", "children": [{"cat": "S", "kind": "foot"}]}
        doc["pairs"].append({"name": "beta_zw", "priority": 1, "links": [],
                             "source": {"components": [zero_width]},
                             "target": zero_width})
        bad = tmp_path / "zw.grammar"
        bad.write_text(json.dumps(doc))
        status, out, _ = run(capsys, "check", "-g", str(bad))
        assert status == 1
        assert "beta_zw" in out and "(unanchored)" in out

    def test_missing_file(self, capsys):
        status, _, err = run(capsys, "check", "-g", "/no/such.grammar")
        assert status == 2
        assert err.startswith("error:")

    def test_invalid_grammar_lists_diagnostics(self, capsys, tmp_path):
        doc = json.loads(builtin_grammar_path("chase").read_text())
        for pair in doc["pairs"]:
            if pair["name"] == "beta_tom_sp":
                pair["source"]["head"] = 0  # the auxiliary must not be head
        bad = tmp_path / "bad.grammar"
        bad.write_text(json.dumps(doc))
        status, out, _ = run(capsys, "check", "-g", str(bad))
        assert status == 1
        assert "beta_tom_sp" in out
        *diagnostics, summary = out.rstrip().split("\n")
        assert diagnostics and all(line.startswith("[error] ") for line in diagnostics)
        assert summary.endswith("problem(s)")

    def test_out_of_range_dominator(self, capsys, tmp_path):
        # the place-holder check must skip a dominator that names no
        # component; the dominance-index diagnostic reports it
        doc = json.loads(builtin_grammar_path("chase").read_text())
        for pair in doc["pairs"]:
            if pair["name"] == "beta_jerry_op":
                pair["source"]["dominance"] = [[3, 1]]
        bad = tmp_path / "bad.grammar"
        bad.write_text(json.dumps(doc))
        status, out, err = run(capsys, "check", "-g", str(bad))
        assert status == 1
        assert "bad dominance pair (3, 1) (dominance-index)" in out
        assert "Traceback" not in out + err
        status, out, err = run(capsys, "translate", "-g", str(bad), CHASE_CANONICAL)
        assert (status, out) == (2, "")
        assert err.startswith("error: unusable grammar:")
        assert "Traceback" not in err

    def test_unreadable_path(self, capsys, tmp_path):
        status, _, err = run(capsys, "check", "-g", str(tmp_path))
        assert status == 2
        assert err.startswith("error:")

    def test_undecodable_file(self, capsys, tmp_path):
        bad = tmp_path / "latin1.grammar"
        bad.write_bytes(b'{"source_language": "k\xf6"}')
        status, _, err = run(capsys, "check", "-g", str(bad))
        assert status == 1
        assert "[syntax-error]" in err

    def test_unparseable_file(self, capsys, tmp_path):
        bad = tmp_path / "broken.grammar"
        bad.write_text("{ not json")
        status, _, err = run(capsys, "check", "-g", str(bad))
        assert status == 1
        assert "[syntax-error]" in err

    # 1,000 nested nodes pass the recursion limit of the tree builder on
    # every Python, and of the JSON reader on some; one level past the cap
    # passes neither
    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                      nested_grammar(1_000),
                                      nested_grammar(MAX_TREE_DEPTH + 1)],
                             ids=["arrays", "nodes", "past_cap"])
    def test_too_deeply_nested_file(self, capsys, tmp_path, text):
        deep = tmp_path / "deep.grammar"
        deep.write_text(text)
        status, out, err = run(capsys, "check", "-g", str(deep))
        assert (status, out) == (1, "")
        assert "[syntax-error]" in err
        status, out, err = run(capsys, "translate", "-g", str(deep), CHASE_CANONICAL)
        assert (status, out) == (2, "")
        assert err.startswith("error: unusable grammar:")

    def test_tree_at_the_depth_cap_loads(self, capsys, tmp_path):
        deep = tmp_path / "deep.grammar"
        deep.write_text(nested_grammar(MAX_TREE_DEPTH))
        assert run(capsys, "check", "-g", str(deep))[0] == 0
        assert run(capsys, "translate", "-g", str(deep), "x.") == (0, "x.\n", "")

    # a fresh CLI process has a shallower stack than pytest's: it too must
    # load a tree at the cap and refuse one a level deeper
    @pytest.mark.parametrize("depth, exits", [(MAX_TREE_DEPTH, (0, 0)),
                                              (MAX_TREE_DEPTH + 1, (1, 2))],
                             ids=["at_cap", "past_cap"])
    def test_depth_cap_in_fresh_processes(self, tmp_path, depth, exits):
        deep = tmp_path / "deep.grammar"
        deep.write_text(nested_grammar(depth))
        check = run_process("check", "-g", str(deep))
        translate = run_process("translate", "-g", str(deep), "x.")
        assert (check.returncode, translate.returncode) == exits
        if depth > MAX_TREE_DEPTH:
            assert "[syntax-error]" in check.stderr
            assert "nested too deeply to read" in translate.stderr

    def test_field_of_the_wrong_type(self, capsys, tmp_path):
        doc = json.loads(builtin_grammar_path("chase").read_text())
        doc["particles"] = 5
        bad = tmp_path / "bad.grammar"
        bad.write_text(json.dumps(doc))
        status, out, err = run(capsys, "check", "-g", str(bad))
        assert (status, out) == (1, "")
        assert ".particles: " in err and "[schema-error]" in err
        status, out, err = run(capsys, "translate", "-g", str(bad), CHASE_CANONICAL)
        assert (status, out) == (2, "")
        assert err.startswith("error: unusable grammar:") and ".particles: " in err

    def test_takes_no_format(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", "-g", "chase", "--format", "json"])
        assert info.value.code == 2
        assert "--format" in capsys.readouterr().err


class TestPermutations:
    def test_table(self, capsys):
        status, out, _ = run(capsys, "permutations", "-g", "chase",
                             *CHASE_CANONICAL.split())
        assert status == 0
        lines = out.splitlines()
        assert lines[-1] == "2/6 orders parse, 1 family"
        assert any(line.startswith(
            "Tom-i Jerry-lul ccossnunta. | yes |    0 | f1 | Tom chases Jerry.")
                   for line in lines)
        assert any("| no  |    - | -  | -" in line for line in lines)

    def test_json(self, capsys):
        _, out, _ = run(capsys, "permutations", "-g", "chase", "--format",
                        "json", *CHASE_CANONICAL.split())
        payload = json.loads(out)
        assert payload["parsed"] == 2
        assert payload["total"] == 6
        assert len(payload["orders"]) == 6
        costs = {o["sentence"]: o["cost"] for o in payload["orders"]}
        assert costs[CHASE_CANONICAL] == 0
        assert costs[CHASE_SCRAMBLED] == 1

    def test_orders_collapse_into_families(self, capsys):
        # the paper's claim: a scrambled order translates like the canonical
        # one, because their target derivations are one up to use numbering.
        # Embedded splits in two, as Mary-ka and Tom-i are both nominative.
        expected = {"chase": (2, 1), "ditransitive": (6, 1), "embedded": (6, 2)}
        for name, (words, _) in PERMUTATION_INPUTS.items():
            _, out, _ = run(capsys, "permutations", "-g", name, "--format",
                            "json", " ".join(words) + ".")
            payload = json.loads(out)
            assert (payload["parsed"], payload["families"]) == expected[name]
            translations = {}
            for order in payload["orders"]:
                assert (order["family"] is None) == (not order["parses"])
                if order["parses"]:
                    translations.setdefault(order["family"], set()).add(
                        order["translation"])
            # numbered 1, 2, ... by first appearance, one translation each
            assert list(translations) == list(range(1, payload["families"] + 1))
            assert all(len(ts) == 1 for ts in translations.values())

    def test_stdin_gives_one_object_per_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(
            f"{CHASE_CANONICAL}\n\nTom-i ccossnunta.\n"))
        status, out, _ = run(capsys, "permutations", "-g", "chase", "--format",
                             "json")
        assert status == 0
        payloads = [json.loads(line) for line in out.splitlines()]
        assert [(p["input"], p["parsed"], p["total"]) for p in payloads] == [
            (CHASE_CANONICAL, 2, 6), ("Tom-i ccossnunta.", 0, 2)]

    def test_too_many_words_are_refused(self, capsys):
        # nine words have 9! = 362,880 orders; none may be enumerated
        status, out, err = run(capsys, "permutations", "-g", "chase",
                               *["Tom-i"] * 8, "ccossnunta.")
        assert (status, out) == (1, "")
        assert err.startswith("line 1: limit-exceeded: 9 words")

    PIPE = "Tom-i ccossnunta.\nXyz-q\nJerry-lul ccossnunta.\n"

    def test_batch_goes_on_past_a_failing_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.PIPE))
        status, out, err = run(capsys, "permutations", "-g", "chase")
        assert status == 1
        assert err == ("line 2: unknown-particle: "
                       "unknown particle 'q' in 'Xyz-q'\n")
        tables = out.splitlines()
        assert tables[0].startswith("Tom-i ccossnunta. | no")
        assert tables[-3].startswith("Jerry-lul ccossnunta. | no")
        assert tables.count("0/2 orders parse, 0 families") == 2

    def test_json_batch_goes_on_past_a_failing_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.PIPE))
        status, out, err = run(capsys, "permutations", "-g", "chase",
                               "--format", "json")
        assert status == 1
        assert err.startswith("line 2: unknown-particle: ")
        first, error, last = (json.loads(line) for line in out.splitlines())
        assert (first["input"], first["total"]) == ("Tom-i ccossnunta.", 2)
        assert error == {"input": "Xyz-q", "line": 2, "error": "unknown-particle",
                         "message": "unknown particle 'q' in 'Xyz-q'"}
        assert (last["input"], last["total"]) == ("Jerry-lul ccossnunta.", 2)

    def failed_line(self, capsys, fmt, *argv):
        """Status, stdout and stderr of permutations over one line that
        fails; in JSON, checks the line's error object and drops it from
        stdout, so both formats leave stdout empty."""
        status, out, err = run(capsys, "permutations", "--format", fmt, *argv)
        if fmt == "json":
            error = json.loads(out)
            assert set(error) == {"input", "line", "error", "message"}
            assert error["error"] == err.split(": ")[1]
            out = ""
        return status, out, err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_untranslatable_order_fails_the_line(self, capsys, tmp_path, fmt):
        # chase plus a set whose zero-width component adjoins over the span it
        # covers and which links nothing: every order that parses has no
        # target node for it, as translate says of the line itself
        doc = json.loads(builtin_grammar_path("chase").read_text())
        doc["pairs"].append({
            "name": "beta_cal", "priority": 2, "links": [],
            "source": {"components": [
                {"cat": "S", "children": [{"cat": "e", "kind": "empty"},
                                          {"cat": "S", "kind": "foot"}]},
                {"cat": "S", "children": [{"cat": "A", "kind": "lex", "word": "cal"},
                                          {"cat": "S", "kind": "foot"}]}]},
            "target": {"cat": "S", "children": [{"cat": "S", "kind": "foot"}]}})
        cal = tmp_path / "cal.grammar"
        cal.write_text(json.dumps(doc))
        line = "cal cal Tom-i Jerry-lul ccossnunta."
        assert run(capsys, "translate", "-g", str(cal), line)[:2] == (1, "ERROR\n")
        status, out, err = self.failed_line(capsys, fmt, "-g", str(cal), line)
        assert (status, out) == (1, "")
        assert err.startswith("line 1: untranslatable-attachment: use ")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_limit_on_an_order_fails_the_line(self, capsys, monkeypatch, fmt):
        # the canonical order's cheapest level has 1 root instance tree,
        # past a cap of 0: it is not an order that does not parse
        monkeypatch.setattr("stagmt.parser.MAX_PARSES", 0)
        status, out, err = self.failed_line(capsys, fmt, "-g", "chase",
                                            CHASE_CANONICAL)
        assert (status, out) == (1, "")
        assert err.startswith("line 1: limit-exceeded:")


# anchors, particle forms, glued forms and unknown words of the chase grammar
BATCH_WORDS = ("Tom", "Jerry", "ccossnunta", "Tom-i", "Jerry-lul", "Tom-ul",
               "Jerry-ka", "Tomi", "Jerrylul", "Spike", "Spike-lul", "Tom-q", "-i")
batch_lines = st.one_of(
    st.sampled_from(("", "   ", ".")),
    st.builds(lambda words, end: " ".join(words) + end,
              st.lists(st.sampled_from(BATCH_WORDS), min_size=1, max_size=4),
              st.sampled_from((".", ""))),
    st.just("Tom-i " * 8 + "ccossnunta."))   # too many words to permute


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("translate", "parse", "permutations")),
       st.sampled_from(("text", "json")), st.lists(batch_lines, max_size=5))
def test_batch_goes_on_past_every_failing_line(command, fmt, batch):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO("".join(f"{line}\n" for line in batch))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([command, "-g", "chase", "--format", fmt])
    # stderr holds one report per failed line, with its code, and nothing
    # else (no traceback)
    reports = [re.fullmatch(r"line (\d+): ([a-z-]+): .+", report)
               for report in err.getvalue().splitlines()]
    assert all(reports)
    failed = [(int(report[1]), report[2]) for report in reports]
    assert status == (1 if failed else 0)
    if fmt == "json":
        # the batch goes on: one object per nonblank line, an error object
        # exactly for each failing line
        lines = [(n, line.strip()) for n, line in enumerate(batch, 1)
                 if line.strip()]
        objects = [json.loads(text) for text in out.getvalue().splitlines()]
        assert [obj["input"] for obj in objects] == [line for _, line in lines]
        assert failed == [(n, obj["error"]) for (n, _), obj in zip(lines, objects)
                          if "error" in obj]


def test_corpus_output_matches_golden():
    name = "translate_corpus.txt"
    assert corpus_transcript(*GOLDEN_RUNS[name]) == (GOLDEN / name).read_text(
        encoding="utf-8")


@pytest.mark.parametrize("name", ["translate_json_corpus.txt", "parse_corpus.txt",
                                  "parse_json_corpus.txt"])
def test_other_output_modes_match_golden(name):
    assert corpus_transcript(*GOLDEN_RUNS[name]) == (GOLDEN / name).read_text(
        encoding="utf-8")


@pytest.mark.parametrize("name", ["permutations_corpus.txt",
                                  "permutations_json_corpus.txt"])
def test_permutations_match_golden(name):
    assert corpus_transcript(*GOLDEN_RUNS[name]) == (GOLDEN / name).read_text(
        encoding="utf-8")


def test_module_entry_point():
    proc = run_process("translate", "-g", "chase", *CHASE_CANONICAL.split())
    assert proc.returncode == 0
    assert proc.stdout == "Tom chases Jerry.\n"


if __name__ == "__main__":
    for name, argv in GOLDEN_RUNS.items():
        (GOLDEN / name).write_text(corpus_transcript(*argv), encoding="utf-8")
