"""Random edits of the shipped grammar documents.

An edit deletes a key or a list item, duplicates a list item, or replaces a
value with one of another JSON type, anywhere in a shipped grammar's
document. Every edited document must load or be refused with a
GrammarError; ``stagmt check`` must judge it with status 0 or 1 and no
traceback; and where it loads, corpus lines must translate or fail with a
StagError.

The default profile keeps this quick; ``--hypothesis-profile=thorough``
(see ``conftest.py``) tries many more edits.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, strategies as st

from support import corpus

from stagmt.cli import main
from stagmt.errors import GrammarError, StagError
from stagmt.grammar_io import builtin_grammar_names, builtin_grammar_path, parse_grammar
from stagmt.pipeline import translate_line

TEXTS = {name: builtin_grammar_path(name).read_text(encoding="utf-8")
         for name in builtin_grammar_names()}
# one value of each JSON type
VALUES = (None, True, 7, "x", [], {})


def places(doc) -> list:
    """(container, key) for every value inside a JSON document."""
    found, stack = [], [doc]
    while stack:
        obj = stack.pop()
        if isinstance(obj, dict):
            keys = obj
        elif isinstance(obj, list):
            keys = range(len(obj))
        else:
            continue
        for key in keys:
            found.append((obj, key))
            stack.append(obj[key])
    return found


@st.composite
def edited_docs(draw, replace=True):
    """A shipped grammar's name and its document after one to three edits;
    without replace, the edits only delete and duplicate."""
    name = draw(st.sampled_from(sorted(TEXTS)))
    doc = json.loads(TEXTS[name])
    for _ in range(draw(st.integers(1, 3))):
        found = places(doc)
        obj, key = found[draw(st.sampled_from(range(len(found))))]
        edits = (["delete"] + (["duplicate"] if isinstance(obj, list) else [])
                 + (["replace"] if replace else []))
        edit = draw(st.sampled_from(edits))
        if edit == "delete":
            del obj[key]
        elif edit == "duplicate":
            obj.insert(key, copy.deepcopy(obj[key]))
        else:
            obj[key] = draw(st.sampled_from(
                [value for value in VALUES if type(value) is not type(obj[key])]))
    return name, doc


def load(doc):
    """The grammar the document describes, or None when the loader refuses
    it with a GrammarError."""
    try:
        return parse_grammar(json.dumps(doc))
    except GrammarError:
        return None


@pytest.fixture(scope="module")
def grammar_file(tmp_path_factory):
    return tmp_path_factory.mktemp("edits") / "edited.grammar"


@given(edited=edited_docs())
def test_edited_grammar_loads_or_is_refused(grammar_file, edited):
    # check reports a GrammarError and lets any other exception through, so
    # an edit the loader fails on other than with a GrammarError fails this
    grammar_file.write_text(json.dumps(edited[1]), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["check", "-g", str(grammar_file)])
    assert status in (0, 1)
    assert "Traceback" not in out.getvalue() + err.getvalue()


# a value of another type never loads, as the loader checks every type
@given(st.data())
def test_edited_grammar_translates_or_reports(data):
    name, doc = data.draw(edited_docs(replace=False))
    grammar = load(doc)
    if grammar is None:
        return
    for line in data.draw(st.lists(st.sampled_from(corpus(name)),
                                   min_size=6, max_size=6)):
        try:
            translate_line(line, grammar)
        except StagError:
            pass
