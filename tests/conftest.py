import sys
from pathlib import Path

import pytest
from hypothesis import settings

from stagmt.grammar_io import load_grammar

sys.path.insert(0, str(Path(__file__).parent))

# More examples for a run of its own, e.g. the generated-grammar test:
# python3 -m pytest tests/test_generated.py --hypothesis-profile=thorough
settings.register_profile("thorough", max_examples=2000, deadline=None)


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance verdicts where capture cannot swallow them."""
    import support

    if support.ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in support.ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def g_chase():
    return load_grammar("chase")


@pytest.fixture(scope="session")
def g_ditransitive():
    return load_grammar("ditransitive")


@pytest.fixture(scope="session")
def g_embedded():
    return load_grammar("embedded")
