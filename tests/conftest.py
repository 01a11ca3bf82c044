"""Shared helpers for the test suite."""

from pathlib import Path

from hypothesis import strategies as st

from chrkit.syntax import parse_program

FIXTURES = Path(__file__).parent / "fixtures"


def load(name):
    """Parse tests/fixtures/<name>.chr."""
    return parse_program((FIXTURES / f"{name}.chr").read_text())


def rule_named(program, name):
    for i, r in enumerate(program.rules):
        if r.name == name:
            return i, r
    raise KeyError(name)


MUTATIONS = "(),.=|@\\#;{}%aXz1 \n<=>"


@st.composite
def mutated(draw, text):
    """The text with up to four characters inserted, deleted or replaced by
    characters the grammar gives a meaning to."""
    chars = list(text)
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        if op == "insert" or not chars:
            chars.insert(pos, draw(st.sampled_from(MUTATIONS)))
        elif op == "delete":
            del chars[min(pos, len(chars) - 1)]
        else:
            chars[min(pos, len(chars) - 1)] = draw(st.sampled_from(MUTATIONS))
    return "".join(chars)
