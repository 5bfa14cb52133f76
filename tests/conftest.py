import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from fractions import Fraction

from scoreplay import UniverseSpec, game, leaf, universe

# Universes used across the suite.  The width-2 default below mirrors the
# engine's DEFAULT_UNIVERSE; the tiny/small ones keep exhaustive
# pair-and-context sweeps affordable.
TINY = UniverseSpec(1, 1, (-1, 0, 1))          # 48 games
SMALL = UniverseSpec(1, 2, (-1, 0, 1))         # 147 games
DEFAULT = UniverseSpec(1, 2, (-2, -1, 0, 1, 2))  # 1280 games
DEEP = UniverseSpec(2, 1, (-1, 0, 1))          # 7203 games


@pytest.fixture(scope="session")
def tiny_universe():
    return universe(TINY)


@pytest.fixture(scope="session")
def small_universe():
    return universe(SMALL)


@pytest.fixture(scope="session")
def default_universe():
    return universe(DEFAULT)


@pytest.fixture(scope="session")
def deep_universe():
    return universe(DEEP)


_SCORES = st.sampled_from(
    [-2, -1, 0, 1, 2, 3, Fraction(1, 2), Fraction(-3, 2)]
)


def terms(max_depth: int = 2, max_width: int = 2):
    """Hypothesis strategy for small game terms."""
    base = st.builds(leaf, _SCORES)
    return st.recursive(
        base,
        lambda children: st.builds(
            game,
            st.lists(children, max_size=max_width),
            _SCORES,
            st.lists(children, max_size=max_width),
        ),
        max_leaves=2 ** max_depth * max_width,
    )


#: Characters of bracket notation, plus a few that no token contains.
NOTATION_CHARS = "{}|,.0123456789+-/ " + "x;\t\né"


@st.composite
def near_notation(draw):
    """Printed terms with up to three characters inserted, deleted or
    replaced: mostly almost-valid text, which reaches every parse error."""
    from scoreplay import print_game

    style = draw(st.sampled_from(["compact", "full"]))
    text = print_game(draw(terms()), style=style)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(NOTATION_CHARS))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            text = text[:i] + c + text[i:]
        else:
            text = text[:i] + (c if op == "replace" else "") + text[i + 1:]
    return text


#: Whole tokens, every number form among them, for token-level fuzzing.
NOTATION_TOKENS = [
    "{", "}", "|", ",", ".", " ", "0", "-1", "+2", "1/2", "1.5", "1.5/2",
    "3/0", "0.0/0", "x",
]


def notation_text():
    """Random strings over the notation's characters or tokens, or
    near-valid text."""
    return st.one_of(
        st.text(alphabet=NOTATION_CHARS, max_size=40),
        st.lists(st.sampled_from(NOTATION_TOKENS), max_size=24).map("".join),
        near_notation(),
    )


# ---------------------------------------------------------------------------
# acceptance reporting: one pass/fail line per criterion
# ---------------------------------------------------------------------------

def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            if getattr(rep, "when", "call") != "call":
                continue
            nodeid = rep.nodeid
            if "test_acceptance.py" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            verdict = "PASS" if status == "passed" else "FAIL"
            lines[name] = f"{name}: {verdict}"
    if lines:
        terminalreporter.section("acceptance criteria")
        for name in sorted(lines):
            terminalreporter.write_line(lines[name])
