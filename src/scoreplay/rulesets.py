"""Scoring Toads-and-Frogs compiled to game terms.

Toads (Left's pieces) move rightward, Frogs (Right's) leftward, on a
one-dimensional strip.  A piece slides onto an adjacent blank, or jumps a
single adjacent opposing piece onto the blank behind it; the jumped piece
stays put.  Each jump scores one point for the jumper, tallied into a
single running Left-minus-Right score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import GameTerm, Score, Side, game
from .notation import MAX_NESTING

__all__ = ["TfPosition", "TfError", "tf_parse", "tf_moves", "tf_to_game"]

_ALPHABET = frozenset("TFB")


class TfError(ValueError):
    """Not a Toads-and-Frogs position."""


@dataclass(frozen=True)
class TfPosition:
    cells: tuple[str, ...]
    score: Score = 0

    def text(self) -> str:
        return "".join(self.cells)


def tf_parse(text: str) -> TfPosition:
    """Parse a strip like 'TBF' (T toad, F frog, B blank); score starts 0.

    Every move advances one piece one or two cells, and a toad never
    passes the right end nor a frog the left, so no play is longer than
    the cells right of each toad plus the cells left of each frog.  That
    bounds the depth of the compiled term; a strip whose bound exceeds
    ``notation.MAX_NESTING`` is refused, as deeper brace input is.
    """
    if not text:
        raise TfError("empty position")
    n = len(text)
    moves = 0
    for i, ch in enumerate(text):
        if ch not in _ALPHABET:
            raise TfError(f"illegal cell {ch!r} at index {i} (use T, F, B)")
        if ch == "T":
            moves += n - 1 - i
        elif ch == "F":
            moves += i
    if moves > MAX_NESTING:
        raise TfError(
            f"a play may last {moves} moves, more than the nesting "
            f"limit of {MAX_NESTING}"
        )
    return TfPosition(tuple(text), 0)


def tf_moves(p: TfPosition, player: Side) -> list[tuple[TfPosition, Score]]:
    """All moves for one player as (new position, score delta) pairs.

    Left slides a toad right (delta 0) or jumps one adjacent frog (+1);
    Right mirrors leftward with delta -1.
    """
    piece, foe, step = ("T", "F", 1) if player is Side.LEFT else ("F", "T", -1)
    cells = p.cells
    n = len(cells)
    out: list[tuple[TfPosition, Score]] = []
    for i, c in enumerate(cells):
        if c != piece:
            continue
        # Slide onto the next cell, or jump a foe there onto the one beyond.
        for dest, delta in ((i + step, 0), (i + 2 * step, step)):
            if not 0 <= dest < n or cells[dest] != "B":
                continue
            if delta and cells[i + step] != foe:
                continue
            moved = list(cells)
            moved[i], moved[dest] = "B", piece
            out.append((TfPosition(tuple(moved), p.score + delta), delta))
    return out


_tf_cache: dict[tuple[tuple[str, ...], Score], GameTerm] = {}


def _tf_terms(p: TfPosition) -> Iterator[GameTerm]:
    """Compile p, yielding each term it builds after those of its options.

    A position compiled before yields nothing.  Recursion is as deep as
    the longest play, which ``tf_parse`` bounds.
    """
    key = (p.cells, p.score)
    if key in _tf_cache:
        return
    left, right = (
        [q for q, _ in tf_moves(p, side)] for side in (Side.LEFT, Side.RIGHT)
    )
    for q in left + right:
        yield from _tf_terms(q)
    term = _tf_cache[key] = game(
        [_tf_cache[q.cells, q.score] for q in left],
        p.score,
        [_tf_cache[q.cells, q.score] for q in right],
    )
    yield term


def tf_to_game(p: TfPosition) -> GameTerm:
    """Expand a position into the full game term, scores accumulated."""
    for _ in _tf_terms(p):
        pass
    return _tf_cache[p.cells, p.score]
