"""Final-score minimax evaluation and outcome classification."""

from __future__ import annotations

from enum import Enum

from .core import GameTerm, Score

__all__ = [
    "Outcome",
    "OutcomeSet",
    "BASE_LEFT_SETS",
    "BASE_RIGHT_SETS",
    "final_scores",
    "left_final_score",
    "right_final_score",
    "set_holds",
    "base_sets",
    "outcome_from_scores",
    "outcome",
    "membership",
]


class Outcome(Enum):
    """The five outcome classes of a scoring game."""

    L = "L"  # Left does not lose either way, wins at least one way
    R = "R"  # mirror for Right
    N = "N"  # first (next) player wins
    P = "P"  # second (previous) player wins
    T = "T"  # tied regardless of who starts

    def conjugate(self) -> "Outcome":
        if self is Outcome.L:
            return Outcome.R
        if self is Outcome.R:
            return Outcome.L
        return self


class OutcomeSet(Enum):
    """Base sets by sign of a final score, plus their derived unions."""

    L_GT = "L>"
    L_EQ = "L="
    L_LT = "L<"
    R_GT = "R>"
    R_EQ = "R="
    R_LT = "R<"
    L_GE = "L>="
    L_LE = "L<="
    R_GE = "R>="
    R_LE = "R<="


BASE_LEFT_SETS = (OutcomeSet.L_GT, OutcomeSet.L_EQ, OutcomeSet.L_LT)
BASE_RIGHT_SETS = (OutcomeSet.R_GT, OutcomeSet.R_EQ, OutcomeSet.R_LT)

_SET_TESTS = {
    OutcomeSet.L_GT: lambda sl, sr: sl > 0,
    OutcomeSet.L_EQ: lambda sl, sr: sl == 0,
    OutcomeSet.L_LT: lambda sl, sr: sl < 0,
    OutcomeSet.R_GT: lambda sl, sr: sr > 0,
    OutcomeSet.R_EQ: lambda sl, sr: sr == 0,
    OutcomeSet.R_LT: lambda sl, sr: sr < 0,
    OutcomeSet.L_GE: lambda sl, sr: sl >= 0,
    OutcomeSet.L_LE: lambda sl, sr: sl <= 0,
    OutcomeSet.R_GE: lambda sl, sr: sr >= 0,
    OutcomeSet.R_LE: lambda sl, sr: sr <= 0,
}

#: Final scores live on the term (``GameTerm.sl`` and ``sr``), so this
#: stays empty; it is kept because perfbench/worker.py reads its size as
#: the per-layer count ``score.positions_evaluated``.
_finals: dict[GameTerm, tuple[Score, Score]] = {}


def final_scores(g: GameTerm) -> tuple[Score, Score]:
    """(Left final score, Right final score) under optimal alternating play.

    A player to move with no options ends the game at the current vertex
    score; otherwise Left picks the option maximizing the opponent's final
    score and Right the one minimizing it.  Computed once, when ``game()``
    interns the term.
    """
    return g.sl, g.sr


def left_final_score(g: GameTerm) -> Score:
    return g.sl


def right_final_score(g: GameTerm) -> Score:
    return g.sr


def set_holds(o: OutcomeSet, sl: Score, sr: Score) -> bool:
    """Membership of a game with final scores (sl, sr) in the set o."""
    return _SET_TESTS[o](sl, sr)


def base_sets(g: GameTerm) -> tuple[OutcomeSet, OutcomeSet]:
    """The unique (Left base set, Right base set) pair for g."""
    sl, sr = final_scores(g)
    lo = OutcomeSet.L_GT if sl > 0 else OutcomeSet.L_LT if sl < 0 else OutcomeSet.L_EQ
    ro = OutcomeSet.R_GT if sr > 0 else OutcomeSet.R_LT if sr < 0 else OutcomeSet.R_EQ
    return lo, ro


def outcome_from_scores(sl: Score, sr: Score) -> Outcome:
    if sl > 0:
        return Outcome.N if sr < 0 else Outcome.L
    if sl < 0:
        return Outcome.P if sr > 0 else Outcome.R
    return Outcome.L if sr > 0 else Outcome.R if sr < 0 else Outcome.T


def outcome(g: GameTerm) -> Outcome:
    """The unique outcome class of g."""
    return outcome_from_scores(*final_scores(g))


def membership(g: GameTerm, o: OutcomeSet) -> bool:
    return set_holds(o, *final_scores(g))
