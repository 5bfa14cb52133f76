"""Long-rule disjunctive sum, identity machinery and theorem templates.

Under the long rule the composite game ends only when the player to move
has no option in any component, so the sum recursion carries whole
components along: a move in G+H is a move in exactly one of them.
"""

from __future__ import annotations

from typing import Container, Iterator

from .core import (
    GameTerm,
    Score,
    game,
    identical,
    leaf,
    max_abs_score,
    negate,
)
from .score import Outcome, outcome_from_scores

__all__ = [
    "zero",
    "add",
    "is_numeric",
    "distinguishing_context",
    "outcome_template",
    "SumEvaluator",
    "final_scores_of_sum",
    "clear_sum_caches",
]


def zero() -> GameTerm:
    """The identity game {.|0|.}."""
    return leaf(0)


_add_cache: dict[tuple[GameTerm, GameTerm], GameTerm] = {}


def add(g: GameTerm, h: GameTerm) -> GameTerm:
    """The fully expanded long-rule disjunctive sum of g and h.

    Root scores add; each side's options are the moves in one component
    with the other carried along.  The result is a plain term, so every
    other operation applies to it uniformly.  Component pairs are summed
    in the order of ``_pair_postorder``, the walk ``SumEvaluator`` shares,
    so depth costs no Python recursion.  The cache holds one entry per
    ordered pair; interning makes add(h, g) the very term add(g, h) is,
    so a caller that needs only the term sums a pair one way round.
    """
    cache = _add_cache
    res = cache.get((g, h))
    if res is not None:
        return res
    for a, b in _pair_postorder(g, h, cache):
        cache[a, b] = game(
            [cache[o, b] for o in a.left] + [cache[a, o] for o in b.left],
            a.score + b.score,
            [cache[o, b] for o in a.right] + [cache[a, o] for o in b.right],
        )
    return cache[g, h]


def _pair_postorder(
    g: GameTerm, h: GameTerm, done: Container[tuple[GameTerm, GameTerm]]
) -> Iterator[tuple[GameTerm, GameTerm]]:
    """Component pairs of g+h not in ``done``, each after its option pairs.

    The pair twin of ``core._postorder``: the option pairs of (a, b) are
    (o, b) for each option o of a and (a, o) for each option o of b.  The
    caller stores each pair's value in ``done`` before it asks for the
    next pair, so a pair reached twice is yielded once.  Walks an explicit
    stack, so depth costs no Python recursion.
    """
    # (a, b, ready): ready once the pairs of a's and b's options are done
    stack = [(g, h, False)]
    while stack:
        a, b, ready = stack.pop()
        if not ready:
            if (a, b) in done:
                continue
            pending = [
                (o, b, False) for o in a.left + a.right if (o, b) not in done
            ] + [
                (a, o, False) for o in b.left + b.right if (a, o) not in done
            ]
            if pending:
                stack.append((a, b, True))
                stack += pending
                continue
        yield a, b


def is_numeric(g: GameTerm) -> bool:
    """True for {.|n|.}: the only invertible games under the long rule."""
    return not g.left and not g.right


def distinguishing_context(g: GameTerm) -> GameTerm:
    """A context X with outcome(g + X) != outcome(X), for any g not 0.

    Nonzero leaves are distinguished by the empty context.  If Left has a
    move, X = {.|1|b} works with b = -(M+1) for M the largest |score| in
    g: Left moving first on g+X must move in g, Right then cuts X to b,
    and from there every reachable score is negative, while X alone is a
    first-player win.  The Right-sided case is the mirror image.
    """
    if identical(g, zero()):
        raise ValueError("the zero game is indistinguishable from itself")
    if is_numeric(g):
        return zero()
    if g.left:
        bound = max_abs_score(g) + 1
        return game((), 1, (leaf(-bound),))
    return negate(distinguishing_context(negate(g)))


def outcome_template(
    a: Score, b: Score, c: Score, d: Score,
    e: Score, f: Score, g: Score, h: Score,
) -> tuple[GameTerm, GameTerm]:
    """The template pair realizing every (outcome, outcome, outcome) triple.

    Returns G = {{{d|c|e}|b|.}|a|.} and H = {.|f|{.|g|h}}.  Sweeping the
    eight scores over a small grid realizes all 125 combinations of
    outcome(G), outcome(H), outcome(G+H).
    """
    inner = game([leaf(d)], c, [leaf(e)])
    G = game([game([inner], b, [])], a, [])
    H = game([], f, [game([], g, [leaf(h)])])
    return G, H


class SumEvaluator:
    """Componentwise final scores of pairwise sums, without expansion.

    Evaluates SL/SR of g+h from those of its component pairs, in the
    order of ``_pair_postorder``, the walk ``add`` shares, so sum terms
    are never materialized and depth costs no Python recursion.  The
    memo holds one entry per ordered pair evaluated, keyed on term
    identity; results equal those of evaluating add(g, h).  Moves in h
    come before moves in g, as in a score row (``order._extend_rows``),
    so a tie between an int and an equal Fraction keeps the same one.

    An evaluator is also the memory scope of order searches, and what
    they keep here lives as long as it does.  Each context table (see
    ``order.ContextTable``) gets one scope, holding the sign masks that
    verdicts and ``find_*`` searches build for classes outside the
    table, and the whole score rows that ``duality_check`` computes.
    """

    def __init__(self) -> None:
        self._memo: dict[tuple[GameTerm, GameTerm], tuple[Score, Score]] = {}
        self._rows: dict[object, dict] = {}

    def context_rows(self, table: object) -> dict:
        """What order searches keep for one context table: sign masks
        keyed by int class id, and (SL, SR) score rows keyed by game.
        The keys never collide, as a game compares equal only to itself."""
        return self._rows.setdefault(table, {})

    def final_scores(self, g: GameTerm, h: GameTerm) -> tuple[Score, Score]:
        memo = self._memo
        val = memo.get((g, h))
        if val is not None:
            return val
        for a, b in _pair_postorder(g, h, memo):
            if a.left or b.left:
                sl = max(
                    [memo[a, o][1] for o in b.left]
                    + [memo[o, b][1] for o in a.left]
                )
            else:
                sl = a.score + b.score
            if a.right or b.right:
                sr = min(
                    [memo[a, o][0] for o in b.right]
                    + [memo[o, b][0] for o in a.right]
                )
            else:
                sr = a.score + b.score
            memo[a, b] = (sl, sr)
        return memo[g, h]

    def outcome(self, g: GameTerm, h: GameTerm) -> Outcome:
        return outcome_from_scores(*self.final_scores(g, h))


def final_scores_of_sum(g: GameTerm, h: GameTerm) -> tuple[Score, Score]:
    """One-shot componentwise (SL, SR) of g+h with a throwaway memo."""
    return SumEvaluator().final_scores(g, h)


def clear_sum_caches() -> None:
    _add_cache.clear()
