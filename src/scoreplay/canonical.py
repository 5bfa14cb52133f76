"""Domination and reversibility reductions, and canonical forms.

Both reductions are licensed by comparisons (>= / <=) that no bounded
tool can fully decide, so reduction runs in one of two modes:

* ``Mode.SOUND`` - only Proved comparisons trigger a reduction; every
  step then preserves equality outright.
* ``Mode.CONJECTURAL`` - comparisons the bounded search fails to refute
  also trigger; traces are flagged so results are never mistaken for
  proven ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from .core import GameTerm, NodePath, Side, _postorder, game
from .order import (
    Refuted,
    UniverseSpec,
    Unrefuted,
    Verdict,
    _sound_ge,
    greater_equal,
    less_equal,
)
from .sums import SumEvaluator

__all__ = [
    "Mode",
    "ReductionKind",
    "ReductionStep",
    "ReductionTrace",
    "dominated_options",
    "reversible_options",
    "reduce_step",
    "canonicalize",
    "is_canonical",
]


class Mode(Enum):
    SOUND = "sound"
    CONJECTURAL = "conjectural"


class ReductionKind(Enum):
    DOMINATION = "domination"
    REVERSIBILITY = "reversibility"


@dataclass(frozen=True)
class ReductionStep:
    """One reduction: what was removed or bypassed, and on whose authority.

    For a domination, ``removed`` is the dominated option and ``witness``
    the dominating sibling.  For a reversibility, ``removed`` is the
    reversible option and ``witness`` the opponent's response it reverses
    through (whose replacement options take its place).  ``path``
    addresses the vertex in the term as it stood when the step applied.
    """

    kind: ReductionKind
    side: Side
    removed: GameTerm
    witness: GameTerm
    justification: Verdict
    path: NodePath = ()

    @property
    def conjectural(self) -> bool:
        return isinstance(self.justification, Unrefuted)


@dataclass
class ReductionTrace:
    steps: list[ReductionStep] = field(default_factory=list)

    @property
    def conjectural(self) -> bool:
        return any(s.conjectural for s in self.steps)


def _as_good(
    a: GameTerm,
    b: GameTerm,
    side: Side,
    spec: UniverseSpec,
    mode: Mode,
    ev: SumEvaluator,
) -> Optional[Verdict]:
    """The verdict that a is at least as good as b for ``side``, or None.

    Left prefers larger games (a >= b) and Right smaller ones (a <= b).
    SOUND mode accepts a Proved verdict only; CONJECTURAL mode also
    accepts an Unrefuted one.
    """
    if mode is Mode.SOUND:
        return _sound_ge(a, b) if side is Side.LEFT else _sound_ge(b, a)
    v = (greater_equal if side is Side.LEFT else less_equal)(a, b, spec, ev)
    return None if isinstance(v, Refuted) else v


def dominated_options(
    g: GameTerm,
    spec: UniverseSpec,
    mode: Mode = Mode.SOUND,
    evaluator: Optional[SumEvaluator] = None,
) -> list[tuple[Side, GameTerm, GameTerm, Verdict]]:
    """All (side, dominated, dominating, verdict) at the root of g.

    A Left option is dominated by a sibling >= it; a Right option by a
    sibling <= it.  Mutually equivalent siblings dominate each other, so
    both ordered pairs appear.
    """
    ev = evaluator or SumEvaluator()
    out: list[tuple[Side, GameTerm, GameTerm, Verdict]] = []
    for side, options in ((Side.LEFT, g.left), (Side.RIGHT, g.right)):
        for better in options:
            for worse in options:
                if better is worse:
                    continue
                v = _as_good(better, worse, side, spec, mode, ev)
                if v is not None:
                    out.append((side, worse, better, v))
    return out


def reversible_options(
    g: GameTerm,
    spec: UniverseSpec,
    mode: Mode = Mode.SOUND,
    evaluator: Optional[SumEvaluator] = None,
) -> list[tuple[Side, GameTerm, GameTerm, Verdict]]:
    """All (side, option, response witness, verdict) at the root of g.

    A Left option A is reversible when some Right option of A is <= g,
    that is, at least as good as g for Right; Right options mirror this.
    The minimal qualifying response is reported.  Responses with no
    replacement options to offer are skipped: bypassing through them
    would delete A outright, which the reversibility theorem does not
    license.
    """
    ev = evaluator or SumEvaluator()
    out: list[tuple[Side, GameTerm, GameTerm, Verdict]] = []
    for side, options in ((Side.LEFT, g.left), (Side.RIGHT, g.right)):
        left = side is Side.LEFT
        for a in options:
            for response in a.right if left else a.left:
                if not (response.left if left else response.right):
                    continue
                v = _as_good(response, g, side.opposite(), spec, mode, ev)
                if v is not None:
                    out.append((side, a, response, v))
                    break
    return out


def _candidates(
    g: GameTerm,
    spec: UniverseSpec,
    mode: Mode,
    ev: SumEvaluator,
) -> list[ReductionStep]:
    """Every root reduction of g: dominations before reversibilities, each
    Left before Right.  Options are stored in term order, so dominations
    come in term order of the dominating option, then the dominated one,
    and reversibilities in term order of the option, one response each.
    """
    return [
        ReductionStep(ReductionKind.DOMINATION, side, worse, better, v)
        for side, worse, better, v in dominated_options(g, spec, mode, ev)
    ] + [
        ReductionStep(ReductionKind.REVERSIBILITY, side, option, response, v)
        for side, option, response, v in reversible_options(g, spec, mode, ev)
    ]


def _apply(g: GameTerm, step: ReductionStep) -> GameTerm:
    left = step.side is Side.LEFT
    kept = tuple(o for o in (g.left if left else g.right) if o is not step.removed)
    if step.kind is ReductionKind.REVERSIBILITY:
        kept += step.witness.left if left else step.witness.right
    return game(kept, g.score, g.right) if left else game(g.left, g.score, kept)


def reduce_step(
    g: GameTerm,
    spec: UniverseSpec,
    mode: Mode = Mode.SOUND,
    rng: Optional[random.Random] = None,
    evaluator: Optional[SumEvaluator] = None,
) -> Optional[tuple[GameTerm, ReductionStep]]:
    """Apply one root-level reduction, or None when g is reduced.

    The default choice is deterministic: dominations before
    reversibilities, Left before Right, then by term order of the kept
    option; an rng picks among all applicable reductions instead, for
    confluence experiments.
    """
    ev = evaluator or SumEvaluator()
    cands = _candidates(g, spec, mode, ev)
    if not cands:
        return None
    step = cands[rng.randrange(len(cands))] if rng else cands[0]
    return _apply(g, step), step


def canonicalize(
    g: GameTerm,
    spec: UniverseSpec,
    mode: Mode = Mode.SOUND,
    order_seed: Optional[int] = None,
    evaluator: Optional[SumEvaluator] = None,
) -> tuple[GameTerm, ReductionTrace]:
    """Reduce g bottom-up to a form with no dominated or reversible options.

    Options are canonicalized first, then root reductions run to a fixed
    point; every step strictly shrinks the tree, so this terminates.
    ``order_seed`` randomizes the choice among applicable reductions
    (None keeps the deterministic default).  Step paths refer to option
    positions in the term each subterm had when its reductions ran.
    Tree positions are walked from an explicit stack, Left options then
    Right, each finished before its parent reduces, so depth costs no
    Python recursion.
    """
    ev = evaluator or SumEvaluator()
    rng = random.Random(order_seed) if order_seed is not None else None
    trace = ReductionTrace()
    # (position's term, its path, the canonical forms of its options so far)
    stack: list[tuple[GameTerm, NodePath, list[GameTerm]]] = [(g, (), [])]
    while True:
        t, path, done = stack[-1]
        n, nl = len(done), len(t.left)
        if n < nl:
            stack.append((t.left[n], path + ((Side.LEFT, n),), []))
            continue
        if n < nl + len(t.right):
            stack.append((t.right[n - nl], path + ((Side.RIGHT, n - nl),), []))
            continue
        stack.pop()
        node = game(done[:nl], t.score, done[nl:])
        while True:
            hit = reduce_step(node, spec, mode, rng, ev)
            if hit is None:
                break
            node, step = hit
            trace.steps.append(replace(step, path=path))
        if not stack:
            return node, trace
        stack[-1][2].append(node)


def is_canonical(
    g: GameTerm,
    spec: UniverseSpec,
    mode: Mode = Mode.SOUND,
    evaluator: Optional[SumEvaluator] = None,
) -> bool:
    """True iff no option anywhere in g is dominated or reversible.

    Each distinct subterm is checked once, from ``_postorder``.
    """
    ev = evaluator or SumEvaluator()
    return not any(
        dominated_options(t, spec, mode, ev) or reversible_options(t, spec, mode, ev)
        for t in _postorder(g, ())
    )
