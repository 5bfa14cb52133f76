"""Domination and reversibility reductions, and canonical forms.

Both reductions are licensed by comparisons (>= / <=) that no bounded
tool can fully decide, so reduction runs in one of two modes:

* ``Mode.SOUND`` - only Proved comparisons trigger a reduction; every
  step then preserves equality outright.
* ``Mode.CONJECTURAL`` - comparisons the bounded search fails to refute
  also trigger; traces are flagged so results are never mistaken for
  proven ones.

The ``evaluator`` parameters are not read: the order searches keep
what they build in their context tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .core import GameTerm, NodePath, Side, _cache, _postorder, game
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


@dataclass(frozen=True, slots=True)
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
) -> Optional[Verdict]:
    """The verdict that a is at least as good as b for ``side``, or None.

    Left prefers larger games (a >= b) and Right smaller ones (a <= b).
    SOUND mode accepts a Proved verdict only; CONJECTURAL mode also
    accepts an Unrefuted one.
    """
    if mode is Mode.SOUND:
        return _sound_ge(a, b) if side is Side.LEFT else _sound_ge(b, a)
    v = (greater_equal if side is Side.LEFT else less_equal)(a, b, spec)
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
    out: list[tuple[Side, GameTerm, GameTerm, Verdict]] = []
    for side, options in ((Side.LEFT, g.left), (Side.RIGHT, g.right)):
        for better in options:
            for worse in options:
                if better is worse:
                    continue
                v = _as_good(better, worse, side, spec, mode)
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
    out: list[tuple[Side, GameTerm, GameTerm, Verdict]] = []
    for side, options in ((Side.LEFT, g.left), (Side.RIGHT, g.right)):
        left = side is Side.LEFT
        for a in options:
            for response in a.right if left else a.left:
                if not (response.left if left else response.right):
                    continue
                v = _as_good(response, g, side.opposite(), spec, mode)
                if v is not None:
                    out.append((side, a, response, v))
                    break
    return out


def _candidates(
    g: GameTerm, spec: UniverseSpec, mode: Mode
) -> list[ReductionStep]:
    """Every root reduction of g: dominations before reversibilities, each
    Left before Right.  Options are stored in term order, so dominations
    come in term order of the dominating option, then the dominated one,
    and reversibilities in term order of the option, one response each.
    """
    return [
        ReductionStep(ReductionKind.DOMINATION, side, worse, better, v)
        for side, worse, better, v in dominated_options(g, spec, mode)
    ] + [
        ReductionStep(ReductionKind.REVERSIBILITY, side, option, response, v)
        for side, option, response, v in reversible_options(g, spec, mode)
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
    cands = _candidates(g, spec, mode)
    if not cands:
        return None
    step = cands[rng.randrange(len(cands))] if rng else cands[0]
    return _apply(g, step), step


#: SOUND forms of the terms with no step below their root: a step-free
#: term maps to itself, any other to its unseeded form followed by its
#: root steps (path ()).  SOUND verdicts read only the terms
#: (``_sound_ge``), so an entry holds for every spec.
_sound_forms: dict[GameTerm, object] = _cache()


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

    A subterm with no step below its root is reduced once and
    remembered, SOUND ones in ``_sound_forms`` across calls, CONJECTURAL
    ones (whose verdicts depend on ``spec``) for this call, and the walk
    never enters a remembered one.  A seeded call draws only where a
    position has a candidate, so it redraws a remembered root's steps,
    skips a step-free subterm, and remembers only those.  A subterm with
    steps below is walked at each of its positions, which the trace lists
    one by one anyway.  ``evaluator`` is not read.
    """
    rng = random.Random(order_seed) if order_seed is not None else None
    memo = _sound_forms if mode is Mode.SOUND else {}
    trace = ReductionTrace()
    steps = trace.steps
    # (position's term, its path, the canonical forms of its options so
    # far, its memo entry)
    stack: list[tuple[GameTerm, NodePath, list[GameTerm], object]] = [
        (g, (), [], memo.get(g))
    ]
    while True:
        t, path, done, entry = stack[-1]
        n, nl = len(done), len(t.left)
        if entry is None and n < nl + len(t.right):
            o = t.left[n] if n < nl else t.right[n - nl]
            sub = memo.get(o)
            if sub is o:
                done.append(o)
                continue
            at = (Side.LEFT, n) if n < nl else (Side.RIGHT, n - nl)
            stack.append((o, path + (at,), [], sub))
            continue
        stack.pop()
        if entry is t:
            node = t
        elif entry is not None and rng is None:
            node = entry[0]
            steps += [_at(s, path) for s in entry[1:]]
        else:
            # t if remembered (no step below) or, by interning, unchanged
            node = t if entry else game(done[:nl], t.score, done[nl:])
            unchanged = node is t
            root = []
            while True:
                hit = reduce_step(node, spec, mode, rng)
                if hit is None:
                    break
                node, step = hit
                root.append(step)
            steps += [_at(s, path) for s in root]
            if unchanged and (rng is None or not root):
                memo[t] = (node, *root) if root else t
        if not stack:
            return node, trace
        stack[-1][2].append(node)


def _at(step: ReductionStep, path: NodePath) -> ReductionStep:
    """A root step (path ()) re-addressed to the position at path."""
    if not path:
        return step
    return ReductionStep(
        step.kind, step.side, step.removed, step.witness, step.justification, path
    )


def is_canonical(
    g: GameTerm,
    spec: UniverseSpec,
    mode: Mode = Mode.SOUND,
    evaluator: Optional[SumEvaluator] = None,
) -> bool:
    """True iff no option anywhere in g is dominated or reversible.

    That is, iff ``canonicalize`` applies no step: a position with a
    candidate would reduce.  Each distinct subterm is tried once, and the
    walk stops at the first candidate.
    """
    return not any(_candidates(t, spec, mode) for t in _postorder(g, ()))
