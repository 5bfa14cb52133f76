"""Order and equality relations, decided soundly or refuted by search.

The relations =, >= and <= quantify over *all* context games X, which no
bounded tool can decide.  This module answers three-valued: Proved when a
sound rule applies, Refuted with a concrete (context, outcome set)
witness found in a finite enumerated universe, and otherwise Unrefuted
with the universe bounds that were searched.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Union

from .core import (
    GameTerm, Score, as_score, equivalent, game, leaf, render, _cache, _esig,
    _okey, _postorder, _score_key,
)
from .score import _SET_TESTS, OutcomeSet
from .sums import SumEvaluator, is_numeric

__all__ = [
    "UniverseSpec",
    "DEFAULT_UNIVERSE",
    "UNIVERSE_SIZE_LIMIT",
    "universe_size",
    "enumerate_universe",
    "universe",
    "ContextTable",
    "SoundRule",
    "Proved",
    "Refuted",
    "Unrefuted",
    "Verdict",
    "UP_SETS",
    "DOWN_SETS",
    "ge_refutation_at",
    "le_refutation_at",
    "find_ge_refutation",
    "find_le_refutation",
    "find_eq_refutation",
    "greater_equal",
    "less_equal",
    "equal",
    "duality_check",
]

#: Sets closed upward for Left: membership survives replacing H by a >= G.
UP_SETS = (OutcomeSet.L_GT, OutcomeSet.L_GE, OutcomeSet.R_GT, OutcomeSet.R_GE)
#: Their complements, used by <=.
DOWN_SETS = (OutcomeSet.L_LT, OutcomeSet.L_LE, OutcomeSet.R_LT, OutcomeSet.R_LE)

#: Enumerating a universe larger than this raises instead of thrashing.
UNIVERSE_SIZE_LIMIT = 2_000_000


@dataclass(frozen=True)
class UniverseSpec:
    """Bounds defining a finite context universe.

    Every game whose tree has depth <= max_depth, option sets of size
    <= max_width and all vertex scores drawn from ``scores``.
    """

    max_depth: int
    max_width: int
    scores: tuple[Score, ...]

    def __post_init__(self) -> None:
        if self.max_depth < 0 or self.max_width < 0:
            raise ValueError("universe bounds must be >= 0")
        if not self.scores:
            raise ValueError("universe score set must be non-empty")
        normalized = sorted(
            {as_score(s) for s in self.scores}, key=_score_key
        )
        object.__setattr__(self, "scores", tuple(normalized))

    def describe(self) -> str:
        scores = ",".join(str(s) for s in self.scores)
        return f"depth<={self.max_depth} width<={self.max_width} scores={{{scores}}}"


DEFAULT_UNIVERSE = UniverseSpec(1, 2, (-2, -1, 0, 1, 2))


def _level_sizes(spec: UniverseSpec) -> Iterator[int]:
    """The game counts of the universe's levels, depth 0 first.

    No option set holds more than the n games of the level below, so the
    binomial sum stops at min(width, n).  At width 0 every level is the
    leaves, so only depth 0 is yielded; from width 1 on each level is
    larger than the one below, so the last is the universe's size.
    """
    n = len(spec.scores)
    yield n
    for _ in range(spec.max_depth if spec.max_width else 0):
        sets = sum(comb(n, k) for k in range(min(spec.max_width, n) + 1))
        n = sets * sets * len(spec.scores)
        yield n


def universe_size(spec: UniverseSpec) -> int:
    """Closed-form count of the universe, without enumerating it."""
    for n in _level_sizes(spec):
        pass
    return n


def _too_large(spec: UniverseSpec) -> bool:
    """Whether the universe has more than UNIVERSE_SIZE_LIMIT games.

    It stops at the first level above the limit, so bounds far beyond it
    cost a few levels, not an exact count of millions of digits.
    """
    return any(n > UNIVERSE_SIZE_LIMIT for n in _level_sizes(spec))


#: Sign masks of one class over a table: SL > 0, SL >= 0, SR > 0 and
#: SR >= 0, the tests of UP_SETS in order (see ``_class_masks``).
_Masks = tuple[int, int, int, int]

#: The per-column scores ``ContextTable.signs`` compares: the root score
#: of a context with no Left option, or with no Right option; the best
#: number among its Left options (max), or among its Right options (min).
_END_L, _END_R, _NUM_L, _NUM_R = range(4)

#: One side of one level of ``ContextTable.levels``: the level's ids with
#: an option on that side, a getter of those columns of a row, and one
#: getter per option index (see ``_level_side``).
_Side = tuple[tuple[int, ...], Callable, tuple[Callable, ...]]


class ContextTable:
    """Dense, children-first index of the downward closure of some
    contexts, with everything an order search reads off it.

    ``games[i]`` is the term with id ``i``; every option of it has a
    smaller id, and its final scores played alone are ``games[i].sl``
    and ``.sr``.  ``scores[i]`` is its root score, and ``left[i]`` and
    ``right[i]`` its options as id tuples.  ``order[p]`` is the id that
    stands for the caller's p-th context, and ``first_of`` maps each
    context's ``_esig`` class id to the first position p of its class,
    in increasing order of p.  The id of a first member holds that very
    context: ``games[order[p]]`` is the p-th context for each p in
    ``first_of.values()``, and ``first_bits`` has the bits of those
    ids.  Their ids increase with their position: a first member already
    built as a subterm of an earlier context gets one more id, after
    that context's, so the lowest id that refutes is the first refuting
    context in the caller's order.

    The rest is what ``_class_masks`` reads, computed once here.
    ``full`` has one bit per id and ``digits`` formats a mask as one
    digit per id.  ``values[kind]`` maps each score v to the mask of the
    columns whose score of that kind is v, and ``always[kind]`` holds the
    columns a threshold of that kind leaves set whatever the shift: for
    _END_R the contexts that have a Right option, for _NUM_R those with
    no number among their Right options (a min over no terms).  ``masks``
    caches the sign masks of the table's own classes by class id, so it
    never holds more than len(table) entries, and ``other`` those of any
    other class, which ``_class_masks`` empties before a build once it
    holds len(table) of them.

    ``levels`` is the column schedule that ``_extend_rows`` and
    ``_class_masks`` both fill by.  An id's height is its game's depth:
    0 for a number and otherwise 1 + the highest height of its options,
    so every option of a column has a lower height.
    ``levels[h - 1]`` is a (Left, Right) pair for height h: each side
    holds the ids of that height with an option on that side (see
    ``_level_side``), or is None where none has one.  A table of numbers
    only has no levels, and the columns of height 1 have only numbers
    for options.

    Equivalent contexts share the id of the first of them, and the table
    is built over those first members and their subterms only.  This
    loses nothing: if X and X' are equivalent then g+X and g+X' have the
    same final scores for every g.  Their trees are isomorphic, and so
    are the trees of g+X and g+X'.  Under the long rule a play of g+X
    ends only where the mover has no move in either component, so X's
    component sits at a vertex missing an option, a termination vertex,
    whose score the isomorphic vertex of X' shares; every end of play
    has the same score in both sums, and by induction so does every
    minimax value.  A universe is sorted by term order, so none of its
    first members is a subterm of an earlier context, and in the
    universes tested the subterms of first members are first members
    too; so the table has one id per class:
    380 ids for the 1,280 games of ``DEFAULT_UNIVERSE``, 7,205 for the
    163,805 of depth 2, width 1.
    """

    __slots__ = (
        "order", "first_of", "first_bits", "games", "scores", "left", "right",
        "full", "digits", "values", "always", "levels", "masks", "other",
    )

    def __init__(self, contexts: Iterable[GameTerm]) -> None:
        contexts = tuple(contexts)
        keys = [_esig(x) for x in contexts]
        first: dict[int, int] = {}
        for p, k in enumerate(keys):
            first.setdefault(k, p)
        index: dict[GameTerm, int] = {}
        self.games: list[GameTerm] = []
        self.scores: list[Score] = []
        self.left: list[tuple[int, ...]] = []
        self.right: list[tuple[int, ...]] = []
        ids: dict[int, int] = {}
        for k, p in first.items():
            x = contexts[p]
            if x in index:
                self._append(x, index)
            for t in _postorder(x, index):
                index[t] = len(self.games)
                self._append(t, index)
            ids[k] = len(self.games) - 1
        self.order = [ids[k] for k in keys]
        self.first_of = first
        self.first_bits = sum(1 << i for i in ids.values())
        n = len(self.games)
        self.full = (1 << n) - 1
        self.digits = f"0{n}b"
        self.values: tuple[dict[Score, int], ...] = ({}, {}, {}, {})
        self.always = [0, 0, 0, 0]
        self.masks: dict[int, _Masks] = {}
        self.other: dict[int, _Masks] = {}
        scores = self.scores
        number = [not l and not r for l, r in zip(self.left, self.right)]
        for i, (xl, xr) in enumerate(zip(self.left, self.right)):
            bit = 1 << i
            num_l = [scores[j] for j in xl if number[j]]
            num_r = [scores[j] for j in xr if number[j]]
            if not xl:
                self._threshold(_END_L, scores[i], bit)
            if xr:
                self.always[_END_R] |= bit
            else:
                self._threshold(_END_R, scores[i], bit)
            if num_l:
                self._threshold(_NUM_L, max(num_l), bit)
            if num_r:
                self._threshold(_NUM_R, min(num_r), bit)
            else:
                self.always[_NUM_R] |= bit
        by_height: list[list[int]] = [
            [] for _ in range(max((t.depth for t in self.games), default=0))
        ]
        for i, t in enumerate(self.games):
            if t.depth:
                by_height[t.depth - 1].append(i)
        self.levels: list[tuple[Optional[_Side], Optional[_Side]]] = [
            (_level_side(ids, self.left), _level_side(ids, self.right))
            for ids in by_height
        ]

    def _append(self, t: GameTerm, index: dict[GameTerm, int]) -> None:
        self.games.append(t)
        self.scores.append(t.score)
        self.left.append(tuple(index[o] for o in t.left))
        self.right.append(tuple(index[o] for o in t.right))

    def _threshold(self, kind: int, v: Score, bit: int) -> None:
        self.values[kind][v] = self.values[kind].get(v, 0) | bit

    def __len__(self) -> int:
        return len(self.games)

    def signs(self, kind: int, s: Score) -> tuple[int, int]:
        """The columns whose score v of ``kind`` has v + s > 0, and v + s >= 0.

        Not cached: s may be any score of a game outside the table, and
        the loop runs over the few distinct scores of the table.
        """
        gt = ge = self.always[kind]
        for v, bits in self.values[kind].items():
            if v + s > 0:
                gt |= bits
            if v + s >= 0:
                ge |= bits
        return gt, ge


def _level_side(
    level: list[int], options: list[tuple[int, ...]]
) -> Optional[_Side]:
    """One side of a level: the ids with an option on that side, a getter
    of those columns, and for each option index k a getter of each such
    column's k-th option, or of its first where it has fewer than k + 1;
    max and min are idempotent, so repeating an option changes nothing.
    """
    ids = tuple(i for i in level if options[i])
    if not ids:
        return None
    columns = [options[i] for i in ids]
    return ids, _getter(ids), tuple(
        _getter([o[k] if k < len(o) else o[0] for o in columns])
        for k in range(max(map(len, columns)))
    )


def _getter(ids) -> Callable:
    """``itemgetter(*ids)``, which also gives a tuple for a single id."""
    if len(ids) > 1:
        return itemgetter(*ids)
    (i,) = ids
    return lambda row: (row[i],)


class _Games(tuple):
    """A universe's games, with their context table built on first use."""

    @cached_property
    def table(self) -> ContextTable:
        return ContextTable(self)


_universe_cache: dict[UniverseSpec, _Games] = _cache()


def universe(spec: UniverseSpec) -> tuple[GameTerm, ...]:
    """The full universe as a tuple, sorted by term order.

    The same tuple is returned until ``clear_caches``; its ``table``
    attribute is its ``ContextTable``, built on the first search and
    kept with the tuple.
    """
    games = _universe_cache.get(spec)
    if games is None:
        if _too_large(spec):
            raise ValueError(
                f"universe {spec.describe()} has more than "
                f"{UNIVERSE_SIZE_LIMIT} games; refusing to enumerate it"
            )
        pool = sorted((leaf(s) for s in spec.scores), key=_okey)
        # At width 0 every level is the leaves again.
        for _ in range(spec.max_depth if spec.max_width else 0):
            option_sets: list[tuple[GameTerm, ...]] = [()]
            for k in range(1, min(spec.max_width, len(pool)) + 1):
                option_sets.extend(combinations(pool, k))
            pool = _sorted_level([
                game(lt, s, rt)
                for lt in option_sets
                for s in spec.scores
                for rt in option_sets
            ], pool)
        games = _Games(pool)
        _universe_cache[spec] = games
    return games


def _sorted_level(pool: list[GameTerm], below: list[GameTerm]) -> list[GameTerm]:
    """``pool`` in term order, given ``below``, the level in term order that
    holds every option of its games and no term twice.

    Each key is ``okey`` with every option replaced by its index in
    ``below``.  Two option tuples first differ where their indices first
    differ, and there the indices compare as the options do, so the keys
    sort in term order without a tie ever reaching ``GameTerm.__lt__``.
    """
    rank = {g: i for i, g in enumerate(below)}.__getitem__

    def key(g: GameTerm) -> tuple:
        nodes, size, negative, lt, rt = g.okey
        return nodes, size, negative, tuple(map(rank, lt)), tuple(map(rank, rt))

    return sorted(pool, key=key)


def enumerate_universe(spec: UniverseSpec) -> Iterator[GameTerm]:
    """Yield the cached universe tuple's games in term order, no duplicates."""
    yield from universe(spec)


class SoundRule(Enum):
    IDENTICAL = "Identical"
    EQUIVALENT = "Equivalent"
    NUMERIC_ORDER = "NumericOrder"


@dataclass(frozen=True)
class Proved:
    rule: SoundRule

    def __str__(self) -> str:
        return f"Proved({self.rule.value})"


@dataclass(frozen=True)
class Refuted:
    witness: GameTerm
    witness_set: Optional[OutcomeSet] = None

    def __str__(self) -> str:
        if self.witness_set is None:
            return f"Refuted(X={render(self.witness)})"
        return f"Refuted(X={render(self.witness)}, O={self.witness_set.value})"


@dataclass(frozen=True)
class Unrefuted:
    spec: UniverseSpec

    def __str__(self) -> str:
        return f"Unrefuted({self.spec.describe()})"


Verdict = Union[Proved, Refuted, Unrefuted]


#: One verdict per rule, shared by every SOUND step ``canonical`` keeps.
_IDENTICAL = Proved(SoundRule.IDENTICAL)
_EQUIVALENT = Proved(SoundRule.EQUIVALENT)
_NUMERIC_ORDER = Proved(SoundRule.NUMERIC_ORDER)


def _sound_ge(g: GameTerm, h: GameTerm) -> Optional[Proved]:
    # The only comparison facts the theory supplies constructively:
    # identical trees, equivalence (same tree, equal termination scores,
    # which preserves final scores in every context), and translation
    # order between bare numbers.  g <= h is proved exactly when h >= g.
    if g is h:
        return _IDENTICAL
    if equivalent(g, h):
        return _EQUIVALENT
    if is_numeric(g) and is_numeric(h) and g.score >= h.score:
        return _NUMERIC_ORDER
    return None


def ge_refutation_at(
    g: GameTerm, h: GameTerm, x: GameTerm, ev: SumEvaluator
) -> Optional[OutcomeSet]:
    """First up-set O with h+x in O but g+x not, if any."""
    return _GE_TEST(*ev.final_scores(g, x), *ev.final_scores(h, x))


def le_refutation_at(
    g: GameTerm, h: GameTerm, x: GameTerm, ev: SumEvaluator
) -> Optional[OutcomeSet]:
    """First down-set O with h+x in O but g+x not, if any."""
    return _LE_TEST(*ev.final_scores(g, x), *ev.final_scores(h, x))


_Rows = tuple[list[Score], list[Score]]


def _extend_rows(
    g: GameTerm, table: ContextTable, rows: dict[GameTerm, _Rows]
) -> _Rows:
    """The score row of g over the table, with those of g's subterms.

    ``rows[u] = (SL, SR)`` holds the final scores of u + x_i for every
    column i of the table.  Column i of u reads the rows of u's options
    at column i and u's own row at the ids of x_i's options: the same
    max/min as SumEvaluator, on the same exact values.  Subterms missing
    from ``rows`` are filled in an explicit post-order, so the depth of g
    costs no Python recursion.

    A row starts as u's best option row on each side, or, where u has no
    option there, the ends a + score(x_i); that is already the value of
    every column whose context has no option on that side, the numbers
    among them.  The other columns are filled one height at a time from
    ``table.levels``, each level by one max (or min) over whole gathered
    columns, with no Python code run per column.  Level order suffices:
    every option of a column has a lower height, so the entries of u's
    own row that the column reads are final before its level is reached.
    Each max takes x_i's options in order and u's own best last, as
    SumEvaluator does.  The ends are normalized as by ``as_score``, so a
    whole score is an int, as in the terms ``add`` builds.
    """
    for u in _postorder(g, rows):
        a = u.score
        # int + Fraction is never whole: only a Fraction a needs as_score
        if type(a) is Fraction:
            ends = [as_score(a + v) for v in table.scores]
        else:
            ends = [a + v for v in table.scores]
        ul = _best([rows[o][1] for o in u.left], max) if u.left else ends
        ur = _best([rows[o][0] for o in u.right], min) if u.right else ends
        sl, sr = list(ul), list(ur)
        for left, right in table.levels:
            if left:
                _fold(sl, sr, ul if u.left else None, left, max)
            if right:
                _fold(sr, sl, ur if u.right else None, right, min)
        rows[u] = (sl, sr)
    return rows[g]


def _fold(
    row: list[Score],
    other: list[Score],
    best: Optional[list[Score]],
    side: _Side,
    pick: Callable,
) -> None:
    """Write one level side's columns of row: the max (or min) of the
    other row at each column's options and, if u has options on this
    side, of u's best option row at the column."""
    ids, at, options = side
    terms = [get(other) for get in options]
    if best is not None:
        terms.append(at(best))
    values = map(pick, *terms) if len(terms) > 1 else terms[0]
    deque(map(row.__setitem__, ids, values), 0)


def _best(columns: list[list[Score]], pick) -> list[Score]:
    """The column-wise max or min of one or more option rows."""
    if len(columns) == 1:
        return columns[0]
    return list(map(pick, *columns))


def _set_test(sets: tuple[OutcomeSet, ...]):
    """Test for the first set in ``sets`` holding h+x but not g+x."""
    checks = tuple((o, _SET_TESTS[o]) for o in sets)

    def test(slg: Score, srg: Score, slh: Score, srh: Score):
        for o, holds in checks:
            if holds(slh, srh) and not holds(slg, srg):
                return o
        return None

    return test


_GE_TEST = _set_test(UP_SETS)
_LE_TEST = _set_test(DOWN_SETS)


def _find(
    g: GameTerm,
    h: GameTerm,
    contexts: Iterable[GameTerm],
    sets: Optional[tuple[OutcomeSet, ...]],
) -> Optional[tuple[GameTerm, Optional[OutcomeSet]]]:
    """The first context, in the caller's order, that refutes, with its set.

    A tuple from ``universe`` is searched through its own table, which
    keeps the masks it builds.  Any other iterable gets a throwaway
    table, whose masks are dropped with it.
    """
    if isinstance(contexts, _Games):
        return _search(g, h, contexts.table, sets)
    return _search(g, h, ContextTable(contexts), sets)


def find_ge_refutation(
    g: GameTerm, h: GameTerm, contexts: Iterable[GameTerm]
) -> Optional[tuple[GameTerm, OutcomeSet]]:
    """First context x and up-set O with h+x in O but g+x not, if any."""
    return _find(g, h, contexts, UP_SETS)


def find_le_refutation(
    g: GameTerm, h: GameTerm, contexts: Iterable[GameTerm]
) -> Optional[tuple[GameTerm, OutcomeSet]]:
    """First context x and down-set O with h+x in O but g+x not, if any."""
    return _find(g, h, contexts, DOWN_SETS)


def find_eq_refutation(
    g: GameTerm, h: GameTerm, contexts: Iterable[GameTerm]
) -> Optional[GameTerm]:
    """First context x where g+x and h+x have different outcomes, if any."""
    hit = _find(g, h, contexts, None)
    return hit[0] if hit is not None else None


def greater_equal(
    g: GameTerm, h: GameTerm, spec: UniverseSpec = DEFAULT_UNIVERSE
) -> Verdict:
    """Three-valued g >= h.

    Refuted means some enumerated context x and up-set O have h+x in O but
    g+x outside it; the witness is minimal in term order and the verdict
    carries both for auditing.  The universe's table keeps the sign
    masks it builds, those of classes outside it too (see ``ContextTable``).
    """
    return _verdict(_sound_ge(g, h), g, h, spec, UP_SETS)


def less_equal(
    g: GameTerm, h: GameTerm, spec: UniverseSpec = DEFAULT_UNIVERSE
) -> Verdict:
    """Three-valued g <= h, over the four down-sets."""
    return _verdict(_sound_ge(h, g), g, h, spec, DOWN_SETS)


def _verdict(
    sound: Optional[Proved],
    g: GameTerm,
    h: GameTerm,
    spec: UniverseSpec,
    sets: Optional[tuple[OutcomeSet, ...]],
) -> Verdict:
    """The sound proof, else the first refutation, else Unrefuted.

    ``sets`` is UP_SETS for >=, DOWN_SETS for <= and None for =, whose
    witness carries no set.
    """
    if sound is not None:
        return sound
    hit = _search(g, h, universe(spec).table, sets)
    return Unrefuted(spec) if hit is None else Refuted(*hit)


def _search(
    g: GameTerm,
    h: GameTerm,
    table: ContextTable,
    sets: Optional[tuple[OutcomeSet, ...]],
) -> Optional[tuple[GameTerm, Optional[OutcomeSet]]]:
    """The first refutation over the table, or None.

    It is read off the sign masks of the classes of g and h, which the
    table caches: in ``masks`` for its own classes, in ``other`` for any
    other class.
    """
    gm = _class_masks(table, g, _esig(g))
    hm = _class_masks(table, h, _esig(h))
    return _mask_refutation(gm, hm, table, sets)


def equal(
    g: GameTerm, h: GameTerm, spec: UniverseSpec = DEFAULT_UNIVERSE
) -> Verdict:
    """Three-valued g = h: same outcome in every context.

    It is proved when the sound rules prove both g >= h and h >= g.  That
    suffices: mutual >= puts g+X in each of the four up-sets exactly when
    h+X is, for every X.  Those sets fix the signs of SL and SR, and the
    signs fix the outcome.
    """
    return _verdict(_sound_ge(g, h) and _sound_ge(h, g), g, h, spec, None)


def _class_masks(table: ContextTable, g: GameTerm, k: int) -> _Masks:
    """The sign masks of g's class k over the table; k may be any class.

    Bit i of each mask stands for the context of table id i, and is set
    where g+X is in the mask's set.  Equivalent games have equal rows
    (the argument in the ``ContextTable`` docstring, with the roles of g
    and X swapped), so one entry serves the whole class.  The masks of
    the table's own classes go to ``table.masks``, and those of any other
    class to ``table.other``.  Other classes are unbounded in number, so
    ``other`` is emptied before a build once it holds len(table) of them;
    a build reads only masks it finds or makes after that, so it never
    holds more than len(table) plus one build's classes.

    The masks of a game u are built from those of its option classes,
    which are built first, without its score row; nothing here needs u
    to be a game of the universe:

    - A sign test commutes with max and min: max > 0 iff some term is,
      min > 0 iff every term is, and likewise for >= 0.  So Left's moves
      in u give the OR of the SR masks of the classes of u^L, and
      Right's moves the AND of the SL masks of the classes of u^R.
    - A number b has no options, so the moves of u + b are exactly the
      moves of u with b carried along, and every position ends with b's
      score added; by induction on u, u + b plays as u does with every
      final score shifted by b, and SR(u + b) = u.sr + b.
      Left's moves to the numbers among the options of X therefore pass
      the tests exactly on the columns where that best number exceeds
      (or reaches) -u.sr: one threshold mask of the table, and
      Right's moves likewise with u.sl.
    - When the mover has no move in u or in X, play ends at
      u.score + score(X): a threshold mask on the root scores of the
      columns with no option on that side, used when u has none either.

    That leaves only Left's or Right's moves to options of X that are
    not numbers, whose columns read u's own bits at those options' ids.
    Those columns have height 2 or more, and every option of a column
    has a lower height; one pass over ``table.levels[1:]`` fills them
    in, on a byte per column, where the ASCII digits '0' and '1' combine
    under | and & as the bits they stand for.  The pass reads the number
    options of those columns too, which changes nothing: the bit of a
    number column j already holds SR(u + x_j) (or SL), the value the
    threshold ORs (or ANDs) in.  A universe of depth 1 has one level, so
    its masks need no per-column work at all.
    """
    known, other = table.masks, table.other
    masks = known.get(k) or other.get(k)
    if masks is not None:
        return masks
    if len(other) >= len(table):
        other.clear()
    table_classes = table.first_of
    for u in _postorder(g, ()):
        ku = _esig(u)
        if ku in known or ku in other:
            continue
        a = u.score
        if u.left:
            l_gt = l_ge = 0
            for o in u.left:
                m = known.get(_esig(o)) or other[_esig(o)]
                l_gt |= m[2]
                l_ge |= m[3]
        else:
            l_gt, l_ge = table.signs(_END_L, a)
        gt, ge = table.signs(_NUM_L, u.sr)
        l_gt |= gt
        l_ge |= ge
        if u.right:
            r_gt = r_ge = table.full
            for o in u.right:
                m = known.get(_esig(o)) or other[_esig(o)]
                r_gt &= m[0]
                r_ge &= m[1]
        else:
            r_gt, r_ge = table.signs(_END_R, a)
        gt, ge = table.signs(_NUM_R, u.sl)
        r_gt &= gt
        r_ge &= ge
        if len(table.levels) > 1:
            rows = [
                bytearray(format(m, table.digits)[::-1], "ascii")
                for m in (l_gt, l_ge, r_gt, r_ge)
            ]
            lgt, lge, rgt, rge = rows
            xl, xr = table.left, table.right
            for left, right in table.levels[1:]:
                if left:
                    for i in left[0]:
                        gt, ge = lgt[i], lge[i]
                        for j in xl[i]:
                            gt |= rgt[j]
                            ge |= rge[j]
                        lgt[i], lge[i] = gt, ge
                if right:
                    for i in right[0]:
                        gt, ge = rgt[i], rge[i]
                        for j in xr[i]:
                            gt &= lgt[j]
                            ge &= lge[j]
                        rgt[i], rge[i] = gt, ge
            l_gt, l_ge, r_gt, r_ge = [int(row[::-1], 2) for row in rows]
        masks = (l_gt, l_ge, r_gt, r_ge)
        (known if ku in table_classes else other)[ku] = masks
    return masks


def _outcome_masks(m: _Masks, full: int) -> tuple[int, int, int, int, int]:
    """The columns of outcome N, P, T, L and R, from a class's sign masks.

    ``full`` has one bit per column.  The five masks partition it, which
    is why = compares them and not the sign masks: (1, 1), (1, 0) and
    (0, 1) are all outcome L, but differ in sign.
    """
    l_gt, l_ge, r_gt, r_ge = m
    l_eq, r_eq = l_ge & ~l_gt, r_ge & ~r_gt
    l_lt, r_lt = full & ~l_ge, full & ~r_ge
    return (
        l_gt & r_lt,
        l_lt & r_gt,
        l_eq & r_eq,
        (l_gt & r_ge) | (l_eq & r_gt),
        (l_lt & ~r_gt) | (l_eq & r_lt),
    )


def _mask_refutation(
    gm: _Masks,
    hm: _Masks,
    table: ContextTable,
    sets: Optional[tuple[OutcomeSet, ...]],
) -> Optional[tuple[GameTerm, Optional[OutcomeSet]]]:
    """The first refuting context of g and h, read off their masks.

    For >= the columns with h+X in up-set k and g+X not are
    ``hm[k] & ~gm[k]``.  Down-set k is the complement of up-set k ^ 1
    (L< of L>=, L<= of L>, and so on), so for <= they are
    ``gm[k ^ 1] & ~hm[k ^ 1]``.  For = they are where an outcome mask
    differs.  Only the ids of first members are read: an id that is no
    first member's has the bits of its class's first member, which
    stands for it.  The table gives first members ids in increasing
    order of position, and a later position of a class has the same
    scores as its first one, so the lowest set bit is the first context
    in the caller's order that refutes; a first member's id holds that
    context.  The set named is the first of ``sets`` that hits there.
    """
    if sets is UP_SETS:
        diffs = [b & ~a for a, b in zip(gm, hm)]
    elif sets is DOWN_SETS:
        diffs = [gm[k ^ 1] & ~hm[k ^ 1] for k in range(4)]
    else:
        full = table.full
        diffs = [
            a ^ b
            for a, b in zip(_outcome_masks(gm, full), _outcome_masks(hm, full))
        ]
    bits = 0
    for d in diffs:
        bits |= d
    bits &= table.first_bits
    if not bits:
        return None
    low = bits & -bits
    x = table.games[low.bit_length() - 1]
    if sets is None:
        return x, None
    return x, next(o for o, d in zip(sets, diffs) if d & low)


def duality_check(
    g: GameTerm, h: GameTerm, spec: UniverseSpec = DEFAULT_UNIVERSE
) -> bool:
    """Check that contexts refuting g >= h are exactly those refuting h <= g.

    Since every up-set is the complement of a down-set, the two searches
    must flag the same contexts.  This executes that theorem on the
    universe's table by comparing the whole score rows of g and h, built
    for this call alone.  It stays off the sign masks: those of <= are
    built as complements of those of >=, so a check on them could never
    fail.
    """
    return _rows_mirror(g, h, universe(spec).table, {})


def _rows_mirror(
    g: GameTerm, h: GameTerm, table: ContextTable, rows: dict[GameTerm, _Rows]
) -> bool:
    """``duality_check`` over the table, with score rows kept in ``rows``."""
    slg, srg = _extend_rows(g, table, rows)
    slh, srh = _extend_rows(h, table, rows)
    ge, le = _GE_TEST, _LE_TEST
    return all(
        (ge(lg, rg, lh, rh) is None) == (le(lh, rh, lg, rg) is None)
        for lg, rg, lh, rh in zip(slg, srg, slh, srh)
    )
