"""Order and equality relations, decided soundly or refuted by search.

The relations =, >= and <= quantify over *all* context games X, which no
bounded tool can decide.  This module answers three-valued: Proved when a
sound rule applies, Refuted with a concrete (context, outcome set)
witness found in a finite enumerated universe, and otherwise Unrefuted
with the universe bounds that were searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from math import comb
from typing import Callable, Hashable, Iterable, Iterator, Optional, Union

from .core import (
    GameTerm, Score, as_score, equivalent, game, leaf, render, _esig, _postorder,
    _score_key,
)
from .score import _SET_TESTS, OutcomeSet, outcome_from_scores, set_holds
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


def universe_size(spec: UniverseSpec) -> int:
    """Closed-form count of the universe, without enumerating it."""
    n = len(spec.scores)
    for _ in range(spec.max_depth):
        sets = sum(comb(n, k) for k in range(spec.max_width + 1))
        n = sets * sets * len(spec.scores)
    return n


class ContextTable:
    """Dense, children-first index of the downward closure of some contexts.

    ``games[i]`` is the term with id ``i``; every option of it has a
    smaller id.  ``scores[i]`` is its root score, ``left[i]`` and
    ``right[i]`` its options as id tuples, and ``final_left[i]`` and
    ``final_right[i]`` its final scores played alone.  ``contexts`` is
    the caller's sequence and ``order[p]`` the id that stands for
    ``contexts[p]``; ``firsts`` lists, in increasing order, the first
    position p of each id in ``order``.

    Contexts with equal ``key`` share the id of the first of them; the
    table is built over those first members and their subterms only.
    Without a key every distinct game is its own class.  A universe is
    keyed by equivalence class (see ``_registered_table``), and in the
    universes tested the subterms of first members are first members
    too, so the table has one id per class: 380 ids for the 1,280 games
    of ``DEFAULT_UNIVERSE``, 7,205 for the 163,805 of depth 2, width 1.
    """

    __slots__ = (
        "contexts", "order", "firsts", "games", "scores", "left", "right",
        "final_left", "final_right",
    )

    def __init__(
        self,
        contexts: Iterable[GameTerm],
        key: Optional[Callable[[GameTerm], Hashable]] = None,
    ) -> None:
        self.contexts = tuple(contexts)
        keys = self.contexts if key is None else [key(x) for x in self.contexts]
        first: dict[Hashable, int] = {}
        for p, k in enumerate(keys):
            first.setdefault(k, p)
        index: dict[GameTerm, int] = {}
        self.games: list[GameTerm] = []
        self.scores: list[Score] = []
        self.left: list[tuple[int, ...]] = []
        self.right: list[tuple[int, ...]] = []
        self.final_left: list[Score] = []
        self.final_right: list[Score] = []
        for p in first.values():
            for t in _postorder(self.contexts[p], index):
                index[t] = len(self.games)
                self._append(t, index)
        ids = {k: index[self.contexts[p]] for k, p in first.items()}
        self.order = [ids[k] for k in keys]
        self.firsts = tuple(first.values())

    def _append(self, t: GameTerm, index: dict[GameTerm, int]) -> None:
        self.games.append(t)
        self.scores.append(t.score)
        self.left.append(tuple(index[o] for o in t.left))
        self.right.append(tuple(index[o] for o in t.right))
        self.final_left.append(t.sl)
        self.final_right.append(t.sr)

    def __len__(self) -> int:
        return len(self.games)


class _Universe:
    """A registry entry: the enumerated games and, once searched, their table."""

    __slots__ = ("games", "table")

    def __init__(self, games: tuple[GameTerm, ...]) -> None:
        self.games = games
        self.table: Optional[ContextTable] = None


_universe_cache: dict[UniverseSpec, _Universe] = {}


def universe(spec: UniverseSpec) -> tuple[GameTerm, ...]:
    """The full universe as a tuple, sorted by term order (cached)."""
    entry = _universe_cache.get(spec)
    if entry is None:
        size = universe_size(spec)
        if size > UNIVERSE_SIZE_LIMIT:
            raise ValueError(
                f"universe {spec.describe()} has {size} games; "
                f"refusing to enumerate above {UNIVERSE_SIZE_LIMIT}"
            )
        pool: list[GameTerm] = [leaf(s) for s in spec.scores]
        for _ in range(spec.max_depth):
            option_sets: list[tuple[GameTerm, ...]] = [()]
            for k in range(1, spec.max_width + 1):
                option_sets.extend(combinations(pool, k))
            pool = [
                game(lt, s, rt)
                for lt in option_sets
                for s in spec.scores
                for rt in option_sets
            ]
        entry = _Universe(tuple(sorted(pool, key=lambda t: t.okey)))
        _universe_cache[spec] = entry
    return entry.games


def enumerate_universe(spec: UniverseSpec) -> Iterator[GameTerm]:
    """Yield the cached universe tuple's games in term order, no duplicates."""
    yield from universe(spec)


def _class_key(g: GameTerm) -> Hashable:
    """Equal for two games exactly when they are ``equivalent``."""
    return _esig(g)


def _registered_table(contexts: Iterable[GameTerm]) -> Optional[ContextTable]:
    """The class table of a universe tuple, or None for any other iterable.

    The table has one context id per equivalence class, that of the
    class's first game in term order, and ``order`` maps every game of
    the universe to it.  This loses nothing: if X and X' are equivalent
    then g+X and g+X' have the same final scores for every g.  Their
    trees are isomorphic, and so are the trees of g+X and g+X'.  Under
    the long rule a play of g+X ends only where the mover has no move
    in either component, so X's component sits at a vertex missing an
    option, a termination vertex, whose score the isomorphic vertex of
    X' shares; every end of play has the same score in both sums, and
    by induction so does every minimax value.

    It is built by the universe's first search, not by universe(), so
    enumerating stays as cheap as before.
    """
    for entry in _universe_cache.values():
        if entry.games is contexts:
            if entry.table is None:
                entry.table = ContextTable(entry.games, _class_key)
            return entry.table
    return None


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


def _sound_ge(g: GameTerm, h: GameTerm) -> Optional[Proved]:
    # The only comparison facts the theory supplies constructively:
    # identical trees, equivalence (same tree, equal termination scores,
    # which preserves final scores in every context), and translation
    # order between bare numbers.  g <= h is proved exactly when h >= g.
    if g is h:
        return Proved(SoundRule.IDENTICAL)
    if equivalent(g, h):
        return Proved(SoundRule.EQUIVALENT)
    if is_numeric(g) and is_numeric(h) and g.score >= h.score:
        return Proved(SoundRule.NUMERIC_ORDER)
    return None


def _refutation_at(
    g: GameTerm,
    h: GameTerm,
    x: GameTerm,
    ev: SumEvaluator,
    sets: tuple[OutcomeSet, ...],
) -> Optional[OutcomeSet]:
    """First set O in ``sets`` with h+x in O but g+x not, if any."""
    slg, srg = ev.final_scores(g, x)
    slh, srh = ev.final_scores(h, x)
    for o in sets:
        if set_holds(o, slh, srh) and not set_holds(o, slg, srg):
            return o
    return None


def ge_refutation_at(
    g: GameTerm, h: GameTerm, x: GameTerm, ev: SumEvaluator
) -> Optional[OutcomeSet]:
    """First up-set O with h+x in O but g+x not, if any."""
    return _refutation_at(g, h, x, ev, UP_SETS)


def le_refutation_at(
    g: GameTerm, h: GameTerm, x: GameTerm, ev: SumEvaluator
) -> Optional[OutcomeSet]:
    """First down-set O with h+x in O but g+x not, if any."""
    return _refutation_at(g, h, x, ev, DOWN_SETS)


#: Columns computed by a search's first row extension; each later one
#: doubles the extended length, so an early refutation stays cheap.
_FIRST_CHUNK = 8

_Rows = tuple[list[Score], list[Score]]


def _extend_rows(
    g: GameTerm, table: ContextTable, rows: dict[GameTerm, _Rows], n: int
) -> _Rows:
    """Extend the score rows of g, and of every subterm of g, to n columns.

    ``rows[u] = (SL, SR)`` holds the final scores of u + x_i for the
    first columns i of the table.  Column i of u reads the rows of u's
    options at column i and u's own row at the ids of x_i's options,
    which are earlier columns: the same max/min as SumEvaluator, on the
    same exact values.  Subterms are visited in an explicit post-order,
    so the depth of g costs no Python recursion.

    A number a has no options, so the moves of a + X are exactly the
    moves of X with a carried along, and every position ends with a's
    score added; by induction on X, a + X plays as X does with each
    final score shifted by a.  Its row is the table's final-score row
    plus a.
    """
    stack = [g]
    while stack:
        u = stack[-1]
        row = rows.get(u)
        done = len(row[0]) if row is not None else 0
        if done >= n:
            stack.pop()
            continue
        short = [
            o for o in u.left + u.right
            if o not in rows or len(rows[o][0]) < n
        ]
        if short:
            stack.extend(short)
            continue
        stack.pop()
        if row is None:
            row = rows[u] = ([], [])
        sl, sr = row
        a = u.score
        if not u.left and not u.right:
            sl.extend([v + a for v in table.final_left[done:n]])
            sr.extend([v + a for v in table.final_right[done:n]])
            continue
        # Where x_i has no option for a side, the column is decided by u's
        # own options there, or ends at once with score a + score(x_i).
        ends = [a + v for v in table.scores[done:n]]
        has_l, has_r = bool(u.left), bool(u.right)
        ul = _best([rows[o][1][done:n] for o in u.left], max) if has_l else ends
        ur = _best([rows[o][0][done:n] for o in u.right], min) if has_r else ends
        sl_at, sr_at = sl.__getitem__, sr.__getitem__
        for xl, xr, bl, br in zip(
            table.left[done:n], table.right[done:n], ul, ur
        ):
            if xl:
                v = max(map(sr_at, xl))
                if has_l and bl > v:
                    v = bl
                sl.append(v)
            else:
                sl.append(bl)
            if xr:
                v = min(map(sl_at, xr))
                if has_r and br < v:
                    v = br
                sr.append(v)
            else:
                sr.append(br)
    return rows[g]


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


def _outcome_test(slg: Score, srg: Score, slh: Score, srh: Score):
    if outcome_from_scores(slg, srg) is not outcome_from_scores(slh, srh):
        return True
    return None


_GE_TEST = _set_test(UP_SETS)
_LE_TEST = _set_test(DOWN_SETS)


def _table_rows(
    contexts: Iterable[GameTerm], ev: Optional[SumEvaluator]
) -> tuple[ContextTable, dict[GameTerm, _Rows]]:
    """The table to scan ``contexts`` on and the score rows to extend.

    A universe tuple has its registered table, with rows kept in ev;
    any other iterable gets a throwaway table and rows.
    """
    table = _registered_table(contexts)
    if table is None:
        return ContextTable(contexts), {}
    return table, ev.context_rows(table) if ev is not None else {}


def _first_refutation(
    g: GameTerm,
    h: GameTerm,
    contexts: Iterable[GameTerm],
    ev: Optional[SumEvaluator],
    test,
):
    """First context, in the caller's order, where test(g+x, h+x) hits.

    Returns (x, hit) or None.  The scores come from rows over the
    context table of ``_table_rows``, extended only as far as the scan.
    Each id is tested once, at its first position: a later position of
    the same id has the same scores, so it can only hit where an earlier
    one already has, and the first hit is that of a full scan.
    """
    table, rows = _table_rows(contexts, ev)
    size = len(table)
    order = table.order
    done = 0
    for p in table.firsts:
        i = order[p]
        if i >= done:
            target = min(size, max(i + 1, 2 * done, _FIRST_CHUNK))
            slg, srg = _extend_rows(g, table, rows, target)
            slh, srh = _extend_rows(h, table, rows, target)
            done = min(len(slg), len(slh))
        hit = test(slg[i], srg[i], slh[i], srh[i])
        if hit is not None:
            return table.contexts[p], hit
    return None


def _refutation_flags(
    g: GameTerm,
    h: GameTerm,
    contexts: Iterable[GameTerm],
    ev: Optional[SumEvaluator],
    test,
) -> list[bool]:
    """Whether test(g+x, h+x) hits, for every context x in the caller's order."""
    table, rows = _table_rows(contexts, ev)
    slg, srg = _extend_rows(g, table, rows, len(table))
    slh, srh = _extend_rows(h, table, rows, len(table))
    return [test(slg[i], srg[i], slh[i], srh[i]) is not None for i in table.order]


def find_ge_refutation(
    g: GameTerm,
    h: GameTerm,
    contexts: Iterable[GameTerm],
    ev: Optional[SumEvaluator] = None,
) -> Optional[tuple[GameTerm, OutcomeSet]]:
    """First context x and up-set O with h+x in O but g+x not, if any."""
    return _first_refutation(g, h, contexts, ev, _GE_TEST)


def find_le_refutation(
    g: GameTerm,
    h: GameTerm,
    contexts: Iterable[GameTerm],
    ev: Optional[SumEvaluator] = None,
) -> Optional[tuple[GameTerm, OutcomeSet]]:
    """First context x and down-set O with h+x in O but g+x not, if any."""
    return _first_refutation(g, h, contexts, ev, _LE_TEST)


def find_eq_refutation(
    g: GameTerm,
    h: GameTerm,
    contexts: Iterable[GameTerm],
    ev: Optional[SumEvaluator] = None,
) -> Optional[GameTerm]:
    """First context x where g+x and h+x have different outcomes, if any."""
    hit = _first_refutation(g, h, contexts, ev, _outcome_test)
    return hit[0] if hit is not None else None


def greater_equal(
    g: GameTerm,
    h: GameTerm,
    spec: UniverseSpec = DEFAULT_UNIVERSE,
    evaluator: Optional[SumEvaluator] = None,
) -> Verdict:
    """Three-valued g >= h.

    Refuted means some enumerated context x and up-set O have h+x in O but
    g+x outside it; the witness is minimal in term order and the verdict
    carries both for auditing.  The score rows the search computes are
    kept in ``evaluator`` for later searches that pass the same one.
    """
    return _verdict(_sound_ge(g, h), g, h, spec, evaluator, _GE_TEST)


def less_equal(
    g: GameTerm,
    h: GameTerm,
    spec: UniverseSpec = DEFAULT_UNIVERSE,
    evaluator: Optional[SumEvaluator] = None,
) -> Verdict:
    """Three-valued g <= h, over the four down-sets."""
    return _verdict(_sound_ge(h, g), g, h, spec, evaluator, _LE_TEST)


def _verdict(
    sound: Optional[Proved],
    g: GameTerm,
    h: GameTerm,
    spec: UniverseSpec,
    evaluator: Optional[SumEvaluator],
    test,
) -> Verdict:
    """The sound proof, else the first refutation ``test`` finds, else Unrefuted."""
    if sound is not None:
        return sound
    hit = _first_refutation(g, h, universe(spec), evaluator, test)
    if hit is not None:
        return Refuted(*hit)
    return Unrefuted(spec)


def equal(
    g: GameTerm,
    h: GameTerm,
    spec: UniverseSpec = DEFAULT_UNIVERSE,
    evaluator: Optional[SumEvaluator] = None,
) -> Verdict:
    """Three-valued g = h: same outcome in every context."""
    if g is h:
        return Proved(SoundRule.IDENTICAL)
    if equivalent(g, h):
        return Proved(SoundRule.EQUIVALENT)
    x = find_eq_refutation(g, h, universe(spec), evaluator)
    if x is not None:
        return Refuted(x)
    return Unrefuted(spec)


def duality_check(
    g: GameTerm,
    h: GameTerm,
    spec: UniverseSpec = DEFAULT_UNIVERSE,
    evaluator: Optional[SumEvaluator] = None,
) -> bool:
    """Check that contexts refuting g >= h are exactly those refuting h <= g.

    Since every up-set is the complement of a down-set, the two searches
    must flag the same contexts; this executes that theorem on the
    enumerated universe, column by column on the score rows of g and h.
    """
    contexts = universe(spec)
    ev = evaluator or SumEvaluator()
    return _refutation_flags(g, h, contexts, ev, _GE_TEST) == _refutation_flags(
        h, g, contexts, ev, _LE_TEST
    )
