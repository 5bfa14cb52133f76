"""Machine checks of the theory's theorems at desk scale.

Each suite sweeps an enumerated universe (exhaustively where it is small,
by deterministic sampling where the square or cube of it is not) and
reports named checks.  Suites are pure functions of their parameters, so
repeated runs produce identical reports.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from itertools import chain
from operator import contains, ne
from typing import Optional, Sequence

from .canonical import Mode, canonicalize, is_canonical, reduce_step
from .core import GameTerm, _esig, equivalent, game, leaf, negate, term_order_key
from .order import (
    ContextTable,
    UniverseSpec,
    _extend_rows,
    _getter,
    _rows_mirror,
    _sound_ge,
    find_eq_refutation,
    find_ge_refutation,
    universe,
)
from .score import (
    BASE_LEFT_SETS,
    BASE_RIGHT_SETS,
    Outcome,
    OutcomeSet,
    final_scores,
    outcome,
    outcome_from_scores,
    set_holds,
)
from .sums import SumEvaluator, add, distinguishing_context, is_numeric, outcome_template, zero

__all__ = [
    "Check",
    "SuiteResult",
    "TemplateSweep",
    "outcome_template_sweep",
    "SUITES",
    "run_suite",
    "sample_confluence_games",
]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    details: str = ""


@dataclass
class SuiteResult:
    suite: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, details: str = "") -> None:
        self.checks.append(Check(name, passed, details))


def _sample(items: Sequence, limit: Optional[int], rng: random.Random) -> list:
    if limit is None or len(items) <= limit:
        return list(items)
    return rng.sample(list(items), limit)


def _sample_pairs(
    items: Sequence[GameTerm], limit: int, rng: random.Random
) -> list[tuple[GameTerm, GameTerm]]:
    n = len(items)
    if n * n <= limit:
        return [(g, h) for g in items for h in items]
    return [(rng.choice(items), rng.choice(items)) for _ in range(limit)]


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


_CLASS_DEFS = {
    Outcome.L: (
        (OutcomeSet.L_GT, OutcomeSet.R_GT),
        (OutcomeSet.L_GT, OutcomeSet.R_EQ),
        (OutcomeSet.L_EQ, OutcomeSet.R_GT),
    ),
    Outcome.R: (
        (OutcomeSet.L_LT, OutcomeSet.R_LT),
        (OutcomeSet.L_LT, OutcomeSet.R_EQ),
        (OutcomeSet.L_EQ, OutcomeSet.R_LT),
    ),
    Outcome.N: ((OutcomeSet.L_GT, OutcomeSet.R_LT),),
    Outcome.P: ((OutcomeSet.L_LT, OutcomeSet.R_GT),),
    Outcome.T: ((OutcomeSet.L_EQ, OutcomeSet.R_EQ),),
}


def verify_partition(spec: UniverseSpec) -> SuiteResult:
    """Every universe game lies in exactly one outcome class and one
    Left/Right base-set pair, with outcome() agreeing with the class
    computed straight from the defining intersections."""
    res = SuiteResult("partition")
    games = universe(spec)
    bad_base = bad_class = mismatch = 0
    for g in games:
        sl, sr = final_scores(g)
        left_hits = [s for s in BASE_LEFT_SETS if set_holds(s, sl, sr)]
        right_hits = [s for s in BASE_RIGHT_SETS if set_holds(s, sl, sr)]
        if len(left_hits) != 1 or len(right_hits) != 1:
            bad_base += 1
            continue
        pair = (left_hits[0], right_hits[0])
        classes = [o for o, pairs in _CLASS_DEFS.items() if pair in pairs]
        if len(classes) != 1:
            bad_class += 1
        elif classes[0] is not outcome(g):
            mismatch += 1
    res.add("one-base-set-each", bad_base == 0,
            f"games={len(games)} violations={bad_base}")
    res.add("one-outcome-class", bad_class == 0,
            f"games={len(games)} violations={bad_class}")
    res.add("outcome-agrees-with-definition", mismatch == 0,
            f"games={len(games)} violations={mismatch}")
    return res


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def verify_duality(
    spec: UniverseSpec, max_pairs: int = 400, seed: int = 0
) -> SuiteResult:
    """A context refutes g >= h exactly when it refutes h <= g."""
    res = SuiteResult("duality")
    games = universe(spec)
    rng = random.Random(seed)
    pairs = _sample_pairs(games, max_pairs, rng)
    # duality_check on each pair, with score rows kept across pairs
    table, rows = games.table, {}
    violations = sum(not _rows_mirror(g, h, table, rows) for g, h in pairs)
    exhaustive = len(pairs) == len(games) ** 2
    res.add(
        "refutations-mirror", violations == 0,
        f"pairs={len(pairs)}{' (all)' if exhaustive else ''} "
        f"contexts={len(games)} violations={violations}",
    )
    return res


# ---------------------------------------------------------------------------
# partial order
# ---------------------------------------------------------------------------


def verify_partial_order(
    spec: UniverseSpec,
    max_games: int = 150,
    max_pairs: int = 150,
    seed: int = 0,
) -> SuiteResult:
    """Reflexivity, transitivity and antisymmetry at the refutation level."""
    res = SuiteResult("partial-order")
    games = universe(spec)
    rng = random.Random(seed)

    sample = _sample(games, max_games, rng)
    refl_bad = sum(
        1 for g in sample if find_ge_refutation(g, g, games) is not None
    )
    res.add("reflexivity-never-refuted", refl_bad == 0,
            f"games={len(sample)} violations={refl_bad}")

    # Transitivity at the sound level: chains of proved facts may not be
    # refutable.  Sound >= facts are equivalences and numeric order, so
    # build chains from both.
    leaves = [g for g in sample if is_numeric(g)]
    leaves.sort(key=lambda t: t.score)
    chains = []
    for i in range(len(leaves) - 2):
        chains.append((leaves[i + 2], leaves[i + 1], leaves[i]))
    equiv_pairs = [
        (g, h)
        for g in sample
        for h in sample
        if g is not h and equivalent(g, h)
    ]
    rng.shuffle(equiv_pairs)
    for g, h in equiv_pairs[:20]:
        chains.append((g, h, g))
    trans_bad = 0
    for g, h, j in chains:
        if _sound_ge(g, h) is None or _sound_ge(h, j) is None:
            continue
        if find_ge_refutation(g, j, games) is not None:
            trans_bad += 1
    res.add("transitivity-probe", trans_bad == 0,
            f"chains={len(chains)} violations={trans_bad}")

    pairs = _sample_pairs(sample, max_pairs, rng)
    anti_checked = anti_bad = 0
    for g, h in pairs:
        if find_ge_refutation(g, h, games) is not None:
            continue
        if find_ge_refutation(h, g, games) is not None:
            continue
        anti_checked += 1
        if find_eq_refutation(g, h, games) is not None:
            anti_bad += 1
    res.add("antisymmetry-probe", anti_bad == 0,
            f"mutually-unrefuted-pairs={anti_checked} violations={anti_bad}")
    return res


# ---------------------------------------------------------------------------
# outcome template
# ---------------------------------------------------------------------------


@dataclass
class TemplateSweep:
    """Raw results of the template grid sweep (see outcome_template_sweep)."""

    bound: int
    grid_points: int
    fixed_triples: set[tuple[str, str, str]]
    family_triples: set[tuple[str, str, str]]
    sr_violations: int
    sl_violations: int


def outcome_template_sweep(bound: int = 3) -> TemplateSweep:
    """Grid-sweep the template pair G = {{{d|c|e}|b|.}|a|.}, H = {.|f|{.|g|h}}.

    Over the full integer grid, records the triples (outcome(G),
    outcome(H), outcome(G+H)) and checks at every grid point that the
    Right final score of G+H is e+h and the Left final score is one of
    e+g, d+h.

    ``fixed_triples`` keeps G in the first role and H in the second, as
    in the theorem's proof; over an integer grid that assignment cannot
    reach the five (_, N, N) triples (a Right-favored second summand
    forces g <= -1, hence e >= 2, h <= -3, d >= 4).  ``family_triples``
    also admits the swapped assignment and pairs of two H-shaped games,
    which the theorem's statement allows, and does reach all 125.

    The H-shaped games form one context table, so the score row of a G
    (see ``order._extend_rows``) holds the final scores of G+H for every
    H at once; one gather per row side (``order._getter`` over the
    table's order) reads it in pool order.  Gs are visited subterm by
    subterm: the rows of {d|c|e} and {{d|c|e}|b|.} serve every G built
    on them and are dropped with their last one.  The SR and SL checks
    run at every grid point, each over a whole row at once.  For the
    triples only the distinct (SL row, SR row) pairs of each outcome of
    G are kept (125 pairs for 3,125 Gs at bound 2) and split into
    triples once, after the sweep.
    """
    vals = list(range(-bound, bound + 1))
    h_pool, h_g, h_h = [], [], []
    for f in vals:
        for gg in vals:
            for h in vals:
                h_pool.append(outcome_template(0, 0, 0, 0, 0, f, gg, h)[1])
                h_g.append(gg)
                h_h.append(h)
    h_outcomes = [outcome(H).value for H in h_pool]
    plus_g = {v: [v + gg for gg in h_g] for v in vals}
    plus_h = {v: tuple(v + h for h in h_h) for v in vals}
    table = ContextTable(h_pool)
    pool_order = _getter(table.order)
    n = len(h_pool)
    rows: dict[GameTerm, tuple[list, list]] = {}

    def sum_scores(g: GameTerm) -> tuple[tuple, tuple]:
        # SL and SR of g+H for each H of h_pool, in pool order.
        sl, sr = _extend_rows(g, table, rows)
        del rows[g]
        return pool_order(sl), pool_order(sr)

    # Per outcome of the first summand, the distinct (SL, SR) rows of
    # its sums; _triples splits each into triples once.
    g_rows: dict[str, set] = {}
    h_rows: dict[str, set] = {}
    sr_bad = sl_bad = 0
    points = 0
    for c in vals:
        for d in vals:
            for e in vals:
                inner = game([leaf(d)], c, [leaf(e)])
                right = plus_h[e]
                # the two Left final scores allowed at each H
                left = list(zip(plus_g[e], plus_h[d]))
                for b in vals:
                    mid = game([inner], b, [])
                    for a in vals:
                        G = game([mid], a, [])
                        sls, srs = scores = sum_scores(G)
                        points += n
                        if srs != right:  # one compare when all agree
                            sr_bad += sum(map(ne, srs, right))
                        sl_bad += n - sum(map(contains, left, sls))
                        g_rows.setdefault(outcome(G).value, set()).add(scores)
                    del rows[mid]
                del rows[inner]
    for o1, H1 in zip(h_outcomes, h_pool):
        h_rows.setdefault(o1, set()).add(sum_scores(H1))

    fixed = _triples(g_rows, h_outcomes)
    swapped = {(o2, o1, o) for o1, o2, o in fixed}
    family = fixed | swapped | _triples(h_rows, h_outcomes)
    return TemplateSweep(bound, points, fixed, family, sr_bad, sl_bad)


def _triples(
    rows: dict[str, set], second: list[str]
) -> set[tuple[str, str, str]]:
    """(o1, outcome of H, outcome of the sum) over the columns of every
    row pair kept under o1; ``second`` holds the outcomes of the pool.
    Each distinct (o2, SL, SR) of an o1 is classified once."""
    return {
        (o1, o2, outcome_from_scores(sl, sr).value)
        for o1, pairs in rows.items()
        for o2, sl, sr in set(chain.from_iterable(
            zip(second, sls, srs) for sls, srs in pairs
        ))
    }


def verify_outcome_template(bound: int = 3) -> SuiteResult:
    """Run the template grid sweep and report the theorem's checks."""
    res = SuiteResult("outcome-template")
    sweep = outcome_template_sweep(bound)
    res.add(
        "all-125-triples-from-templates",
        len(sweep.family_triples) == 125,
        f"realized={len(sweep.family_triples)}/125 "
        f"(fixed-assignment: {len(sweep.fixed_triples)}) "
        f"grid_points={sweep.grid_points}",
    )
    res.add("right-final-score-is-e+h", sweep.sr_violations == 0,
            f"grid_points={sweep.grid_points} violations={sweep.sr_violations}")
    res.add("left-final-score-in-{e+g,d+h}", sweep.sl_violations == 0,
            f"grid_points={sweep.grid_points} violations={sweep.sl_violations}")
    return res


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------


def verify_identity(spec: UniverseSpec) -> SuiteResult:
    """Every nonzero universe game is distinguished from 0 by its
    constructed context, and no non-numeric game has an inverse.

    Both checks run one distinguishing test, which 0 fails.  g + (-g) is
    the very term (-g) + g is, so each {g, -g} pair is summed one way
    round, in term order, and its second game finds the sum cached.
    """
    res = SuiteResult("identity")
    games = universe(spec)
    ev = SumEvaluator()
    zero_game = zero()

    def distinguished(g: GameTerm) -> bool:
        if g is zero_game:
            return False
        x = distinguishing_context(g)
        return ev.outcome(g, x) is not ev.outcome(x, zero_game)

    nonzero = [g for g in games if g is not zero_game]
    failures = sum(not distinguished(g) for g in nonzero)
    res.add("nonzero-games-distinguished", failures == 0,
            f"games={len(nonzero)} failures={failures}")

    pair_sums = [add(*sorted((g, negate(g)), key=term_order_key))
                 for g in games if not is_numeric(g)]
    failures = sum(not distinguished(s) for s in pair_sums)
    res.add("non-numeric-games-not-invertible", failures == 0,
            f"games={len(pair_sums)} failures={failures}")
    return res


# ---------------------------------------------------------------------------
# reduction safety
# ---------------------------------------------------------------------------


def verify_reduction_safety(
    spec: UniverseSpec,
    context_spec: Optional[UniverseSpec] = None,
    max_games: Optional[int] = 400,
    seed: int = 0,
) -> SuiteResult:
    """Every sound reduction step preserves the outcome in every context,
    and strictly shrinks the tree.  ``max_games=None`` checks every game."""
    res = SuiteResult("reduction-safety")
    games = _sample(universe(spec), max_games, random.Random(seed))
    contexts = universe(context_spec or spec)
    steps = outcome_bad = size_bad = 0
    for g in games:
        node = g
        while True:
            hit = reduce_step(node, spec, Mode.SOUND)
            if hit is None:
                break
            reduced, _ = hit
            steps += 1
            if reduced.node_count >= node.node_count:
                size_bad += 1
            if find_eq_refutation(node, reduced, contexts) is not None:
                outcome_bad += 1
            node = reduced
    res.add("outcome-preserved", outcome_bad == 0,
            f"steps={steps} contexts={len(contexts)} violations={outcome_bad}")
    res.add("tree-strictly-shrinks", size_bad == 0,
            f"steps={steps} violations={size_bad}")
    return res


# ---------------------------------------------------------------------------
# confluence
# ---------------------------------------------------------------------------


#: Depth and option-set width of the sampler's random terms.
_SAMPLE_DEPTH, _SAMPLE_WIDTH = 2, 3

#: Order seeds each confluence game is reduced with; None is the default order.
_CONFLUENCE_SEEDS = (None, 1, 2)


def _random_term(rng: random.Random, max_depth: int,
                 scores: Sequence[int]) -> GameTerm:
    if max_depth == 0 or rng.random() < 0.25:
        return leaf(rng.choice(scores))
    lt = [
        _random_term(rng, max_depth - 1, scores)
        for _ in range(rng.randint(0, _SAMPLE_WIDTH))
    ]
    rt = [
        _random_term(rng, max_depth - 1, scores)
        for _ in range(rng.randint(0, _SAMPLE_WIDTH))
    ]
    return game(lt, rng.choice(scores), rt)


def _equivalent_variant(t: GameTerm, rng: random.Random) -> GameTerm:
    # Often bump t's score when both players have options at t; such a
    # score never reaches a final tally, so the variant stays equivalent
    # to t.  The sampler passes options of depth <= 1, whose own options
    # are leaves, so t is the only vertex worth bumping.
    if t.left and t.right and rng.random() < 0.6:
        return game(t.left, t.score + 1, t.right)
    return t


def sample_confluence_games(
    n: int, seed: int = 0, scores: Sequence[int] = (-2, -1, 0, 1, 2)
) -> list[GameTerm]:
    """Random small games, biased toward reducible ones: sibling options
    are often numerically comparable, and half the games get an extra
    option equivalent to an existing one."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        t = _random_term(rng, _SAMPLE_DEPTH, scores)
        if rng.random() < 0.5 and (t.left or t.right):
            if t.left and (not t.right or rng.random() < 0.5):
                extra = _equivalent_variant(rng.choice(t.left), rng)
                t = game(t.left + (extra,), t.score, t.right)
            elif t.right:
                extra = _equivalent_variant(rng.choice(t.right), rng)
                t = game(t.left, t.score, t.right + (extra,))
        out.append(t)
    return out


def verify_confluence(
    spec: UniverseSpec,
    n_games: int = 300,
    seed: int = 0,
) -> SuiteResult:
    """Different reduction orders land on equivalent canonical forms."""
    res = SuiteResult("confluence")
    games = sample_confluence_games(n_games, seed)
    divergent = reduced = 0
    for g in games:
        forms = [
            canonicalize(g, spec, Mode.SOUND, order_seed=s)[0]
            for s in _CONFLUENCE_SEEDS
        ]
        if any(f is not g for f in forms):
            reduced += 1
        base = forms[0]
        if not all(equivalent(base, f) for f in forms[1:]):
            divergent += 1
    res.add(
        "orders-agree-up-to-equivalence", divergent == 0,
        f"games={len(games)} orders={len(_CONFLUENCE_SEEDS)} "
        f"reduced={reduced} divergent={divergent}",
    )
    return res


# ---------------------------------------------------------------------------
# cong probe
# ---------------------------------------------------------------------------


def verify_cong_probe(spec: UniverseSpec) -> SuiteResult:
    """Provedly equal universe pairs that are both canonical are equivalent."""
    res = SuiteResult("cong-probe")
    games = universe(spec)

    classes: dict[int, list[GameTerm]] = {}
    for g in games:
        classes.setdefault(_esig(g), []).append(g)
    pairs = bad = 0
    for members in classes.values():
        if len(members) < 2:
            continue
        canon = [g for g in members if is_canonical(g, spec, Mode.SOUND)]
        for i, g in enumerate(canon):
            for h in canon[i + 1:]:
                pairs += 1
                if not equivalent(g, h):
                    bad += 1
    res.add("equal-canonical-pairs-equivalent", bad == 0,
            f"pairs={pairs} violations={bad}")
    return res


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SUITES = {
    "partition": verify_partition,
    "duality": verify_duality,
    "partial-order": verify_partial_order,
    "outcome-template": verify_outcome_template,
    "identity": verify_identity,
    "reduction-safety": verify_reduction_safety,
    "confluence": verify_confluence,
    "cong-probe": verify_cong_probe,
}


def run_suite(
    name: str, spec: UniverseSpec, seed: int = 0, **overrides
) -> SuiteResult:
    """Run a named suite with its own defaults; keywords override them.

    The universe ``spec`` and the sampling ``seed`` go only to a suite
    that takes them."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    run = SUITES[name]
    params = inspect.signature(run).parameters
    given = {k: v for k, v in (("spec", spec), ("seed", seed)) if k in params}
    return run(**given, **overrides)
