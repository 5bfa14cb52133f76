"""Acceptance sweep: one test per criterion, reported in the terminal
summary.

Universes: the engine's default context universe (depth<=1, width<=2,
scores -2..2; 1280 games) is swept exhaustively wherever the check is
linear in the universe.  Checks quadratic or cubic in the universe run
exhaustively on a 48-game sub-universe and by deterministic sampling
(>= the criterion's floor) on the default one; a 7203-game depth-2
universe backs the linear checks as well.
"""

import random
import time

from scoreplay import (
    Mode,
    Outcome,
    OutcomeSet,
    SumEvaluator,
    UniverseSpec,
    add,
    canonicalize,
    equivalent,
    final_scores,
    identical,
    leaf,
    outcome,
    parse,
    print_game,
    render,
    tf_parse,
    tf_to_game,
    universe,
    zero,
)
from scoreplay.order import find_le_refutation
from scoreplay.score import set_holds
from scoreplay.verify import (
    outcome_template_sweep,
    sample_confluence_games,
    verify_cong_probe,
    verify_identity,
    verify_partition,
    verify_reduction_safety,
)

import oracles
from conftest import DEEP, DEFAULT, SMALL

TBF_TEXT = "{{.|0|{-1|-1|.}}|0|{{.|1|1}|0|.}}"


def test_c01_toads_and_frogs_fixture():
    start = time.time()
    assert identical(tf_to_game(tf_parse("TBF")), parse(TBF_TEXT))
    assert time.time() - start < 1.0


def test_c02_outcome_fixtures():
    start = time.time()
    assert outcome(parse("{1|0|0}")) is Outcome.L
    assert outcome(leaf(0)) is Outcome.T
    assert time.time() - start < 1.0


def test_c03_partition_theorem(default_universe, deep_universe):
    for spec in (DEFAULT, DEEP):
        res = verify_partition(spec)
        assert res.passed, [c.details for c in res.checks]
    # independent recomputation of the class from raw signs
    for g in default_universe:
        sl, sr = final_scores(g)
        assert outcome(g).value == oracles.outcome_name(sl, sr)


class TestC04SumLaws:
    def test_c04_identity_exhaustive(self, default_universe):
        for g in default_universe:
            assert identical(add(zero(), g), g)
            assert identical(add(g, zero()), g)

    def test_c04_commutativity_and_associativity_sampled(
        self, default_universe
    ):
        rng = random.Random(40)
        pairs = [
            (rng.choice(default_universe), rng.choice(default_universe))
            for _ in range(10_000)
        ]
        for g, h in pairs:
            assert identical(add(g, h), add(h, g))
        for _ in range(1_500):
            g, h, j = (rng.choice(default_universe) for _ in range(3))
            assert identical(add(add(g, h), j), add(g, add(h, j)))

    def test_c04_root_score_additivity(self, default_universe):
        rng = random.Random(41)

        def check(g, h):
            s = add(g, h)
            assert s.score == g.score + h.score
            expected_left = {add(o, h) for o in g.left} | {
                add(g, o) for o in h.left
            }
            expected_right = {add(o, h) for o in g.right} | {
                add(g, o) for o in h.right
            }
            assert set(s.left) == expected_left
            assert set(s.right) == expected_right
            for o in g.left + g.right:
                check(o, h)
            for o in h.left + h.right:
                check(g, o)

        for _ in range(1_000):
            check(rng.choice(default_universe), rng.choice(default_universe))

    def test_c04_two_oracle_agreement(self, default_universe):
        rng = random.Random(42)
        ev = SumEvaluator()
        memo = {}
        for _ in range(10_000):
            g = rng.choice(default_universe)
            h = rng.choice(default_universe)
            expansion = final_scores(add(g, h))
            componentwise = ev.final_scores(g, h)
            comps = (oracles.raw(g), oracles.raw(h))
            played = (
                oracles.play_left(comps, memo),
                oracles.play_right(comps, memo),
            )
            assert expansion == componentwise == played


class TestC05Duality:
    def test_c05_exhaustive_on_sub_universe(self, tiny_universe):
        from scoreplay.order import ge_refutation_at, le_refutation_at

        ev = SumEvaluator()
        for g in tiny_universe:
            for h in tiny_universe:
                for x in tiny_universe:
                    assert (ge_refutation_at(g, h, x, ev) is None) == (
                        le_refutation_at(h, g, x, ev) is None
                    )

    def test_c05_sampled_on_default_universe(self, default_universe):
        from scoreplay import duality_check

        rng = random.Random(50)
        for _ in range(60):
            g = rng.choice(default_universe)
            h = rng.choice(default_universe)
            assert duality_check(g, h, DEFAULT)


class TestC06PartialOrder:
    def test_c06_reflexivity_never_refuted(
        self, tiny_universe, default_universe
    ):
        from scoreplay.order import find_ge_refutation

        for g in tiny_universe:
            assert find_ge_refutation(g, g, tiny_universe) is None
        rng = random.Random(60)
        sample = rng.sample(list(default_universe), 80)
        for g in sample:
            assert find_ge_refutation(g, g, default_universe) is None

    def test_c06_transitivity_probe(self, default_universe):
        from scoreplay.order import _sound_ge, find_ge_refutation

        leaves = sorted(
            (g for g in default_universe if g.is_leaf),
            key=lambda t: t.score,
        )
        checked = 0
        for i in range(len(leaves) - 2):
            j, h, g = leaves[i], leaves[i + 1], leaves[i + 2]
            assert _sound_ge(g, h) and _sound_ge(h, j)
            assert find_ge_refutation(g, j, default_universe) is None
            checked += 1
        # equivalence chains: g >= h >= g' with all three equivalent
        from scoreplay.core import _esig

        classes = {}
        for g in default_universe:
            classes.setdefault(_esig(g), []).append(g)
        for members in classes.values():
            if len(members) >= 3:
                g, h, j = members[:3]
                assert _sound_ge(g, h) and _sound_ge(h, j)
                assert find_ge_refutation(g, j, default_universe) is None
                checked += 1
                if checked >= 40:
                    break
        assert checked >= 10

    def test_c06_antisymmetry_probe(self, tiny_universe):
        from scoreplay.order import (
            find_eq_refutation,
            find_ge_refutation,
        )

        mutual = 0
        for g in tiny_universe:
            for h in tiny_universe:
                if find_ge_refutation(g, h, tiny_universe) is not None:
                    continue
                if find_ge_refutation(h, g, tiny_universe) is not None:
                    continue
                mutual += 1
                assert find_eq_refutation(g, h, tiny_universe) is None
        assert mutual >= len(tiny_universe)  # at least the diagonal


def test_c07_outcome_template_theorem():
    sweep = outcome_template_sweep(bound=3)
    assert sweep.grid_points == 7 ** 8
    # the oracle's final scores match the proof at every grid point
    assert sweep.sr_violations == 0
    assert sweep.sl_violations == 0
    # all 125 triples are realized by games built from the two template
    # shapes within the grid
    assert len(sweep.family_triples) == 125
    # regression fact: the proof's fixed role assignment reaches exactly
    # 120 of them over the integer grid; a Right-favored second summand
    # pins g <= -1, which forces e >= 2, h <= -3 and then d >= 4
    assert len(sweep.fixed_triples) == 120
    missing = {
        ("L", "N", "N"), ("R", "N", "N"), ("N", "N", "N"),
        ("P", "N", "N"), ("T", "N", "N"),
    }
    assert missing.isdisjoint(sweep.fixed_triples)
    assert missing <= sweep.family_triples


def test_c08_identity_theorem():
    res = verify_identity(DEFAULT)
    assert res.passed, [c.details for c in res.checks]
    assert res.checks[0].details == "games=1279 failures=0"
    assert res.checks[1].details == "games=1275 failures=0"
    # depth-2 games as well
    assert verify_identity(DEEP).passed
    # spot re-check through full expansion, independent of the evaluator
    from scoreplay import distinguishing_context

    rng = random.Random(80)
    for g in rng.sample(list(universe(DEFAULT)), 60):
        if g is zero():
            continue
        x = distinguishing_context(g)
        assert outcome(add(g, x)) is not outcome(x)


class TestC09CanonicalFixtures:
    def test_c09_two_forms_fixture(self):
        reduced, trace = canonicalize(parse("{{3|0|4},{3|1|4}|0|.}"), DEFAULT)
        assert render(reduced) in ("{{3|0|4}|0|.}", "{{3|1|4}|0|.}")
        assert len(trace.steps) == 1
        variants = {
            canonicalize(parse("{{3|0|4},{3|1|4}|0|.}"), DEFAULT, order_seed=s)[0]
            for s in range(6)
        }
        assert len(variants) == 2
        a, b = variants
        assert equivalent(a, b)

    def test_c09_tbf_unchanged_in_sound_mode(self):
        tbf = parse(TBF_TEXT)
        reduced, trace = canonicalize(tbf, DEFAULT)
        assert identical(reduced, tbf)
        assert trace.steps == []

    def test_c09_idempotence_universe_wide(self, default_universe):
        for g in default_universe:
            once, _ = canonicalize(g, DEFAULT)
            twice, trace = canonicalize(once, DEFAULT)
            assert identical(once, twice)
            assert trace.steps == []


def test_c10_reduction_safety(default_universe):
    res = verify_reduction_safety(SMALL, context_spec=DEFAULT)
    assert res.passed, [c.details for c in res.checks]
    res = verify_reduction_safety(
        DEFAULT, context_spec=DEFAULT, max_games=150, seed=10
    )
    assert res.passed, [c.details for c in res.checks]


def test_c11_confluence():
    games = sample_confluence_games(1000, seed=11)
    assert len(games) == 1000
    reduced_count = 0
    for g in games:
        forms = [
            canonicalize(g, DEFAULT, Mode.SOUND, order_seed=s)[0]
            for s in (None, 1, 2)
        ]
        if any(f is not g for f in forms):
            reduced_count += 1
        for f in forms[1:]:
            assert equivalent(forms[0], f), render(g)
    assert reduced_count >= 400  # the sampler must actually exercise reductions


def test_c12_cong_probe():
    res = verify_cong_probe(DEFAULT)
    assert res.passed, res.checks[0].details
    assert "pairs=0 " not in res.checks[0].details + " "


class TestC13NotationRoundTrip:
    def test_c13_universe_round_trips(self, default_universe):
        for g in default_universe:
            assert identical(parse(print_game(g, style="compact")), g)
            assert identical(parse(print_game(g, style="full")), g)

    def test_c13_pinned_strings(self):
        from test_notation import PINNED_STRINGS

        for text in PINNED_STRINGS:
            assert print_game(parse(text)) == text

    def test_c13_tbf_reprint_byte_exact(self):
        assert print_game(parse(TBF_TEXT), style="compact") == TBF_TEXT


def test_c14_reversibility_refutation_regression():
    """Widening-bound search for a context refuting A^R <= TBF.

    TBF's Left option A = {.|0|{-1|-1|.}} would be reversible if its
    Right response A^R = {-1|-1|.} were <= TBF; TBF is canonical, so a
    refuting context must exist.  The widening search
    first finds one at depth<=1, width<=1, scores {-2..2}: the context
    X = {-2|1|.} puts TBF+X in R< (Right, moving first, reaches -1)
    while A^R+X ends at 0.  Frozen here as a regression fixture.
    """
    tbf = parse(TBF_TEXT)
    a = tbf.left[0]
    ar = a.right[0]
    assert render(ar) == "{-1|-1|.}"

    schedule = [
        UniverseSpec(0, 0, (-1, 0, 1)),
        UniverseSpec(0, 0, (-2, -1, 0, 1, 2)),
        UniverseSpec(1, 1, (-1, 0, 1)),
        UniverseSpec(1, 1, (-2, -1, 0, 1, 2)),
        UniverseSpec(1, 2, (-2, -1, 0, 1, 2)),
    ]
    found = None
    for spec in schedule:
        hit = find_le_refutation(ar, tbf, universe(spec))
        if hit is not None:
            found = (spec, hit)
            break
    assert found is not None
    spec, (witness, oset) = found
    assert spec == UniverseSpec(1, 1, (-2, -1, 0, 1, 2))
    assert render(witness) == "{-2|1|.}"
    assert oset is OutcomeSet.R_LT

    # the witness genuinely refutes, by full expansion minimax
    assert set_holds(oset, *final_scores(add(tbf, witness)))
    assert not set_holds(oset, *final_scores(add(ar, witness)))
