import random
from dataclasses import replace

import pytest

from scoreplay import (
    Mode,
    Proved,
    ReductionKind,
    Refuted,
    ReductionTrace,
    Side,
    SoundRule,
    UniverseSpec,
    add,
    canonicalize,
    clear_caches,
    dominated_options,
    equivalent,
    game,
    identical,
    is_canonical,
    leaf,
    parse,
    reduce_step,
    render,
    reversible_options,
    tf_parse,
    tf_to_game,
    universe,
)
from scoreplay import canonical
from scoreplay.canonical import _candidates
from scoreplay.core import _postorder
from scoreplay.sums import SumEvaluator
from scoreplay.verify import sample_confluence_games

from conftest import DEFAULT, TINY

TBF = tf_to_game(tf_parse("TBF"))
TWO_FORMS = "{{3|0|4},{3|1|4}|0|.}"


class TestDominatedOptions:
    def test_mutually_equivalent_options_dominate_each_other(self):
        doms = dominated_options(parse(TWO_FORMS), DEFAULT)
        assert len(doms) == 2
        for side, worse, better, verdict in doms:
            assert side is Side.LEFT
            assert verdict == Proved(SoundRule.EQUIVALENT)
        removed = {render(worse) for _, worse, _, _ in doms}
        assert removed == {"{3|0|4}", "{3|1|4}"}

    def test_single_option_cannot_be_dominated(self):
        assert dominated_options(parse("{1|0|.}"), DEFAULT) == []

    def test_numeric_domination(self):
        doms = dominated_options(parse("{2,1|0|.}"), DEFAULT)
        assert len(doms) == 1
        side, worse, better, verdict = doms[0]
        assert (side, worse, better) == (Side.LEFT, leaf(1), leaf(2))
        assert verdict == Proved(SoundRule.NUMERIC_ORDER)

    def test_right_side_prefers_smaller(self):
        doms = dominated_options(parse("{.|0|1,2}"), DEFAULT)
        assert len(doms) == 1
        side, worse, better, _ = doms[0]
        assert (side, worse, better) == (Side.RIGHT, leaf(2), leaf(1))


class TestReversibleOptions:
    def test_tbf_sound_mode_empty(self):
        assert reversible_options(TBF, DEFAULT, Mode.SOUND) == []

    def test_sound_mode_is_always_empty(self, small_universe):
        # a sound <= between a proper subterm and the whole game would
        # need equal tree sizes, so reversibility can only fire
        # conjecturally
        for g in small_universe[::10]:
            assert reversible_options(g, DEFAULT, Mode.SOUND) == []

    def test_bounded_search_settles_the_spec_example(self):
        # {{.|0|{0|0|0}}|0|.}: the candidate reversal through {0|0|0} is
        # refuted by the context {1|0|.}, so even conjectural mode keeps it
        g = parse("{{.|0|{0|0|0}}|0|.}")
        assert reversible_options(g, DEFAULT, Mode.CONJECTURAL) == []
        from scoreplay import less_equal

        v = less_equal(parse("{0|0|0}"), g, DEFAULT)
        assert isinstance(v, Refuted)
        assert render(v.witness) == "{1|0|.}"

    def test_zero_has_no_options(self):
        assert reversible_options(leaf(0), DEFAULT, Mode.CONJECTURAL) == []

    def test_conjectural_reversal_when_search_is_too_weak(self):
        # with a universe too small to refute A^R <= TBF, conjectural mode
        # flags TBF's Left option as reversible
        weak = UniverseSpec(1, 1, (-1, 0, 1))
        revs = reversible_options(TBF, weak, Mode.CONJECTURAL)
        assert [
            (side.value, render(a), render(r)) for side, a, r, _ in revs
        ] == [
            ("L", "{.|0|{-1|-1|.}}", "{-1|-1|.}"),
            ("R", "{{.|1|1}|0|.}", "{.|1|1}"),
        ]


class TestReduceStep:
    def test_two_forms_example(self):
        reduced, step = reduce_step(parse(TWO_FORMS), DEFAULT)
        assert render(reduced) == "{{3|0|4}|0|.}"
        assert step.kind is ReductionKind.DOMINATION
        assert render(step.removed) == "{3|1|4}"
        assert render(step.witness) == "{3|0|4}"

    def test_tbf_is_irreducible_in_sound_mode(self):
        assert reduce_step(TBF, DEFAULT) is None

    def test_numeric_example(self):
        reduced, _ = reduce_step(parse("{2,1|0|.}"), DEFAULT)
        assert render(reduced) == "{2|0|.}"

    def test_steps_strictly_shrink_the_tree(self, small_universe):
        for g in small_universe:
            node = g
            while True:
                hit = reduce_step(node, TINY)
                if hit is None:
                    break
                reduced, _ = hit
                assert reduced.node_count < node.node_count
                node = reduced


class TestCanonicalize:
    def test_two_forms_fixture(self):
        reduced, trace = canonicalize(parse(TWO_FORMS), DEFAULT)
        assert render(reduced) == "{{3|0|4}|0|.}"
        assert len(trace.steps) == 1
        assert not trace.conjectural

    def test_seed_variants_are_equivalent(self):
        forms = {
            canonicalize(parse(TWO_FORMS), DEFAULT, order_seed=s)[0]
            for s in range(8)
        }
        assert {render(f) for f in forms} == {"{{3|0|4}|0|.}", "{{3|1|4}|0|.}"}
        forms = list(forms)
        assert equivalent(forms[0], forms[1])

    def test_tbf_unchanged(self):
        reduced, trace = canonicalize(TBF, DEFAULT)
        assert identical(reduced, TBF)
        assert trace.steps == []

    def test_idempotent(self, small_universe):
        for g in small_universe[::3]:
            once, _ = canonicalize(g, TINY)
            twice, trace = canonicalize(once, TINY)
            assert identical(once, twice)
            assert trace.steps == []

    def test_reduces_nested_options(self):
        g = parse("{{2,1|0|.}|0|.}")
        reduced, trace = canonicalize(g, DEFAULT)
        assert render(reduced) == "{{2|0|.}|0|.}"
        assert trace.steps[0].path == ((Side.LEFT, 0),)

    def test_conjectural_trace_is_flagged(self):
        weak = UniverseSpec(1, 1, (-1, 0, 1))
        reduced, trace = canonicalize(TBF, weak, Mode.CONJECTURAL)
        assert trace.conjectural
        assert not identical(reduced, TBF)


class TestIsCanonical:
    def test_fixtures(self):
        assert is_canonical(TBF, DEFAULT)
        assert not is_canonical(parse(TWO_FORMS), DEFAULT)
        assert is_canonical(leaf(3), DEFAULT)

    def test_checks_all_depths(self):
        assert not is_canonical(parse("{{2,1|0|.}|0|.}"), DEFAULT)

    def test_tbf_conjecturally_canonical_once_search_is_strong_enough(self):
        # the default universe contains {-2|1|.}, which refutes the only
        # candidate reversal, so TBF stays canonical even conjecturally
        assert is_canonical(TBF, DEFAULT, Mode.CONJECTURAL)
        assert not is_canonical(
            TBF, UniverseSpec(1, 1, (-1, 0, 1)), Mode.CONJECTURAL
        )


def _sort_key(step):
    """The order reduce_step once sorted its candidates by: kind, side,
    then the term order of the dominating (or reversible) option and of
    the other; kept here as the reference for ``_candidates``."""
    side = 0 if step.side is Side.LEFT else 1
    if step.kind is ReductionKind.DOMINATION:
        return (0, side, step.witness.okey, step.removed.okey)
    return (1, side, step.removed.okey, step.witness.okey)


class TestCandidateOrder:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_generation_order_is_the_sort_order(self, mode):
        games = (
            sample_confluence_games(3000, seed=7)
            + sample_confluence_games(1000, seed=11, scores=(-1, 0, 1))
            + list(universe(DEFAULT))
        )
        subterms = dict.fromkeys(t for g in games for t in _postorder(g, ()))
        several = 0
        for t in subterms:
            keys = [_sort_key(s) for s in _candidates(t, DEFAULT, mode)]
            assert keys == sorted(set(keys)), render(t)
            several += len(keys) > 1
        assert several > 1000


def _tree_canonicalize(g, spec, mode=Mode.SOUND, order_seed=None, evaluator=None):
    """The walker that canonicalize memoized: every tree position reduced
    afresh, Left options then Right, each before its parent; kept here as
    the reference for forms and traces."""
    ev = evaluator or SumEvaluator()
    rng = random.Random(order_seed) if order_seed is not None else None
    trace = ReductionTrace()
    # (position's term, its path, the canonical forms of its options so far)
    stack = [(g, (), [])]
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


def _fields(trace):
    return [
        (s.kind, s.side, s.removed, s.witness, s.justification, s.path)
        for s in trace.steps
    ]


def _shared_chain(levels):
    """{c|0|c} on c, levels deep from 0: one distinct subterm per level,
    2**(levels + 1) - 1 tree positions, and no SOUND reduction anywhere
    (CONJECTURAL mode reverses every level)."""
    c = leaf(0)
    for _ in range(levels):
        c = game([c], 0, [c])
    return c


class TestMemoizedWalk:
    @pytest.mark.parametrize("seed", [None, 4])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_forms_and_traces_match_the_tree_walker(self, mode, seed):
        singles = sample_confluence_games(300, seed=31)
        rng = random.Random(31)
        sums = [add(rng.choice(singles[:40]), rng.choice(singles[:40]))
                for _ in range(25)]
        spec = DEFAULT if mode is Mode.SOUND else UniverseSpec(1, 1, (-1, 0, 1))
        ev = SumEvaluator()
        steps = below = 0
        for g in singles + sums:
            want, ref = _tree_canonicalize(g, spec, mode, seed, ev)
            # twice: a SOUND call also reads what earlier calls kept
            for _ in range(2):
                got, trace = canonicalize(g, spec, mode, seed, ev)
                assert got is want, render(g)
                assert _fields(trace) == _fields(ref), render(g)
            steps += len(ref.steps)
            below += any(s.path for s in ref.steps)
        assert steps > 300 and below > 50

    def test_shared_subterms_are_reduced_once(self, monkeypatch):
        calls = []
        plain = canonical.reduce_step

        def counted(g, *args):
            calls.append(g)
            return plain(g, *args)

        monkeypatch.setattr(canonical, "reduce_step", counted)
        chain = _shared_chain(200)
        g = game([chain, leaf(1), leaf(2)], 0, [chain])
        clear_caches()
        form, trace = canonicalize(g, TINY)
        assert form is game([chain, leaf(2)], 0, [chain])
        assert len(trace.steps) == 1 and trace.steps[0].path == ()
        # one call per distinct subterm (the chain's 201, two leaves and
        # g), and one more at g for the step applied there
        assert len(calls) == 201 + 2 + 1 + 1
        calls.clear()
        assert is_canonical(chain, TINY)
        assert calls == []  # is_canonical only looks for candidates

    @pytest.mark.parametrize("seed", [4, 9])
    def test_seeded_calls_match_the_tree_walker_cold_and_warm(self, seed):
        singles = sample_confluence_games(300, seed=31)
        rng = random.Random(31)
        sums = [add(rng.choice(singles[:40]), rng.choice(singles[:40]))
                for _ in range(25)]
        games = singles + sums
        ev = SumEvaluator()
        want = [_tree_canonicalize(g, DEFAULT, Mode.SOUND, seed, ev) for g in games]

        def check(g, form, ref):
            got, trace = canonicalize(g, DEFAULT, order_seed=seed, evaluator=ev)
            assert got is form, render(g)
            assert _fields(trace) == _fields(ref), render(g)

        for g, (form, ref) in zip(games, want):
            clear_caches()
            check(g, form, ref)
        unseeded = [canonicalize(g, DEFAULT, evaluator=ev)[1] for g in games]
        # the warm memo replays root steps that a seeded call must redraw
        assert sum(type(v) is tuple for v in canonical._sound_forms.values()) > 300
        assert sum(_fields(a) != _fields(b) for a, (_, b) in zip(unseeded, want)) > 50
        for g, (form, ref) in zip(games, want):
            check(g, form, ref)

    def test_seeded_shared_subterms_are_reduced_once(self, monkeypatch):
        calls = []
        plain = canonical.reduce_step

        def counted(g, *args):
            calls.append(g)
            return plain(g, *args)

        monkeypatch.setattr(canonical, "reduce_step", counted)
        chain = _shared_chain(200)
        g = game([chain, leaf(1), leaf(2)], 0, [chain])
        form = game([chain, leaf(2)], 0, [chain])
        clear_caches()
        # Booleans and counts only: a failing assert would print these
        # terms, whose trees have 2**201 positions.
        same = canonicalize(g, TINY, order_seed=1)[0] is form
        # as unseeded: one call per distinct subterm, and one more at g
        # for the step applied there
        assert same and len(calls) == 201 + 2 + 1 + 1
        # g's options are remembered now, and after an unseeded call g's
        # root step too, which a seeded call redraws: only g is reduced
        for unseeded in (False, True):
            if unseeded:
                canonicalize(g, TINY)
            calls.clear()
            same = canonicalize(g, TINY, order_seed=1)[0] is form
            at_root = len(calls) == 2 and calls[0] is g and calls[1] is form
            assert same and at_root

    def test_seeded_calls_remember_step_free_subterms_only(self):
        g = parse("{{2,1|0|.},1,2|0|{{2,1|0|.}|0|.}}")
        clear_caches()
        form, trace = canonicalize(g, DEFAULT, order_seed=1)
        assert {bool(s.path) for s in trace.steps} == {True, False}
        assert canonical._sound_forms
        assert all(v is k for k, v in canonical._sound_forms.items())
        # reduced at its root with nothing below, kept by an unseeded call
        assert parse("{2,1|0|.}") not in canonical._sound_forms
        canonicalize(g, DEFAULT)
        assert type(canonical._sound_forms[parse("{2,1|0|.}")]) is tuple

    def test_clear_caches_empties_sound_forms(self):
        g = parse(TWO_FORMS)
        form, trace = canonicalize(g, DEFAULT)
        assert canonical._sound_forms
        clear_caches()
        assert canonical._sound_forms == {}
        again, retrace = canonicalize(g, DEFAULT)
        assert again is form and _fields(retrace) == _fields(trace)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_is_canonical_means_no_subterm_has_a_candidate(self, mode):
        games = sample_confluence_games(300, seed=37) + list(universe(DEFAULT))
        ev = SumEvaluator()
        spec = UniverseSpec(1, 1, (-1, 0, 1))
        verdicts = []
        for g in games:
            want = not any(
                _candidates(t, spec, mode) for t in _postorder(g, ())
            )
            assert is_canonical(g, spec, mode, ev) is want, render(g)
            verdicts.append(want)
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_is_canonical_tries_each_subterm_once_and_stops(
            self, monkeypatch, mode):
        calls = []
        plain = canonical._candidates

        def counted(t, *args):
            calls.append(t)
            return plain(t, *args)

        monkeypatch.setattr(canonical, "_candidates", counted)
        chain = _shared_chain(200)
        g = game([chain, leaf(1), leaf(2)], 0, [chain])
        # no SOUND step in the chain; CONJECTURAL reverses every level
        for t, want in ((chain, mode is Mode.SOUND), (g, False)):
            calls.clear()
            assert is_canonical(t, TINY, mode) is want
            assert len(set(calls)) == len(calls) <= len(_postorder(t, ()))
            if mode is Mode.CONJECTURAL:
                assert len(calls) < 10
