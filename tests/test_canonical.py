import pytest

from scoreplay import (
    Mode,
    Proved,
    ReductionKind,
    Refuted,
    Side,
    SoundRule,
    UniverseSpec,
    canonicalize,
    dominated_options,
    equivalent,
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
        ev = SumEvaluator()
        several = 0
        for t in subterms:
            keys = [_sort_key(s) for s in _candidates(t, DEFAULT, mode, ev)]
            assert keys == sorted(set(keys)), render(t)
            several += len(keys) > 1
        assert several > 1000
