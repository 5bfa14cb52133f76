import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from scoreplay import (
    SumEvaluator,
    add,
    distinguishing_context,
    final_scores,
    final_scores_of_sum,
    identical,
    is_numeric,
    leaf,
    negate,
    outcome,
    outcome_template,
    parse,
    render,
    vertices,
    zero,
)
from scoreplay import sums
from scoreplay.order import ContextTable, _extend_rows
from scoreplay.verify import sample_confluence_games

import oracles
from conftest import terms


def _subterms(g):
    return {v for _, v in vertices(g)}


class TestAdd:
    def test_zero_is_the_identity(self, small_universe):
        for g in small_universe:
            assert add(zero(), g) is g
            assert add(g, zero()) is g

    def test_leaves_add_like_numbers(self):
        assert add(leaf(2), leaf(Fraction(1, 2))) is leaf(Fraction(5, 2))

    def test_expansion_example(self):
        s = add(parse("{1|0|.}"), parse("{.|0|-1}"))
        # one Left option (move in the first component), one Right option
        assert render(s) == "{{.|1|0}|0|{0|-1|.}}"
        assert final_scores(s) == (0, 0)

    @given(terms(max_depth=1), terms(max_depth=1))
    def test_commutative(self, g, h):
        assert add(g, h) is add(h, g)

    def test_one_cache_entry_per_summed_pair(self):
        # no subterm of either g is one of h, so no pair is its own flip;
        # the second g has one option on both sides, so the walk reaches
        # that option's pairs twice
        h = parse("{3|4|{-2|5|.}}")
        for text, pairs in (("{{1|0|.},2|0|-1}", 20), ("{{1|0|.}|0|{1|0|.}}", 12)):
            g = parse(text)
            assert len(_subterms(g)) * len(_subterms(h)) == pairs
            sums._add_cache.clear()
            s = add(g, h)
            assert len(sums._add_cache) == pairs
            # the flipped sum computes its own pairs and interns to s
            assert add(h, g) is s
            assert len(sums._add_cache) == 2 * pairs

    @given(terms(max_depth=1), terms(max_depth=1), terms(max_depth=1))
    @settings(max_examples=40)
    def test_associative(self, g, h, j):
        assert add(add(g, h), j) is add(g, add(h, j))

    @given(terms(max_depth=1), terms(max_depth=1))
    def test_negation_distributes(self, g, h):
        assert negate(add(g, h)) is add(negate(g), negate(h))

    @given(terms(max_depth=1), terms(max_depth=1))
    def test_root_scores_add_everywhere(self, g, h):
        # every vertex of g+h is a pair of component positions, so its
        # score is a sum of two component vertex scores
        comp_scores = {
            a.score + b.score
            for _, a in vertices(g)
            for _, b in vertices(h)
        }
        for _, v in vertices(add(g, h)):
            assert v.score in comp_scores
        assert add(g, h).score == g.score + h.score


class TestTwoOracles:
    @given(terms(max_depth=1), terms(max_depth=1))
    @settings(max_examples=60)
    def test_expansion_vs_componentwise_vs_simulator(self, g, h):
        s = add(g, h)
        expansion = final_scores(s)
        componentwise = final_scores_of_sum(g, h)
        memo = {}
        played = (
            oracles.play_left((oracles.raw(g), oracles.raw(h)), memo),
            oracles.play_right((oracles.raw(g), oracles.raw(h)), memo),
        )
        assert expansion == componentwise == played

    def test_three_components(self):
        rng = random.Random(7)
        pool = [
            parse(t)
            for t in ("{1|0|.}", "{.|0|-1}", "{1|0|-1}", "2", "{-1|1|0}")
        ]
        for _ in range(25):
            g, h, j = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            s = add(add(g, h), j)
            memo = {}
            comps = (oracles.raw(g), oracles.raw(h), oracles.raw(j))
            assert final_scores(s) == (
                oracles.play_left(comps, memo),
                oracles.play_right(comps, memo),
            )


class TestNumeric:
    def test_examples(self):
        assert is_numeric(leaf(7))
        assert not is_numeric(parse("{1|0|0}"))

    @given(terms())
    def test_numeric_games_invert(self, g):
        if is_numeric(g):
            assert add(g, negate(g)) is zero()

    def test_non_numeric_sum_with_negation_is_not_the_zero_term(
        self, small_universe
    ):
        for g in small_universe:
            if not is_numeric(g):
                assert not identical(add(g, negate(g)), zero())


class TestDistinguishingContext:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            distinguishing_context(zero())

    def test_nonzero_leaf_uses_empty_context(self):
        x = distinguishing_context(leaf(5))
        assert x is zero()
        assert outcome(add(leaf(5), x)) is not outcome(x)

    def test_left_sided_example(self):
        g = parse("{0|0|.}")
        x = distinguishing_context(g)
        assert render(x) == "{.|1|-1}"
        assert outcome(add(g, x)) is not outcome(x)

    def test_right_sided_mirror(self):
        g = parse("{.|0|0}")
        x = distinguishing_context(g)
        assert render(x) == "{1|-1|.}"
        assert outcome(add(g, x)) is not outcome(x)

    def test_works_universe_wide(self, small_universe):
        for g in small_universe:
            if g is zero():
                continue
            x = distinguishing_context(g)
            assert outcome(add(g, x)) is not outcome(x), render(g)


class TestOutcomeTemplate:
    def test_all_zero_parameters_tie(self):
        G, H = outcome_template(0, 0, 0, 0, 0, 0, 0, 0)
        assert outcome(G) is outcome(H) is outcome(add(G, H))
        assert outcome(G).value == "T"

    def test_shapes(self):
        G, H = outcome_template(1, 2, 3, 4, 5, 6, 7, 8)
        assert render(G) == "{{{4|3|5}|2|.}|1|.}"
        assert render(H) == "{.|6|{.|7|8}}"

    def test_sum_final_scores_follow_the_proof(self):
        rng = random.Random(3)
        for _ in range(200):
            a, b, c, d, e, f, g, h = (rng.randint(-3, 3) for _ in range(8))
            G, H = outcome_template(a, b, c, d, e, f, g, h)
            sl, sr = final_scores_of_sum(G, H)
            assert sr == e + h
            assert sl in (e + g, d + h)
            assert sl == min(e + g, d + h)


class TestSumEvaluator:
    def test_matches_expansion_on_universe_pairs(self, tiny_universe):
        ev = SumEvaluator()
        for g in tiny_universe[::5]:
            for h in tiny_universe[::5]:
                assert ev.final_scores(g, h) == final_scores(add(g, h))

    def test_one_memo_entry_per_evaluated_pair(self):
        # the second g reaches its one option's pairs from both sides
        h = parse("{3|4|{-2|5|.}}")
        for text, pairs, scores in (
            ("{{1|0|.},2|0|-1}", 20, (6, 2)),
            ("{{1|0|.}|0|{1|0|.}}", 12, (6, 3)),
        ):
            g = parse(text)
            ev = SumEvaluator()
            assert ev.final_scores(g, h) == scores == final_scores(add(g, h))
            assert len(ev._memo) == len(_subterms(g)) * len(_subterms(h)) == pairs

    # Pairs where play ends at the root on a side: each pair is taken both
    # ways round, so "only g" and "only h" have a move there in turn.
    # Every root score is a half, and the two roots sum to a whole.
    END_OF_PLAY_PAIRS = [
        # neither has a move on either side
        ("1/2", "1/2"), ("-3/2", "{.|1/2|.}"),
        # Left: only one has a move; Right: neither has one
        ("{3/2|1/2|.}", "1/2"), ("{{.|1/2|1}|-1/2|.}", "-1/2"),
        # Right: only one has a move; Left: neither has one
        ("{.|1/2|-1/2}", "1/2"), ("{.|-1/2|{-1|1/2|.}}", "3/2"),
        # Left: only the second has a move; Right: only the first
        ("{.|1/2|{-1/2|0|.}}", "{{3/2|1/2|.}|-1/2|.}"),
        # neither on Left, both on Right
        ("{.|1/2|-1}", "{.|1/2|{2|0|.}}"),
    ]

    def test_matches_the_oracles_on_sampled_pairs(self):
        games = sample_confluence_games(300, seed=19)
        rng, ev = random.Random(19), SumEvaluator()
        pairs = [(rng.choice(games), rng.choice(games)) for _ in range(300)]
        for a, b in self.END_OF_PLAY_PAIRS:
            a, b = parse(a), parse(b)
            pairs += [(a, b), (b, a)]
        for g, h in pairs:
            memo = {}
            comps = (oracles.raw(g), oracles.raw(h))
            played = (
                oracles.play_left(comps, memo), oracles.play_right(comps, memo)
            )
            assert ev.final_scores(g, h) == ev.final_scores(h, g) == played
            assert final_scores_of_sum(g, h) == played
            # a whole score comes back as an int, as add's terms hold it
            for v in ev.final_scores(g, h):
                assert type(v) is (int if v.denominator == 1 else Fraction)

    def test_whole_sums_of_halves_are_ints(self):
        # as add's terms hold them: a whole score has one representation
        half = leaf(Fraction(1, 2))
        assert type(add(half, half).score) is int
        assert [type(v) for v in final_scores_of_sum(half, half)] == [int, int]
        sl, sr = _extend_rows(half, ContextTable([half, leaf(0)]), {})
        assert (sl, sr) == ([1, Fraction(1, 2)], [1, Fraction(1, 2)])
        assert [type(v) for v in sl + sr] == [int, Fraction, int, Fraction]

    def test_outcome_shortcut(self):
        g, h = parse("{1|0|.}"), parse("{.|0|-1}")
        assert SumEvaluator().outcome(g, h) is outcome(add(g, h))
