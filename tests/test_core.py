from fractions import Fraction

import pytest
from hypothesis import given

from scoreplay import (
    PathError,
    Side,
    as_score,
    equivalent,
    game,
    identical,
    is_termination_vertex,
    leaf,
    max_abs_score,
    negate,
    parse,
    render,
    shift,
    subterm_at,
    term_order_key,
    vertices,
)

from conftest import terms


class TestScores:
    def test_fraction_normalizes_to_int(self):
        assert as_score(Fraction(4, 2)) == 2
        assert isinstance(as_score(Fraction(4, 2)), int)
        assert as_score(Fraction(-3, 2)) == Fraction(-3, 2)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            as_score(0.5)

    def test_bools_rejected(self):
        with pytest.raises(TypeError):
            as_score(True)


class TestConstruction:
    def test_leaf(self):
        assert render(leaf(0)) == "0"
        assert render(leaf(5)) == "5"
        assert render(leaf(Fraction(-3, 2))) == "-3/2"

    def test_interning_makes_identical_terms_the_same_object(self):
        assert leaf(3) is leaf(3)
        assert game([leaf(1)], 0, [leaf(2)]) is game([leaf(1)], 0, [leaf(2)])
        assert leaf(Fraction(2, 1)) is leaf(2)

    def test_option_order_and_duplicates_are_immaterial(self):
        a = game([leaf(1), leaf(2)], 0, [])
        b = game([leaf(2), leaf(1), leaf(2)], 0, [])
        assert identical(a, b)
        assert term_order_key(a) == term_order_key(b)

    def test_non_terms_rejected_as_options(self):
        with pytest.raises(TypeError):
            game([3], 0, [])

    def test_measures(self):
        assert (leaf(0).depth, leaf(0).node_count) == (0, 1)
        g = parse("{1|0|2}")
        assert (g.depth, g.node_count) == (1, 3)

    def test_tbf_measures(self):
        # the TBF Toads-and-Frogs tree: three levels below the root,
        # seven vertices in all
        tbf = parse("{{.|0|{-1|-1|.}}|0|{{.|1|1}|0|.}}")
        assert tbf.depth == 3
        assert tbf.node_count == 7


class TestNegate:
    def test_examples(self):
        assert negate(parse("{1|0|0}")) is parse("{0|0|-1}")
        assert negate(leaf(0)) is leaf(0)

    @given(terms())
    def test_involution(self, g):
        assert identical(negate(negate(g)), g)

    @given(terms())
    def test_negation_swaps_sides(self, g):
        n = negate(g)
        assert len(n.left) == len(g.right)
        assert len(n.right) == len(g.left)
        assert n.score == -g.score


class TestIdentical:
    def test_examples(self):
        assert identical(parse("{1|0|2}"), parse("{1|0|2}"))
        assert not identical(parse("{1|1|1}"), parse("{1|0|1}"))

    @given(terms())
    def test_double_negation_identity(self, g):
        assert identical(g, negate(negate(g)))


class TestTerminationVertices:
    def test_two_sided_root_is_not_termination(self):
        assert not is_termination_vertex(parse("{1|0|2}"))

    def test_one_sided_root_is_termination(self):
        assert is_termination_vertex(parse("{0|5|.}"))

    def test_every_leaf_is_termination(self):
        g = parse("{{1|0|2}|0|{3|1|4}}")
        for path, v in vertices(g):
            if v.is_leaf:
                assert is_termination_vertex(g, path)

    def test_path_addressing(self):
        g = parse("{{1|0|2}|5|{3|1|4}}")
        assert subterm_at(g, ((Side.LEFT, 0), (Side.RIGHT, 0))) is leaf(2)
        with pytest.raises(PathError):
            subterm_at(g, ((Side.LEFT, 1),))
        with pytest.raises(PathError):
            subterm_at(g, ((Side.RIGHT, 0), (Side.LEFT, 5)))


class TestEquivalent:
    def test_equal_but_not_identical_pair(self):
        # equal but not identical: the roots never end a sum
        assert equivalent(parse("{1|1|1}"), parse("{1|0|1}"))

    def test_canonical_form_pair(self):
        assert equivalent(parse("{3|0|4}"), parse("{3|1|4}"))

    def test_termination_scores_must_match(self):
        assert not equivalent(parse("{1|0|.}"), parse("{1|5|.}"))

    def test_shape_must_match(self):
        assert not equivalent(parse("{1|0|1}"), parse("{1|0|.}"))

    def test_is_equivalence_relation(self, small_universe):
        sample = small_universe[::7]
        for g in sample:
            assert equivalent(g, g)
        for g in sample:
            for h in sample:
                assert equivalent(g, h) == equivalent(h, g)
        # transitivity via signature classes
        classes = {}
        for g in small_universe:
            for h in classes:
                if equivalent(g, h):
                    classes[h].append(g)
                    break
            else:
                classes[g] = [g]
        for rep, members in classes.items():
            for a in members:
                for b in members:
                    assert equivalent(a, b)

    @given(terms())
    def test_identical_implies_equivalent(self, g):
        assert equivalent(g, negate(negate(g)))


class TestShift:
    def test_examples(self):
        assert shift(leaf(0), 2) is leaf(2)
        assert shift(parse("{1|0|2}"), -1) is parse("{0|-1|1}")

    @given(terms())
    def test_shift_zero_is_identity(self, g):
        assert shift(g, 0) is g

    @given(terms())
    def test_shift_roundtrip(self, g):
        assert shift(shift(g, Fraction(3, 2)), Fraction(-3, 2)) is g


class TestOrderKey:
    def test_equal_iff_identical(self):
        assert term_order_key(leaf(0)) == term_order_key(leaf(0))
        assert term_order_key(leaf(0)) != term_order_key(leaf(1))

    def test_sorting_is_idempotent(self):
        opts = [parse("{1|0|2}"), leaf(-1), leaf(0), parse("{.|0|1}")]
        once = sorted(opts, key=term_order_key)
        assert sorted(once, key=term_order_key) == once

    def test_zero_sorts_before_signed_leaves(self):
        order = sorted([leaf(-1), leaf(1), leaf(0)], key=term_order_key)
        assert order == [leaf(0), leaf(1), leaf(-1)]


def test_max_abs_score():
    assert max_abs_score(parse("{{.|0|{-1|-1|.}}|0|{{.|1|1}|0|.}}")) == 1
    assert max_abs_score(leaf(Fraction(-7, 2))) == Fraction(7, 2)


def test_max_abs_score_walks_shared_subterms_once():
    from scoreplay import add

    c = leaf(1)
    for _ in range(30):
        c = game([c], 0, [])
    s = add(c, c)  # about 2e16 tree nodes over 961 distinct subterms
    assert s.node_count > 10**15
    assert max_abs_score(s) == 2


def test_caches_are_observationally_transparent():
    from scoreplay import add, clear_caches, final_scores, outcome

    g = parse("{{.|0|{-1|-1|.}}|0|{{.|1|1}|0|.}}")
    h = parse("{1|0|-1}")
    before = (
        final_scores(add(g, h)),
        outcome(g),
        render(negate(g)),
        equivalent(g, h),
    )
    clear_caches()
    after = (
        final_scores(add(g, h)),
        outcome(g),
        render(negate(g)),
        equivalent(g, h),
    )
    assert before == after


def _reference_esig(g, memo):
    # The recursive nested-tuple signature that class ids replaced: equal
    # signatures mean equivalent games.
    sig = memo.get(g)
    if sig is None:
        mark = (1, g.score) if (not g.left or not g.right) else (0, 0)
        sig = (
            mark,
            tuple(sorted(_reference_esig(o, memo) for o in g.left)),
            tuple(sorted(_reference_esig(o, memo) for o in g.right)),
        )
        memo[g] = sig
    return sig


def test_class_ids_match_reference_signatures():
    from scoreplay import DEFAULT_UNIVERSE, clear_caches, universe
    from scoreplay.core import _esig
    from scoreplay.verify import sample_confluence_games

    games = list(universe(DEFAULT_UNIVERSE)) + sample_confluence_games(300, seed=7)
    memo: dict = {}
    id_of: dict = {}
    sig_of: dict = {}

    def check(g):
        sig, cid = _reference_esig(g, memo), _esig(g)
        assert id_of.setdefault(sig, cid) == cid
        assert sig_of.setdefault(cid, sig) == sig
        return cid

    before = [check(g) for g in games]
    assert len(id_of) < len(set(games))  # some classes have several games
    clear_caches()
    # Recomputed in another order, every game keeps its id.
    assert [check(g) for g in reversed(games)][::-1] == before


def _left_chain(n):
    # {{...{0|0|.}...|n-1|.}|n|.}: Left moving first steps down to n-1,
    # where Right has no move; Right moving first ends at once at n.
    c = leaf(0)
    for k in range(1, n + 1):
        c = game([c], k, [])
    return c


def _right_chain(n):
    # The mirror image with negated scores: finals (-n, -(n-1)).
    c = leaf(0)
    for k in range(1, n + 1):
        c = game([], -k, [c])
    return c


class TestDeepChains:
    N = 1000

    def test_final_scores(self):
        from scoreplay import final_scores

        assert final_scores(_left_chain(self.N)) == (self.N - 1, self.N)
        assert final_scores(_right_chain(self.N)) == (-self.N, 1 - self.N)

    def test_class_ids_and_equivalence(self):
        from scoreplay.core import _esig

        left, right = _left_chain(self.N), _right_chain(self.N)
        assert _esig(left) != _esig(right)
        assert not equivalent(left, right)
        # Every inner vertex has both options, so its score is forgotten.
        a = b = leaf(0)
        for k in range(1, self.N + 1):
            a = game([a], k, [leaf(0)])
            b = game([b], -k, [leaf(0)])
        assert a is not b
        assert _esig(a) == _esig(b)
        assert equivalent(a, b)

    def test_greater_equal(self):
        from scoreplay import (
            OutcomeSet, Proved, Refuted, SoundRule, Unrefuted, greater_equal,
        )

        left, right = _left_chain(self.N), _right_chain(self.N)
        assert isinstance(greater_equal(left, right), Unrefuted)
        # In the zero context, left + 0 is in L> (999 > 0) and right + 0 not.
        assert greater_equal(right, left) == Refuted(leaf(0), OutcomeSet.L_GT)
        assert greater_equal(left, left) == Proved(SoundRule.IDENTICAL)
