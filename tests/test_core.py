import copy
import dataclasses
import operator
import pickle
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given

from scoreplay import (
    GameTerm,
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

from scoreplay import core
from scoreplay.core import _postorder, _walk

from conftest import terms
from test_canonical import _shared_chain


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


class TestRecord:
    def test_no_instance_dict(self):
        g = parse("{1|0|2}")
        assert not hasattr(g, "__dict__")

    def test_fields_are_frozen(self):
        g = parse("{1|0|2}")
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.score = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.okey = ()
        assert g.score == 0

    def test_exactly_the_eight_fields(self):
        assert [f.name for f in dataclasses.fields(GameTerm)] == [
            "left", "score", "right", "depth", "node_count", "okey", "sl", "sr",
        ]

    def test_equality_and_hash_are_identity(self):
        g = parse("{1|0|2}")
        # Built past game(), so not interned: equal fields, another object.
        twin = GameTerm(g.left, g.score, g.right, g.depth, g.node_count,
                        g.okey, g.sl, g.sr)
        assert g == g and hash(g) == object.__hash__(g)
        assert twin != g and not twin == g
        assert hash(twin) == object.__hash__(twin)
        assert len({g, twin}) == 2

    def test_repr_renders_small_terms(self):
        assert repr(parse("{1|0|0}")) == "GameTerm({1|0|0})"
        assert repr(leaf(Fraction(-3, 2))) == "GameTerm(-3/2)"

    def test_repr_of_a_shared_sum_is_short_and_immediate(self):
        from scoreplay import add

        # {c|0|c} on c, 200 levels deep: 2**201 - 1 tree positions, and
        # its sum with itself spells out vastly more.
        c = leaf(0)
        for _ in range(200):
            c = game([c], 0, [c])
        s = add(c, c)
        start = time.perf_counter()
        text = repr(s)
        assert time.perf_counter() - start < 0.1
        assert text == f"GameTerm(<{s.node_count} nodes, depth {s.depth}>)"
        assert len(text) < 200
        assert repr(c).startswith("GameTerm(<")

    def test_pickled_and_copied_terms_stay_interned(self):
        from scoreplay import add, tf_parse, tf_to_game

        g = parse("{1|0|0}")
        for t in (
            leaf(3),
            leaf(Fraction(-3, 2)),
            add(g, negate(g)),
            tf_to_game(tf_parse("TTBFF")),
            _shared_chain(200),
        ):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(t, protocol)) is t
            assert copy.copy(t) is t is copy.deepcopy(t)


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
        for step in ((Side.LEFT, 0.5), (Side.LEFT, "0"), (Side.LEFT,),
                     (Side.LEFT, True)):
            with pytest.raises(PathError, match="step 1"):
                subterm_at(g, ((Side.RIGHT, 0), step))


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

    def test_default_universe_is_in_reference_order(self, default_universe):
        games = list(default_universe)
        assert games == sorted(games, key=_reference_key)
        assert sorted(reversed(games), key=term_order_key) == games

    def test_sample_games_and_sums_sort_as_the_reference(self):
        from scoreplay import add
        from scoreplay.verify import sample_confluence_games

        games = sample_confluence_games(2000, seed=3)
        sums = [add(g, h) for g, h in zip(games, games[1:])]
        for pool in (games, sums):
            assert sorted(pool, key=term_order_key) == sorted(
                pool, key=_reference_key)

    def test_comparisons_agree_with_the_reference(self, default_universe):
        from scoreplay import add
        from scoreplay.verify import sample_confluence_games

        def lift(g):
            # 40 levels, past core._SHALLOW, alternately as the one Left
            # and the one Right option beside a zero.
            for i in range(40):
                left, right = ([g], [leaf(0)]) if i % 2 else ([leaf(0)], [g])
                g = game(left, 0, right)
            return g

        games = sample_confluence_games(300, seed=3)
        deep = lift(leaf(0))
        pool = sorted(
            {*games, *(add(g, h) for g, h in zip(games, games[1:])),
             *default_universe[::7], *map(lift, games[:60]),
             # tie on the first three fields, Left options (1,) vs (1, deep)
             game([leaf(1)], 0, [deep]), game([leaf(1), deep], 0, [])},
            key=_reference_key,
        )
        # Neighbours in order mostly tie on their first three fields and
        # are told apart by options; the reversed pairs and a stride
        # through the pool check the other answers.
        pairs = [*zip(pool, pool[1:]), *zip(pool[1:], pool),
                 *zip(pool, pool[::-13]), *((g, g) for g in pool[::11])]
        option_ties = 0
        for g, h in pairs:
            kg, kh = term_order_key(g), term_order_key(h)
            rg, rh = _reference_key(g), _reference_key(h)
            option_ties += kg[:3] == kh[:3] and g is not h
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                assert op(kg, kh) == op(g, h) == op(rg, rh), (op, g, h)
            assert (kg == kh) == (g is h)
        assert option_ties > 100
        with pytest.raises(TypeError):
            leaf(0) < 0

    def test_key_slots_are_the_option_tuples_and_the_intern_key(self):
        from scoreplay import add

        g = parse("{{1|0|.},2|0|-1}")
        for t in (
            g,
            parse("{1/2|-3|{.|1|0},2}"),
            add(g, parse("{1|0|0}")),
            negate(g),
            pickle.loads(pickle.dumps(add(g, negate(g)))),
            pickle.loads(pickle.dumps(leaf(Fraction(-3, 2)))),
        ):
            assert t.okey[3] is t.left
            assert t.okey[4] is t.right
            assert core._interned[t.okey] is t

    def test_deep_ties_compare_without_recursion(self):
        # Two chains that differ only at their bottom leaves tie on every
        # field down 3,000 levels, far past the recursion limit.
        def chain(x):
            c = leaf(x)
            for _ in range(3000):
                c = game([c], 0, [])
            return c

        a, b = chain(1), chain(2)
        ka, kb = term_order_key(a), term_order_key(b)
        assert a < b and a <= b and b > a and b >= a
        assert not (b < a or b <= a or a > b or a >= b)
        assert ka < kb and ka <= kb and kb > ka and kb >= ka
        assert sorted([b, a]) == sorted([b, a], key=term_order_key) == [a, b]
        assert game([b, a], 0, []).left == (a, b)
        assert game([b, a], 0, []) is game([a, b], 0, [])


def _reference_key(g):
    """The order key spelled out recursively, options by their own keys."""
    return (
        g.node_count, abs(g.score), g.score < 0,
        tuple(_reference_key(o) for o in g.left),
        tuple(_reference_key(o) for o in g.right),
    )


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


def test_shift_and_is_canonical_walk_shared_subterms_once():
    from scoreplay import DEFAULT_UNIVERSE, add, is_canonical

    c = leaf(1)
    for _ in range(20):
        c = game([c], 0, [])
    s = add(c, c)  # about 3.3e10 tree nodes over 231 distinct subterms
    start = time.perf_counter()
    shifted = shift(s, 1)
    assert (shifted.score, max_abs_score(shifted)) == (1, 3)
    assert shift(shifted, -1) is s
    assert is_canonical(s, DEFAULT_UNIVERSE)
    assert time.perf_counter() - start < 1.0


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


def test_every_memo_registers_with_clear_caches():
    from scoreplay import (
        DEFAULT_UNIVERSE, add, canonical, canonicalize, clear_caches, core,
        greater_equal, order, rulesets, sums, tf_parse, tf_to_game, universe,
    )
    from scoreplay.order import find_ge_refutation

    memos = [
        core._negate_cache, core._esig_cache, sums._add_cache,
        canonical._sound_forms, rulesets._tf_cache, order._universe_cache,
    ]
    assert len(core._caches) == len(memos)
    assert {id(m) for m in core._caches} == {id(m) for m in memos}
    g = parse("{{.|0|{-1|-1|.}}|0|{{.|1|1}|0|.}}")
    h = parse("{1|0|-1}")
    u = universe(DEFAULT_UNIVERSE)
    x, y = leaf(0), leaf(1)

    def results():
        form, trace = canonicalize(parse("{2,1|0|.}"), DEFAULT_UNIVERSE)
        return (
            negate(g), core._esig(g), add(g, h), form, trace.steps,
            tf_to_game(tf_parse("TTBFF")), greater_equal(g, h),
            greater_equal(x, y),
        )

    before = results()
    assert all(memos)
    table = u.table
    clear_caches()
    assert not any(memos)
    assert u.table is table
    # find_* over a tuple held across the clear still fills its table
    table.masks.pop(core._esig(x), None)
    refuted = before[-1]
    assert find_ge_refutation(x, y, u) == (
        refuted.witness, refuted.witness_set
    )
    assert core._esig(x) in table.masks
    fresh = universe(DEFAULT_UNIVERSE)
    assert fresh is not u and fresh == u
    assert results() == before


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

    def test_negate_and_shift(self):
        from scoreplay import final_scores

        left, right = _left_chain(self.N), _right_chain(self.N)
        assert negate(left) is right
        for c in (left, right):
            assert negate(negate(c)) is c
            assert shift(shift(c, 1), -1) is c
        assert final_scores(shift(left, 1)) == (self.N, self.N + 1)

    def test_add(self):
        from scoreplay import add, parse

        c = _left_chain(self.N)
        assert add(c, leaf(3)) is shift(c, 3)
        h = parse("{1|0|-1}")
        assert add(c, h) is negate(add(negate(c), negate(h)))

    def test_final_scores_of_sum(self):
        from scoreplay import add, final_scores, final_scores_of_sum

        c = _left_chain(self.N)
        h = parse("{1|0|-1}")
        assert final_scores_of_sum(c, h) == final_scores(add(c, h))

    def test_canonicalize(self):
        from scoreplay import DEFAULT_UNIVERSE, ReductionKind, canonicalize

        # {3|0|4} and {3|1|4} are equivalent, so one dominates the other
        t = parse("{{3|0|4},{3|1|4}|0|.}")
        expected = parse("{{3|0|4}|0|.}")
        for k in range(1, self.N + 1):
            t = game([t], k, [])
            expected = game([expected], k, [])
        reduced, trace = canonicalize(t, DEFAULT_UNIVERSE)
        assert reduced is expected
        [step] = trace.steps
        assert step.kind is ReductionKind.DOMINATION
        assert step.removed is parse("{3|1|4}")
        assert step.path == ((Side.LEFT, 0),) * self.N

    def test_is_canonical(self):
        from scoreplay import DEFAULT_UNIVERSE, is_canonical

        assert is_canonical(_left_chain(self.N), DEFAULT_UNIVERSE)
        assert is_canonical(_right_chain(self.N), DEFAULT_UNIVERSE)


def _reference_postorder(g, done):
    # The walk with a pending list and a seen set that _postorder replaced.
    order = []
    seen = set()
    stack = [g]
    while stack:
        t = stack[-1]
        if t in seen or t in done:
            stack.pop()
            continue
        pending = [o for o in t.left + t.right if o not in seen and o not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        seen.add(t)
        order.append(t)
    return order


def _walk_inputs():
    from scoreplay import add
    from scoreplay.verify import sample_confluence_games

    c = leaf(1)
    for _ in range(20):
        c = game([c], 0, [])
    return sample_confluence_games(200, seed=23) + [add(c, c), _left_chain(1000)]


def _reachable(g, done):
    # Every term reachable from g without entering a term in done.
    seen = set()
    stack = [] if g in done else [g]
    while stack:
        t = stack.pop()
        if t not in seen:
            seen.add(t)
            stack.extend(o for o in t.left + t.right if o not in done)
    return seen


class TestWalk:
    @staticmethod
    def _check(g, done):
        # Booleans only: a failing assert would print these terms, and a
        # sum of chains has about 3.3e10 tree positions.
        order, uses = _walk(g, done)
        shared = _postorder(g, done) == order
        assert shared and len(set(order)) == len(order)
        same = set(order) == set(_reference_postorder(g, done))
        reachable = set(order) == _reachable(g, done)
        assert same and reachable
        position = {t: i for i, t in enumerate(order)}
        first = all(
            o in done or position[o] < position[t]
            for t in order for o in t.left + t.right
        )
        assert first
        edges = Counter(o for t in order for o in t.left + t.right if o not in done)
        counted = uses == {t: edges[t] for t in order}
        assert counted
        last = not order or order[-1] is g and uses[g] == 0
        assert last

    def test_every_subterm_once_after_its_options(self):
        for g in _walk_inputs():
            self._check(g, ())

    def test_done_terms_and_what_only_they_reach_are_skipped(self):
        from scoreplay import add

        inputs = _walk_inputs()
        for g in inputs:
            self._check(g, {g})
            for o in g.left + g.right:
                self._check(g, {o})
        # The 500 terms above the middle of the chain, and nothing below.
        chain = inputs[-1]
        middle = subterm_at(chain, ((Side.LEFT, 0),) * 500)
        self._check(chain, {middle})
        assert len(_postorder(chain, {middle})) == 500
        # x stays reachable past d, which also reaches it.
        x = parse("{1|0|-1}")
        d = game([x], 2, [])
        g = game([d, x], 0, [d])
        assert _postorder(g, {d}) == [leaf(1), leaf(-1), x, g]
        self._check(add(g, g), {d})
