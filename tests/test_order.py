import copy
import random
from fractions import Fraction

import pytest

from scoreplay import (
    DEFAULT_UNIVERSE,
    Proved,
    Refuted,
    SoundRule,
    SumEvaluator,
    UniverseSpec,
    Unrefuted,
    OutcomeSet,
    add,
    duality_check,
    enumerate_universe,
    equal,
    equivalent,
    final_scores,
    game,
    greater_equal,
    leaf,
    less_equal,
    outcome,
    parse,
    render,
    shift,
    term_order_key,
    universe,
    universe_size,
    zero,
)
from scoreplay import order
from scoreplay.core import _esig, _postorder, as_score
from scoreplay.order import (
    DOWN_SETS,
    UP_SETS,
    _NUM_L,
    ContextTable,
    _Games,
    _class_masks,
    _extend_rows,
    _mask_refutation,
    _outcome_masks,
    _sound_ge,
    _universe_cache,
    find_eq_refutation,
    find_ge_refutation,
    find_le_refutation,
    ge_refutation_at,
    le_refutation_at,
)
from scoreplay.score import outcome_from_scores, set_holds
from scoreplay.verify import sample_confluence_games

import oracles
from conftest import DEEP, SMALL, TINY


class TestUniverseSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            UniverseSpec(-1, 0, (0,))
        with pytest.raises(ValueError):
            UniverseSpec(1, 1, ())

    def test_scores_normalized(self):
        assert UniverseSpec(1, 1, (1, 0, 1, -1)).scores == (0, 1, -1)

    def test_refuses_astronomical_universes(self):
        with pytest.raises(ValueError):
            universe(UniverseSpec(2, 2, (-2, -1, 0, 1, 2)))


class TestEnumeration:
    def test_single_leaf(self):
        assert list(enumerate_universe(UniverseSpec(0, 0, (0,)))) == [zero()]

    def test_three_leaves(self):
        games = list(enumerate_universe(UniverseSpec(0, 0, (-1, 0, 1))))
        assert games == [leaf(0), leaf(1), leaf(-1)]

    def test_count_against_nested_loop_generator(self):
        # depth<=1, width<=1, scores {0,1}: independent construction
        from scoreplay import game

        leaves = [leaf(0), leaf(1)]
        option_sets = [(), (leaves[0],), (leaves[1],)]
        expected = {
            render(game(lt, s, rt))
            for lt in option_sets
            for s in (0, 1)
            for rt in option_sets
        }
        got = {render(g) for g in enumerate_universe(UniverseSpec(1, 1, (0, 1)))}
        assert got == expected
        assert len(got) == 18

    def test_sorted_and_duplicate_free(self, small_universe):
        keys = [term_order_key(g) for g in small_universe]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("spec", [
        DEFAULT_UNIVERSE, UniverseSpec(1, 1, (1, 2)), DEEP,
        UniverseSpec(2, 1, (0, 1, -1, 2, -2)), UniverseSpec(2, 2, (0,)),
    ], ids=UniverseSpec.describe)
    def test_levels_sort_in_term_order(self, spec, monkeypatch):
        # Built afresh: each level is sorted on its options' ranks in the
        # level below, which must give the order of term_order_key.
        monkeypatch.delitem(_universe_cache, spec, raising=False)
        games = universe(spec)
        assert list(games) == sorted(games, key=term_order_key)
        assert len(set(games)) == len(games) == universe_size(spec)

    def test_sizes_match_closed_form(self):
        for spec in (TINY, SMALL, UniverseSpec(1, 1, (0, 1))):
            assert len(universe(spec)) == universe_size(spec)


class TestGreaterEqual:
    def test_equivalent_pair_proved(self):
        v = greater_equal(parse("{1|1|1}"), parse("{1|0|1}"))
        assert v == Proved(SoundRule.EQUIVALENT)

    def test_numeric_order_proved(self):
        assert greater_equal(leaf(3), leaf(2)) == Proved(SoundRule.NUMERIC_ORDER)

    def test_identical_proved(self):
        g = parse("{1|0|-1}")
        assert greater_equal(g, g) == Proved(SoundRule.IDENTICAL)

    def test_leaf_order_refuted_by_zero_context(self):
        v = greater_equal(leaf(0), leaf(1))
        assert v == Refuted(zero(), OutcomeSet.L_GT)

    def test_unrefuted_case(self):
        v = greater_equal(parse("{2|0|.}"), parse("{1|0|.}"))
        assert v == Unrefuted(DEFAULT_UNIVERSE)

    def test_refuted_witness_is_sound(self, default_universe):
        g, h = leaf(0), parse("{1|0|0}")
        v = greater_equal(g, h)
        assert isinstance(v, Refuted)
        from scoreplay.score import set_holds
        ev = SumEvaluator()
        assert set_holds(v.witness_set, *ev.final_scores(h, v.witness))
        assert not set_holds(v.witness_set, *ev.final_scores(g, v.witness))


class TestLessEqual:
    def test_numeric(self):
        assert less_equal(leaf(2), leaf(3)) == Proved(SoundRule.NUMERIC_ORDER)

    def test_equivalent(self):
        v = less_equal(parse("{1|0|1}"), parse("{1|1|1}"))
        assert v == Proved(SoundRule.EQUIVALENT)

    def test_refuted_by_zero_context(self):
        # leaf(0) lies in L<= but not L<; the zero context refutes through
        # the union set
        v = less_equal(leaf(1), leaf(0))
        assert v == Refuted(zero(), OutcomeSet.L_LE)


class TestEqual:
    def test_equal_but_not_identical_pair(self):
        assert equal(parse("{1|1|1}"), parse("{1|0|1}")) == Proved(
            SoundRule.EQUIVALENT
        )

    def test_left_unit_refuted(self):
        v = equal(parse("{1|0|0}"), zero())
        assert v == Refuted(zero())
        assert outcome(parse("{1|0|0}")) is not outcome(zero())

    def test_sum_with_zero_is_never_refuted(self, default_universe):
        for g in default_universe[::11]:
            v = equal(g, add(g, zero()))
            assert v == Proved(SoundRule.IDENTICAL)


def _reference_equal(g, h, spec):
    """equal with its own identity and equivalence checks, not _sound_ge."""
    if g is h:
        return Proved(SoundRule.IDENTICAL)
    if equivalent(g, h):
        return Proved(SoundRule.EQUIVALENT)
    x = find_eq_refutation(g, h, universe(spec))
    if x is not None:
        return Refuted(x)
    return Unrefuted(spec)


class TestEqualThroughSoundGe:
    @pytest.mark.parametrize("spec", [TINY, DEFAULT_UNIVERSE])
    def test_matches_reference_and_mutual_ge(self, spec):
        games = universe(spec)
        if spec is TINY:
            pairs = [(g, h) for g in games for h in games]
        else:
            rng = random.Random(3000)
            pairs = [(rng.choice(games), rng.choice(games)) for _ in range(3000)]
        kinds = set()
        for g, h in pairs:
            v = equal(g, h, spec)
            assert v == _reference_equal(g, h, spec), (g, h)
            ge = greater_equal(g, h, spec)
            le = less_equal(g, h, spec)
            assert isinstance(v, Proved) == (
                isinstance(ge, Proved) and isinstance(le, Proved)
            ), (g, h)
            kinds.add(v.rule if isinstance(v, Proved) else type(v))
        assert {SoundRule.IDENTICAL, SoundRule.EQUIVALENT, Refuted,
                Unrefuted} <= kinds


class TestDuality:
    def test_shared_witness(self):
        assert duality_check(leaf(0), leaf(1))

    def test_reflexive_pairs(self):
        g = parse("{1|0|-1}")
        assert duality_check(g, g)

    def test_exhaustive_on_tiny_universe(self, tiny_universe):
        for g in tiny_universe[::3]:
            for h in tiny_universe[::3]:
                assert duality_check(g, h, TINY)


class TestWitnessDeterminism:
    def test_repeated_runs_agree(self):
        pairs = [
            (leaf(0), leaf(1)),
            (parse("{1|0|0}"), zero()),
            (zero(), parse("{.|0|1}")),
        ]
        for g, h in pairs:
            first = greater_equal(g, h)
            again = greater_equal(g, h, DEFAULT_UNIVERSE)
            assert first == again

    def test_witness_is_minimal_in_term_order(self, default_universe):
        g, h = leaf(0), leaf(1)
        v = greater_equal(g, h)
        for x in default_universe:
            if x is v.witness:
                break
            assert find_ge_refutation(g, h, [x]) is None


class TestSoundnessOfProved:
    def test_proved_verdicts_survive_exhaustive_search(self, tiny_universe):
        from scoreplay.order import find_le_refutation

        proved = 0
        for g in tiny_universe:
            for h in tiny_universe:
                v = greater_equal(g, h, TINY)
                if not isinstance(v, Proved):
                    continue
                proved += 1
                assert find_ge_refutation(g, h, tiny_universe) is None
                w = less_equal(h, g, TINY)
                assert isinstance(w, Proved)
                assert find_le_refutation(h, g, tiny_universe) is None
        assert proved > len(tiny_universe)  # diagonal plus real pairs


class TestPartialOrderProbes:
    def test_reflexivity_never_refuted(self, tiny_universe):
        for g in tiny_universe:
            assert find_ge_refutation(g, g, tiny_universe) is None

    def test_equivalence_implies_bounded_equality(self, default_universe):
        # every equivalent pair has equal outcomes in every context
        from scoreplay.core import _esig, _postorder, as_score

        classes = {}
        for g in default_universe:
            classes.setdefault(_esig(g), []).append(g)
        checked = 0
        for members in classes.values():
            if len(members) < 2:
                continue
            g, h = members[0], members[1]
            assert find_eq_refutation(g, h, default_universe) is None
            checked += 1
            if checked >= 12:
                break
        assert checked > 0


def test_only_the_pointwise_tests_take_an_evaluator():
    # Relations, searches and reductions read the context tables; only
    # the one-context tests evaluate pairs with a SumEvaluator.
    import inspect

    from scoreplay import canonical

    takers = {
        f"{module.__name__}.{name}"
        for module in (order, canonical)
        for name in module.__all__
        if inspect.isfunction(f := getattr(module, name))
        for p in inspect.signature(f).parameters.values()
        if "SumEvaluator" in str(p.annotation)
    }
    assert takers == {
        "scoreplay.order.ge_refutation_at", "scoreplay.order.le_refutation_at"
    }


# ---------------------------------------------------------------------------
# the context-table kernel against the scalar per-context scan
# ---------------------------------------------------------------------------

def _scalar_first_hits(g, h, contexts):
    """First hit of each search, one context at a time, fresh evaluator."""
    ev = SumEvaluator()
    ge = le = eq = None
    for x in contexts:
        if ge is None:
            o = ge_refutation_at(g, h, x, ev)
            if o is not None:
                ge = (x, o)
        if le is None:
            o = le_refutation_at(g, h, x, ev)
            if o is not None:
                le = (x, o)
        if eq is None and ev.outcome(g, x) is not ev.outcome(h, x):
            eq = x
    return ge, le, eq


def _kernel_first_hits(g, h, make_contexts):
    return (
        find_ge_refutation(g, h, make_contexts()),
        find_le_refutation(g, h, make_contexts()),
        find_eq_refutation(g, h, make_contexts()),
    )


def _oracle_scores(*terms):
    comps = tuple(oracles.raw(t) for t in terms)
    return oracles.play_left(comps), oracles.play_right(comps)


def _check_witnesses(g, h, hits):
    """Re-check Refuted witnesses with the independent oracle."""
    ge, le, eq = hits
    for hit in (ge, le):
        if hit is not None:
            x, o = hit
            assert set_holds(o, *_oracle_scores(h, x))
            assert not set_holds(o, *_oracle_scores(g, x))
    if eq is not None:
        assert oracles.outcome_name(*_oracle_scores(g, eq)) != (
            oracles.outcome_name(*_oracle_scores(h, eq))
        )


def _fraction_games():
    return [shift(g, Fraction(1, 2)) for g in universe(TINY)] + list(
        universe(UniverseSpec(1, 1, (Fraction(-3, 2), 0, Fraction(1, 3))))
    )


def _deep_games():
    return sample_confluence_games(40, seed=7)


class TestContextKernel:
    @pytest.mark.parametrize("spec", [TINY, DEFAULT_UNIVERSE])
    def test_universe_table_has_one_id_per_class(self, spec):
        games = universe(spec)
        table = universe(spec).table
        classes = {_esig(x) for x in games}
        assert len(table) == len(classes) == len(set(table.order))
        for x, i in zip(games, table.order):
            rep = table.games[i]
            assert equivalent(rep, x)
            assert term_order_key(rep) <= term_order_key(x)
        assert [table.order[p] for p in table.first_of.values()] == list(
            range(len(table)))

    def test_class_columns_equal_pairwise_evaluator(self, default_universe):
        table = universe(DEFAULT_UNIVERSE).table
        assert len(table) == 380
        ev = SumEvaluator()
        for g in _deep_games()[:6] + _fraction_games()[::15]:
            sl, sr = _extend_rows(g, table, {})
            assert [(sl[i], sr[i]) for i in table.order] == [
                ev.final_scores(g, x) for x in default_universe
            ]

    @pytest.mark.parametrize("source", ["tiny", "default", "deep", "fraction"])
    def test_first_hits_match_scalar_scan(self, source, tiny_universe,
                                          default_universe):
        pools = {
            "tiny": (tiny_universe, tiny_universe),
            "default": (default_universe, default_universe),
            "deep": (_deep_games(), tiny_universe),
            "fraction": (_fraction_games(), tiny_universe),
        }
        games, contexts = pools[source]
        rng = random.Random(source)
        for _ in range(12):
            g, h = rng.choice(games), rng.choice(games)
            expected = _scalar_first_hits(g, h, contexts)
            assert _kernel_first_hits(g, h, lambda: contexts) == expected
            assert _kernel_first_hits(
                g, h, lambda: list(contexts)) == expected
            assert _kernel_first_hits(
                g, h, lambda: (x for x in contexts)) == expected
            _check_witnesses(g, h, expected)

    def test_one_element_and_unordered_lists(self, tiny_universe):
        rng = random.Random(4)
        deep = _deep_games()
        # deep contexts whose subterms are not in the list, duplicates,
        # and an order that is not children-first
        mixed = rng.sample(deep, 10) + rng.sample(list(tiny_universe), 10)
        mixed += mixed[:3]
        rng.shuffle(mixed)
        for _ in range(10):
            g, h = rng.choice(deep), rng.choice(list(tiny_universe))
            for x in mixed[:6]:
                expected = _scalar_first_hits(g, h, [x])
                assert _kernel_first_hits(g, h, lambda: [x]) == expected
            expected = _scalar_first_hits(g, h, mixed)
            assert _kernel_first_hits(g, h, lambda: mixed) == expected
            _check_witnesses(g, h, expected)

    def test_empty_contexts_never_refute(self):
        g, h = leaf(0), leaf(1)
        assert _kernel_first_hits(g, h, lambda: []) == (None, None, None)

    def test_any_table_has_one_id_per_class(self, small_universe):
        contexts = list(small_universe)
        table = ContextTable(contexts)
        assert len(set(table.order)) == len({_esig(x) for x in contexts})
        assert len(set(table.order)) < len(contexts)

    def test_list_searches_match_universe_searches(self, small_universe):
        contexts = list(small_universe)
        pool = contexts + _deep_games()[:10]
        rng = random.Random(147)
        for _ in range(40):
            g, h = rng.choice(pool), rng.choice(pool)
            assert _kernel_first_hits(g, h, lambda: contexts) == (
                _kernel_first_hits(g, h, lambda: small_universe)
            )

    def test_rows_equal_pairwise_evaluator(self, small_universe):
        table = ContextTable(small_universe)
        for x, i in zip(small_universe, table.order):
            assert equivalent(table.games[i], x)
        ev = SumEvaluator()
        for g in _deep_games()[:8] + _fraction_games()[::9]:
            sl, sr = _extend_rows(g, table, {})
            assert list(zip(sl, sr)) == [
                ev.final_scores(g, x) for x in table.games
            ]

    def test_shifted_row_law_for_numbers(self, small_universe):
        table = ContextTable(_deep_games()[:10] + list(small_universe[::7]))
        ev = SumEvaluator()
        for a in (0, 3, -2, Fraction(1, 2)):
            rows = {}
            sl, sr = _extend_rows(leaf(a), table, rows)
            for i, x in enumerate(table.games):
                fl, fr = final_scores(x)
                assert (sl[i], sr[i]) == (fl + a, fr + a)
                assert (sl[i], sr[i]) == ev.final_scores(leaf(a), x)

    def test_masks_live_in_the_table(self, monkeypatch):
        # one tuple for the verdicts and the find_* calls: a session
        # fixture may predate a clear_caches, and so hold another table
        u = universe(DEFAULT_UNIVERSE)
        table = u.table
        assert universe(DEFAULT_UNIVERSE).table is table
        table.other.clear()
        # universe games are decided from their class masks, not rows
        assert greater_equal(leaf(0), leaf(1), DEFAULT_UNIVERSE) == (
            Refuted(zero(), OutcomeSet.L_GT)
        )
        g, h = parse("{2|0|.}"), parse("{1|0|.}")
        assert isinstance(greater_equal(g, h, DEFAULT_UNIVERSE), Unrefuted)
        masks = table.masks
        assert {_esig(x) for x in (leaf(0), leaf(1), g, h)} <= masks.keys()
        assert table.other == {}
        # so are games outside the universe, whose masks go to other
        assert greater_equal(leaf(0), leaf(3), DEFAULT_UNIVERSE) == (
            Refuted(zero(), OutcomeSet.L_GT)
        )
        g = parse("{3|0|.}")
        assert isinstance(greater_equal(g, h, DEFAULT_UNIVERSE), Unrefuted)
        assert table.other.keys() == {_esig(leaf(3)), _esig(g)}
        assert _esig(leaf(3)) not in masks and _esig(g) not in masks
        # find_* over the universe tuple reads and keeps the same masks
        assert find_ge_refutation(leaf(0), leaf(4), u) == (
            zero(), OutcomeSet.L_GT
        )
        assert find_ge_refutation(g, h, u) is None
        assert table.other.keys() == {_esig(leaf(3)), _esig(g), _esig(leaf(4))}
        # over any other list it gets a table of its own
        other = dict(table.other)
        contexts = list(u)
        assert find_ge_refutation(leaf(0), leaf(5), contexts) == (
            zero(), OutcomeSet.L_GT
        )
        assert find_ge_refutation(g, h, contexts) is None
        assert table.other == other
        # duality_check builds whole rows for one call and keeps none
        seen = []
        plain = order._extend_rows

        def spy(u, t, rows):
            seen.append((rows, len(rows)))
            return plain(u, t, rows)

        monkeypatch.setattr(order, "_extend_rows", spy)
        for _ in range(2):
            assert duality_check(g, h, DEFAULT_UNIVERSE)
        (first, n1), _, (second, n2), _ = seen
        assert first is not second and n1 == n2 == 0
        assert table.other == other and table.masks is masks

    def test_first_member_ids_follow_the_callers_order(self):
        # b is a subterm of a, so it is built before a; the first member
        # of b's class gets one more id, after a's
        a, b = parse("{{1|0|.}|0|.}"), parse("{1|0|.}")
        table = ContextTable([a, b])
        assert table.order == [2, 3]
        assert table.games[1] is table.games[3] is b
        hit = find_ge_refutation(leaf(0), b, [a, b])
        assert hit == (a, OutcomeSet.L_GT)
        assert hit == _scalar_first_hits(leaf(0), b, [a, b])[0]


# ---------------------------------------------------------------------------
# the level schedule of score rows
# ---------------------------------------------------------------------------

def _height(t):
    return 1 + max(map(_height, t.left + t.right)) if t.left or t.right else 0


def _level_tables():
    """Tables with several levels, padded gathers, one column per level,
    and no level at all."""
    return {
        "2x2": ContextTable(universe(UniverseSpec(2, 2, (0,)))),
        "3x1": ContextTable(universe(UniverseSpec(3, 1, (0,)))),
        "chain1": ContextTable([parse("{.|0|1}")]),
        "chain2": ContextTable([parse("{{.|0|1}|0|.}")]),
        "numbers": ContextTable(
            [leaf(Fraction(1, 2)), leaf(0), leaf(-1), leaf(Fraction(-3, 2))]),
    }


def _mixed_table():
    """A seeded draw of games with int and half scores, and the table of
    its first 40 games."""
    rng = random.Random(2121)
    scores = [0, 1, -1, Fraction(1, 2), Fraction(-1, 2)]

    def draw(depth):
        if depth == 0 or rng.random() < 0.3:
            return leaf(rng.choice(scores))
        return game(
            [draw(depth - 1) for _ in range(rng.randint(0, 2))],
            rng.choice(scores),
            [draw(depth - 1) for _ in range(rng.randint(0, 2))],
        )

    return draw, ContextTable([draw(2) for _ in range(40)])


def _deep_columns(table):
    """The ids of the columns with an option that is not a number."""
    return {
        i for i in range(len(table))
        if any(table.left[j] or table.right[j]
               for j in table.left[i] + table.right[i])
    }


def _schedule_levels(table):
    """Per side, the level each id sits at in the schedule; an id listed
    twice for one side fails."""
    seen = ({}, {})
    for level, sides in enumerate(table.levels, 1):
        for s, side in enumerate(sides):
            for i in (side[0] if side else ()):
                assert i not in seen[s]
                seen[s][i] = level
    return seen


def _column_rows(u, table, rows=None):
    """The score rows of u by one max (or min) per column, over x_i's
    options and then u's, in order, from ends normalized by ``as_score``:
    the reference for ``_extend_rows``, value and type."""
    rows = {} if rows is None else rows
    if u not in rows:
        for o in u.left + u.right:
            _column_rows(o, table, rows)
        sl, sr = [], []
        for i, x in enumerate(table.games):
            end = as_score(u.score + x.score)
            terms = [sr[j] for j in table.left[i]]
            terms += [rows[o][1][i] for o in u.left]
            sl.append(max(terms) if terms else end)
            terms = [sl[j] for j in table.right[i]]
            terms += [rows[o][0][i] for o in u.right]
            sr.append(min(terms) if terms else end)
        rows[u] = (sl, sr)
    return rows[u]


class TestLevelSchedule:
    @pytest.mark.parametrize("name, ids, levels", [
        ("2x2", 121, 2), ("3x1", 676, 3), ("chain1", 2, 1), ("chain2", 3, 2),
        ("numbers", 4, 0),
    ])
    def test_rows_equal_pairwise_evaluator(self, name, ids, levels):
        table = _level_tables()[name]
        assert (len(table), len(table.levels)) == (ids, levels)
        if name == "2x2":  # columns with 1 and 2 options share a gather
            for side, options in zip(table.levels[1], (table.left,
                                                       table.right)):
                assert {len(options[i]) for i in side[0]} == {1, 2}
        if name.startswith("chain"):  # the one-index getter
            assert all(len(side[0]) == 1
                       for sides in table.levels for side in sides if side)
        ev = SumEvaluator()
        for g in _deep_games()[:4] + _fraction_games()[::20]:
            sl, sr = _extend_rows(g, table, {})
            got = [(a, b, type(a), type(b)) for a, b in zip(sl, sr)]
            want = [
                (a, b, type(a), type(b))
                for a, b in (ev.final_scores(g, x) for x in table.games)
            ]
            assert got == want, render(g)

    @pytest.mark.parametrize("name", sorted(_level_tables()))
    def test_schedule_invariants(self, name):
        table = _level_tables()[name]
        seen = _schedule_levels(table)
        n = len(table)
        for s, options in enumerate((table.left, table.right)):
            assert seen[s].keys() == {i for i in range(n) if options[i]}
        level = [seen[0].get(i) or seen[1].get(i) or 0 for i in range(n)]
        assert level == [_height(x) for x in table.games]
        for i in range(n):
            assert all(
                level[j] < level[i] for j in table.left[i] + table.right[i])
        # the getters read the listed columns and options, as tuples
        positions = list(range(n))
        for sides in table.levels:
            for side, options in zip(sides, (table.left, table.right)):
                if side is None:
                    continue
                ids, at, gathers = side
                assert at(positions) == ids
                assert len(gathers) == max(len(options[i]) for i in ids)
                for k, get in enumerate(gathers):
                    assert get(positions) == tuple(
                        options[i][k] if k < len(options[i])
                        else options[i][0] for i in ids)

    def test_ties_keep_the_per_column_value(self):
        # Scores mixing ints and halves make ends where half + half is
        # whole; the kernel returns those as ints, so a tie is between
        # values of one type, and keeps the value that one max or min per
        # column keeps, x_i's options before u's own best.
        draw, table = _mixed_table()
        assert len(table.levels) == 2
        whole = mixed = 0
        for _ in range(30):
            g = draw(2)
            sl, sr = _extend_rows(g, table, {})
            want = _column_rows(g, table)
            assert [(a, b, type(a), type(b)) for a, b in zip(sl, sr)] == [
                (a, b, type(a), type(b)) for a, b in zip(*want)
            ], render(g)
            whole += sum(
                type(u.score) is type(x.score) is Fraction
                and (u.score + x.score).denominator == 1
                for u in _postorder(g, ()) for x in table.games
            )
            mixed += sum(type(v) is Fraction and v.denominator == 1
                         for v in sl + sr)
        assert whole > 0 and mixed == 0

    def test_evaluator_keeps_the_row_value(self):
        # SumEvaluator also reads the context's moves before u's, so on
        # the same ties it returns the very value of the row, int or
        # Fraction.
        draw, table = _mixed_table()
        ev = SumEvaluator()
        for _ in range(200):
            g = draw(2)
            sl, sr = _extend_rows(g, table, {})
            assert [(a, b, type(a), type(b)) for a, b in zip(sl, sr)] == [
                (a, b, type(a), type(b))
                for a, b in (ev.final_scores(g, x) for x in table.games)
            ], render(g)

    def test_default_table_has_one_level(self):
        table = universe(DEFAULT_UNIVERSE).table
        assert len(table.levels) == 1
        seen = _schedule_levels(table)
        assert set(seen[0].values()) == set(seen[1].values()) == {1}

    def test_depth_two_level_two_is_the_deep_pass(self):
        table = universe(DEPTH_TWO).table
        assert len(table.levels) == 2
        level_two = set()
        for side in table.levels[1]:
            level_two.update(side[0])
        assert len(level_two) == 7125
        assert level_two == _deep_columns(table)


# ---------------------------------------------------------------------------
# verdicts from class sign masks against verdicts rebuilt from the scans
# ---------------------------------------------------------------------------

def _row_scan(g, h, spec, rows, test):
    """The first context of spec's table, in scan order, where test hits
    on the whole score rows of g and h, with the hit; rows are kept in
    ``rows``, which only scans of spec share.
    """
    table = universe(spec).table
    slg, srg = _extend_rows(g, table, rows)
    slh, srh = _extend_rows(h, table, rows)
    contexts = universe(spec)
    for p in table.first_of.values():
        i = table.order[p]
        hit = test(slg[i], srg[i], slh[i], srh[i])
        if hit is not None:
            return contexts[p], hit
    return None


def _set_test(sets):
    """First set of ``sets`` with h+x in it but g+x not, from scores."""
    def test(slg, srg, slh, srh):
        return next((o for o in sets if set_holds(o, slh, srh)
                     and not set_holds(o, slg, srg)), None)
    return test


def _outcomes_differ(slg, srg, slh, srh):
    if outcome_from_scores(slg, srg) is not outcome_from_scores(slh, srh):
        return True
    return None


def _scan_verdicts(g, h, spec, rows):
    """(>=, <=, =) from the sound rules and a scan of whole score rows."""
    ge = _sound_ge(g, h)
    if ge is None:
        hit = _row_scan(g, h, spec, rows, _set_test(UP_SETS))
        ge = Unrefuted(spec) if hit is None else Refuted(*hit)
    le = _sound_ge(h, g)
    if le is None:
        hit = _row_scan(g, h, spec, rows, _set_test(DOWN_SETS))
        le = Unrefuted(spec) if hit is None else Refuted(*hit)
    eq = _sound_ge(g, h) and _sound_ge(h, g)
    if eq is None:
        hit = _row_scan(g, h, spec, rows, _outcomes_differ)
        eq = Unrefuted(spec) if hit is None else Refuted(hit[0])
    return ge, le, eq


def _check_against_scans(pairs, spec):
    rows = {}
    kinds = set()
    for g, h in pairs:
        verdicts = (
            greater_equal(g, h, spec),
            less_equal(g, h, spec),
            equal(g, h, spec),
        )
        assert verdicts == _scan_verdicts(g, h, spec, rows), (g, h)
        ge, le, eq = verdicts
        _check_witnesses(g, h, (
            (ge.witness, ge.witness_set) if isinstance(ge, Refuted) else None,
            (le.witness, le.witness_set) if isinstance(le, Refuted) else None,
            eq.witness if isinstance(eq, Refuted) else None,
        ))
        kinds.update(type(v) for v in verdicts)
    assert kinds == {Proved, Refuted, Unrefuted}


class TestClassMasks:
    def test_all_tiny_pairs_match_the_scans(self, tiny_universe):
        pairs = [(g, h) for g in tiny_universe for h in tiny_universe]
        _check_against_scans(pairs, TINY)

    def test_seeded_default_pairs_match_the_scans(self, default_universe):
        rng = random.Random(3000)
        pairs = [(rng.choice(default_universe), rng.choice(default_universe))
                 for _ in range(3000)]
        _check_against_scans(pairs, DEFAULT_UNIVERSE)

    def test_pairs_outside_the_universe_are_decided_from_masks(
            self, default_universe):
        table = universe(DEFAULT_UNIVERSE).table
        pool = (list(default_universe[::40]) + _deep_games()[:20]
                + _fraction_games()[::12])
        rng = random.Random(1414)
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(120)]
        assert any(_esig(g) not in table.first_of for g, _ in pairs)
        _check_against_scans(pairs, DEFAULT_UNIVERSE)
        assert all(k in table.first_of for k in table.masks)

    def test_outcome_masks_partition_every_column(self, default_universe):
        table = universe(DEFAULT_UNIVERSE).table
        full = table.full
        for g in list(default_universe) + _deep_games() + _fraction_games():
            parts = _outcome_masks(_class_masks(table, g), full)
            union = 0
            for part in parts:
                assert union & part == 0
                union |= part
            assert union == full

    def test_cache_holds_at_most_one_entry_per_class(self, default_universe):
        for g in default_universe[::3]:
            for h in default_universe[::97]:
                greater_equal(g, h)
                equal(g, h)
        table = universe(DEFAULT_UNIVERSE).table
        assert 0 < len(table.masks) <= len(table)


# ---------------------------------------------------------------------------
# class masks from the mask recurrence against masks read off full rows
# ---------------------------------------------------------------------------

DEPTH_TWO = UniverseSpec(2, 1, (-2, -1, 0, 1, 2))  # 7,205 classes


def _row_class_masks(table, g, rows):
    """The sign masks of g's class read off g's full score row: the
    reference for ``_class_masks``.  ``rows`` may be shared by calls."""
    sl, sr = _extend_rows(g, table, rows)
    # Highest id first, so that id i lands on bit i.
    sl, sr = sl[::-1], sr[::-1]
    return (
        _mask([v > 0 for v in sl]), _mask([v >= 0 for v in sl]),
        _mask([v > 0 for v in sr]), _mask([v >= 0 for v in sr]),
    )


def _mask(flags):
    """The int whose bit r is flags[-1 - r]."""
    return int("".join(["1" if f else "0" for f in flags]), 2)


def _fresh_table(spec):
    """A copy of the table of spec's universe, with no masks yet."""
    table = copy.copy(universe(spec).table)
    table.masks, table.other = {}, {}
    return table


def _class_games(table):
    """The first member of each class of the table, in scan order."""
    return [table.games[table.order[p]] for p in table.first_of.values()]


def _mismatched_classes(table):
    """Classes in ``table.masks`` whose masks differ from the reference."""
    rows = {}
    return [
        k for k, masks in table.masks.items()
        if masks != _row_class_masks(
            table, table.games[table.order[table.first_of[k]]], rows)
    ]


def _games_outside(spec):
    """Games whose classes are mostly not in spec's table: deep ones,
    Fraction-shifted ones, and for depth 2 some of depth 3."""
    classes = _class_games(universe(spec).table)
    if spec == DEFAULT_UNIVERSE:
        return _deep_games() + [
            shift(g, Fraction(1, 3)) for g in classes[::11]
        ]
    picks = random.Random(1616).sample(classes, 6)
    return [shift(g, Fraction(-1, 2)) for g in picks[:3]] + [
        game([picks[3]], 0, [picks[4]]),
        game([picks[5]], Fraction(1, 3), ()),
        parse("{{1|0|-1/2}|0|.}"),
        parse("{.|1|{.|0|3}}"),
    ]


def _extra_id_games():
    """A universe-like tuple whose table has an id that is no first member's.

    {1|0|-1} and {1|1|-1} are equivalent, so t, a game with both as Left
    options and the last game in term order, gives the second an id.
    """
    t = game([parse("{1|0|-1}"), parse("{1|1|-1}")], 0, ())
    return tuple(sorted(
        [leaf(0), leaf(1), leaf(-1), t] + [parse(x) for x in (
            "{0|0|.}", "{1|0|0}", "{1|0|-1}", "{-1|0|0}", "{0|1|1}",
            "{1|1|-1}", "{-1|1|-1}",
        )],
        key=term_order_key,
    ))


class TestMaskRecurrence:
    @pytest.mark.parametrize("spec, classes", [
        (TINY, 30),
        (DEFAULT_UNIVERSE, 380),
        (UniverseSpec(1, 2, (Fraction(-1, 2), 0, Fraction(1, 2), 1)), 184),
    ])
    def test_every_class_matches_its_row(self, spec, classes):
        table = _fresh_table(spec)
        for g in _class_games(table):
            _class_masks(table, g)
        assert len(table.masks) == classes
        # depth 1: every option of every context is a number
        assert len(table.levels) == 1
        assert _deep_columns(table) == set()
        assert _mismatched_classes(table) == []

    def test_seeded_depth_two_classes_and_their_options(self):
        table = _fresh_table(DEPTH_TWO)
        assert len(table) == len(table.first_of) == 7205
        for g in random.Random(1515).sample(_class_games(table), 60):
            _class_masks(table, g)
        # 80 contexts have numbers for options, or none; the deep pass
        # reads the other columns, level 2
        level_two = {i for side in table.levels[1] for i in side[0]}
        assert level_two == _deep_columns(table)
        assert len(level_two) == 7205 - 80
        assert len(table.masks) > 100
        assert _mismatched_classes(table) == []

    def test_building_a_class_builds_its_option_classes(self):
        table = _fresh_table(DEPTH_TWO)
        g = parse("{{1|0|.}|0|{.|1|2}}")
        masks = _class_masks(table, g)
        subterms = [g, parse("{1|0|.}"), parse("{.|1|2}"), leaf(1), leaf(2)]
        assert table.masks.keys() == {_esig(t) for t in subterms}
        assert all(k in table.first_of for k in table.masks)
        assert _class_masks(table, g) is masks
        assert _mismatched_classes(table) == []

    @pytest.mark.parametrize("spec", [DEFAULT_UNIVERSE, DEPTH_TWO])
    def test_classes_outside_the_table_match_their_rows(self, spec):
        table = _fresh_table(spec)
        rows = {}
        outside = [
            g for g in _games_outside(spec) if _esig(g) not in table.first_of
        ]
        assert len(outside) >= 7
        for g in outside:
            assert _class_masks(table, g) == (
                _row_class_masks(table, g, rows)
            ), render(g)
        assert {_esig(g) for g in outside} <= table.other.keys()
        assert table.masks.keys() <= table.first_of.keys()
        assert _mismatched_classes(table) == []

    def test_verdicts_outside_the_table_keep_no_universe_masks(
            self, default_universe):
        table = universe(DEFAULT_UNIVERSE).table
        before = len(table.masks)
        rng, rows = random.Random(1616), {}
        for i in range(1, 201):
            # no score of g or h, nor of their subterms, is an integer
            g = shift(rng.choice(default_universe), Fraction(i, 211))
            h = shift(rng.choice(default_universe), Fraction(-i, 223))
            v = greater_equal(g, h)
            if i % 10 == 0:  # the Fraction row scans are the slow part
                assert v == _scan_verdicts(g, h, DEFAULT_UNIVERSE, rows)[0]
        assert table.masks.keys() <= table.first_of.keys()
        assert len(table.masks) == before

    def test_masks_outside_the_table_stay_bounded(self, tiny_universe):
        table = universe(TINY).table
        greater_equal(tiny_universe[5], tiny_universe[40], TINY)
        masks, n = dict(table.masks), len(table)
        assert masks
        rng, rows = random.Random(1717), {}
        cleared = 0
        for i in range(1, 3 * n + 1):
            # new classes each time: no score of g or h is an integer
            g = shift(rng.choice(tiny_universe), Fraction(i, 211))
            h = shift(rng.choice(tiny_universe), Fraction(-i, 223))
            before = len(table.other)
            verdicts = (
                greater_equal(g, h, TINY),
                less_equal(g, h, TINY),
                equal(g, h, TINY),
            )
            cleared += len(table.other) < before
            build = max(len(_postorder(x, ())) for x in (g, h))
            assert len(table.other) <= n + build
            assert verdicts == _scan_verdicts(g, h, TINY, rows), (g, h)
        assert cleared > 0
        assert table.masks == masks

    def test_cross_check_catches_a_broken_threshold(self, monkeypatch):
        signs = ContextTable.signs

        def broken(self, kind, s):
            # v + s > 0 tested as v + s >= 0 for Left's number options
            gt, ge = signs(self, kind, s)
            return (ge, ge) if kind == _NUM_L else (gt, ge)

        monkeypatch.setattr(ContextTable, "signs", broken)
        table = _fresh_table(DEFAULT_UNIVERSE)
        for g in _class_games(table):
            _class_masks(table, g)
        assert _mismatched_classes(table) != []

    def test_first_members_hold_their_contexts(self):
        # the invariant _mask_refutation reads a witness by: the id of a
        # first member is that very context, and only those ids are read
        a, b = parse("{{1|0|.}|0|.}"), parse("{1|0|.}")
        extra = ContextTable(_extra_id_games())
        assert len(extra) == len(extra.first_of) + 1
        for table, contexts in [
            (universe(DEFAULT_UNIVERSE).table,
             universe(DEFAULT_UNIVERSE)),
            (universe(DEPTH_TWO).table, universe(DEPTH_TWO)),
            (ContextTable([a, b]), [a, b]),
            (extra, _extra_id_games()),
        ]:
            for p in table.first_of.values():
                assert table.games[table.order[p]] is contexts[p]
            assert table.first_bits == sum(
                1 << table.order[p] for p in table.first_of.values())

    def test_ids_outside_the_first_members_get_mask_verdicts(self):
        games = _extra_id_games()
        t = games[-1]
        spec = UniverseSpec(2, 2, (-1, 0, 1))  # too large to enumerate
        entry = _Games(games)
        table = entry.table
        assert len(table) == len(table.first_of) + 1
        # the extra id is {1|1|-1}, built as a subterm of t, the last game
        extra = parse("{1|1|-1}")
        assert table.games.index(extra) == len(table) - 2
        for g in games:
            _class_masks(table, g)
        assert len(table.masks) == len(table.first_of)
        assert _mismatched_classes(table) == []
        # the last id, t's, is a column too: outcome N against P there
        top = 1 << (len(table) - 1)
        assert _mask_refutation(
            (top, top, 0, 0), (0, 0, top, top), table, None
        ) == (t, None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(_universe_cache, spec, entry)
            # only t refutes {1|0|0} >= t; its id is the last one
            assert greater_equal(parse("{1|0|0}"), t, spec) == (
                Refuted(t, OutcomeSet.R_GE)
            )
            _check_against_scans([(g, h) for g in games for h in games], spec)
