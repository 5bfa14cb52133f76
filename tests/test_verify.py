import hashlib

import pytest

import scoreplay.verify
from scoreplay import (
    DEFAULT_UNIVERSE,
    SumEvaluator,
    add,
    UniverseSpec,
    leaf,
    outcome,
    outcome_template,
    render,
    universe,
)
from scoreplay.order import UP_SETS
from scoreplay.score import Outcome, outcome_from_scores
from scoreplay.sums import zero
from scoreplay.verify import (
    SUITES,
    TemplateSweep,
    outcome_template_sweep,
    run_suite,
    sample_confluence_games,
    verify_confluence,
    verify_cong_probe,
    verify_duality,
    verify_identity,
    verify_partial_order,
    verify_partition,
    verify_reduction_safety,
)

from conftest import DEFAULT, SMALL, TINY


def test_registry_names():
    assert set(SUITES) == {
        "partition", "duality", "partial-order", "outcome-template",
        "identity", "reduction-safety", "confluence", "cong-probe",
    }


def test_partition_suite():
    res = verify_partition(SMALL)
    assert res.passed
    assert [c.name for c in res.checks] == [
        "one-base-set-each", "one-outcome-class",
        "outcome-agrees-with-definition",
    ]


def test_duality_suite_exhaustive_flag():
    res = verify_duality(TINY, max_pairs=10**9)
    assert res.passed
    assert "(all)" in res.checks[0].details


def test_partial_order_suite():
    res = verify_partial_order(TINY, max_games=10**9, max_pairs=400)
    assert res.passed


def test_identity_suite():
    assert verify_identity(SMALL).passed


def test_identity_sums_each_pair_one_way(monkeypatch):
    # g + (-g) and (-g) + g are one term, so only one of them is summed
    calls = []

    def recording_add(g, h):
        calls.append((g, h))
        return add(g, h)

    monkeypatch.setattr(scoreplay.verify, "add", recording_add)
    res = verify_identity(DEFAULT_UNIVERSE)
    assert res.passed
    assert res.checks[1].details == "games=1275 failures=0"
    recorded = set(calls)
    assert not [(g, h) for g, h in recorded if g is not h and (h, g) in recorded]


def test_reduction_safety_suite():
    res = verify_reduction_safety(SMALL, context_spec=TINY)
    assert res.passed
    assert "steps=" in res.checks[0].details


def test_reduction_safety_over_depth_two_contexts():
    # 163,805 contexts, searched as their 7,205 equivalence classes
    res = verify_reduction_safety(
        DEFAULT, context_spec=UniverseSpec(2, 1, (-2, -1, 0, 1, 2)),
        max_games=60,
    )
    assert res.passed
    assert "contexts=163805 violations=0" in res.checks[0].details


def test_confluence_suite_and_sampler_determinism():
    a = sample_confluence_games(50, seed=3)
    b = sample_confluence_games(50, seed=3)
    assert a == b
    res = verify_confluence(DEFAULT, n_games=120, seed=3)
    assert res.passed
    assert "reduced=" in res.checks[0].details


# sha256 of the rendered sampler output, pinned: the benchmark's build
# requests are generated from these games.
SAMPLER_SHA256 = {
    0: "7e7bfdab8ea4913f17955109def9358ab5f4275a64bd6b5471a71d96fcc02477",
    1: "3809067ca801058ab28de9aad7f7edae51b0ee77872d46affaf9ce6d3727822b",
    21: "dc85b7dd681c113a8e71d66ac17943614daecb31ea6ad90f83036fc3b01e9c5d",
}


@pytest.mark.parametrize("seed", list(SAMPLER_SHA256))
def test_confluence_sampler_output_is_unchanged(seed):
    text = "\n".join(render(g) for g in sample_confluence_games(2000, seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest() == SAMPLER_SHA256[seed]


def test_internals_read_by_the_benchmark_exist():
    # perfbench counts the growth of these caches and wraps these entry
    # points when it traces a run.
    from scoreplay import canonical, core, rulesets, score, sums

    for module, name in (
        (core, "_interned"), (sums, "_add_cache"),
        (score, "_finals"), (rulesets, "_tf_cache"),
    ):
        assert isinstance(getattr(module, name), dict), name
    assert "final_scores" in SumEvaluator.__dict__
    assert isinstance(SumEvaluator()._memo, dict)
    assert "reduce_step" in canonical.__all__


def test_cong_probe_suite():
    res = verify_cong_probe(SMALL)
    assert res.passed
    # non-vacuous: the universe contains equal-but-distinct canonical pairs
    assert "pairs=0" not in res.checks[0].details


def test_template_sweep_small_grid():
    sweep = outcome_template_sweep(bound=1)
    assert sweep.grid_points == 3 ** 8
    assert sweep.sr_violations == 0
    assert sweep.sl_violations == 0
    assert sweep.fixed_triples <= sweep.family_triples


def test_template_sweep_matches_scalar_evaluation():
    # Every grid point again, through the scalar pair recursion.
    vals = range(-1, 2)
    gs = [
        (outcome_template(a, b, c, d, e, 0, 0, 0)[0], d, e)
        for a in vals for b in vals for c in vals for d in vals for e in vals
    ]
    hs = [
        (outcome_template(0, 0, 0, 0, 0, f, g, h)[1], g, h)
        for f in vals for g in vals for h in vals
    ]
    ev = SumEvaluator()
    fixed, family = set(), set()
    points = sr_bad = sl_bad = 0
    for G, d, e in gs:
        for H, g, h in hs:
            sl, sr = ev.final_scores(G, H)
            points += 1
            sr_bad += sr != e + h
            sl_bad += sl not in (e + g, d + h)
            o = outcome_from_scores(sl, sr).value
            fixed.add((outcome(G).value, outcome(H).value, o))
            family.add((outcome(H).value, outcome(G).value, o))
    family |= fixed
    for H1, _, _ in hs:
        for H2, _, _ in hs:
            o = outcome_from_scores(*ev.final_scores(H1, H2)).value
            family.add((outcome(H1).value, outcome(H2).value, o))
    expected = TemplateSweep(1, points, fixed, family, sr_bad, sl_bad)
    assert outcome_template_sweep(bound=1) == expected


def test_reduction_safety_flags_an_unsound_step(monkeypatch):
    import scoreplay.verify as verify

    real = verify.reduce_step
    fired = []

    def unsound_once(node, *args, **kwargs):
        if fired or not (node.left or node.right):
            return real(node, *args, **kwargs)
        # a leaf whose outcome differs from node's, so the context 0
        # already tells the two apart
        fired.append(node)
        k = next(k for k in (1, -1, 0) if outcome(leaf(k)) is not outcome(node))
        return leaf(k), None

    monkeypatch.setattr(verify, "reduce_step", unsound_once)
    res = verify_reduction_safety(SMALL, context_spec=TINY)
    assert fired
    assert not res.checks[0].passed
    assert res.checks[0].details.endswith("violations=1")
    assert res.checks[1].passed


def test_duality_rows_flag_the_scalar_contexts(monkeypatch):
    import scoreplay.order as order

    games = universe(TINY)
    ev = SumEvaluator()
    for g in games:
        for h in games:
            ge = [order.ge_refutation_at(g, h, x, ev) is not None for x in games]
            le = [order.le_refutation_at(h, g, x, ev) is not None for x in games]
            assert ge == le
            assert order.duality_check(g, h, TINY)
    assert verify_duality(TINY, max_pairs=10**9).passed
    # and the row comparison is live: a <= test that always hits breaks it
    monkeypatch.setattr(order, "_LE_TEST", lambda *scores: True)
    assert not verify_duality(TINY, max_pairs=10**9).passed


def _refutes_itself(find):
    def broken(g, h, contexts):
        return (g, UP_SETS[0]) if g is h else find(g, h, contexts)
    return broken


def _seed_one_gives_seven(canonicalize):
    def broken(g, spec, mode, order_seed=None):
        form, trace = canonicalize(g, spec, mode, order_seed=order_seed)
        return (leaf(7) if order_seed == 1 else form), trace
    return broken


def _sr_plus_one(extend_rows):
    def broken(g, table, rows):
        sl, sr = extend_rows(g, table, rows)
        return sl, [v + 1 for v in sr]
    return broken


@pytest.mark.parametrize("suite, spec, kwargs, name, defect, detail", [
    ("partition", TINY, {}, "outcome",
     lambda real: lambda g: Outcome.T, "violations=42"),
    ("identity", TINY, {}, "distinguishing_context",
     lambda real: lambda g: zero(), "failures=45"),
    ("partial-order", TINY, {}, "find_ge_refutation",
     _refutes_itself, "violations=48"),
    ("confluence", TINY, {"n_games": 50}, "canonicalize",
     _seed_one_gives_seven, "divergent=50"),
    ("cong-probe", SMALL, {}, "equivalent",
     lambda real: lambda g, h: g is h, "violations=27"),
    ("outcome-template", TINY, {"bound": 1}, "_extend_rows",
     _sr_plus_one, "violations=6561"),
])
def test_each_suite_fails_on_a_defect(
        monkeypatch, suite, spec, kwargs, name, defect, detail):
    # a check that passes on the engine fails with the defect patched in
    passing = {c.name for c in run_suite(suite, spec, **kwargs).checks if c.passed}
    real = getattr(scoreplay.verify, name)
    monkeypatch.setattr(scoreplay.verify, name, defect(real))
    res = run_suite(suite, spec, **kwargs)
    assert not res.passed
    assert any(
        c.name in passing and not c.passed and c.details.endswith(detail)
        for c in res.checks
    )


def test_run_suite_dispatch():
    assert run_suite("partition", TINY).passed
    with pytest.raises(ValueError):
        run_suite("nonsense", TINY)


def test_run_suite_applies_registered_defaults_and_overrides():
    assert SUITES["reduction-safety"].defaults == {"max_games": 400}
    assert SUITES["confluence"].defaults == {"n_games": 300}
    res = run_suite("outcome-template", TINY, seed=5, bound=1)
    assert "grid_points=6561" in res.checks[0].details  # 106 of 125 at grid 1
    res = run_suite("confluence", TINY, seed=3, n_games=20)
    assert "games=20 " in res.checks[0].details
