"""Strategy extraction, evaluation, truncation and the explicit dump."""

import random
from itertools import islice

import numpy as np
import pytest

from mdpdistill import strategy as strategy_mod
from mdpdistill.core import MdpError, reach_bounds
from mdpdistill.dtree import fit_max_leaf, induce_strategy
from mdpdistill.importance import build_training_set, importance_of, simulate
from mdpdistill.solver import brtdp, value_iteration
from mdpdistill.strategy import (decide, dump_tsv, evaluate,
                                 explicit_size, extract_liberal, reachable_under,
                                 truncate, within_budget)

from conftest import random_mdp
from oracles import (as_tuples, choice_of, consulted_dont_care, evaluate_rows, exact_importance,
                     extract_dict, max_reach_exact, mecs_dict, strategy_from_choice,
                     truncate_dict)


def _names(mdp, s, acts):
    return sorted(as_tuples(mdp).actions[s][i].attr.name for i in acts)


def test_extract_fig1_frozen(fig1):
    va = value_iteration(fig1, 1e-6)
    strat = extract_liberal(fig1, va)
    assert _names(fig1, 0, choice_of(strat)[0]) == ["b"]
    assert _names(fig1, 2, choice_of(strat)[2]) == ["d"]
    # waiting rooms: the only exit from the st-loop is picked even though
    # its value is zero; dead ends keep their internal loop
    assert _names(fig1, 3, choice_of(strat)[3]) == ["e"]
    assert _names(fig1, 4, choice_of(strat)[4]) == ["e"]
    for dead in (5, 6, 7, 8):
        assert _names(fig1, dead, choice_of(strat)[dead]) == ["dd"]
    assert 1 not in choice_of(strat)  # target stays open
    assert explicit_size(strat) == 8


def test_extract_keeps_value(fig1, mutex, sync2):
    for m in (fig1, mutex, sync2):
        va = value_iteration(m, 1e-9)
        strat = extract_liberal(m, va)
        assert evaluate(strat) == pytest.approx(
            max_reach_exact(m)[m.initial], abs=1e-7)


@pytest.mark.parametrize("seed", range(25))
def test_extract_is_optimal_on_random_models(seed):
    m = random_mdp(seed)
    va = value_iteration(m, 1e-9)
    strat = extract_liberal(m, va)
    assert evaluate(strat) == pytest.approx(
        max_reach_exact(m)[m.initial], abs=1e-6)


def _extracted(fn):
    try:
        return choice_of(fn())
    except MdpError as e:
        return str(e)


def _assert_extract_matches_dict_loop(m, va, tie_tol=strategy_mod.TIE_TOL):
    explored = va.explored.tolist()
    pair_lower = {(s, i): va.pair_lower[m.row_start[s] + i]
                  for s in explored for i in range(m.row_start[s + 1] - m.row_start[s])}
    mecs = mecs_dict(m, None if len(explored) == m.n_states else frozenset(explored))
    for exit_union in (False, True):
        want = _extracted(lambda: extract_dict(m, pair_lower, explored, mecs,
                                               tie_tol=tie_tol, exit_union=exit_union))
        assert _extracted(lambda: extract_liberal(m, va, exit_union=exit_union)) == want


@pytest.mark.parametrize("seed", range(240))
def test_extract_matches_dict_loop(seed):
    m = random_mdp(seed, max_states=12, max_actions=4)
    _assert_extract_matches_dict_loop(m, value_iteration(m, 1e-6))
    # a short episode budget leaves part of the model unexplored
    _assert_extract_matches_dict_loop(m, brtdp(m, 1e-6, seed=seed, max_episodes=3))


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_extract_matches_dict_loop_on_models(name, request):
    m = request.getfixturevalue(name)
    _assert_extract_matches_dict_loop(m, value_iteration(m, 1e-6))
    if name != "grid":  # brtdp does not converge on grid within its budget
        _assert_extract_matches_dict_loop(m, brtdp(m, 1e-6, seed=0))
        _assert_extract_matches_dict_loop(m, brtdp(m, 1e-6, seed=0, max_episodes=2))


@pytest.mark.parametrize("name", ["mutex", "sync2"])
def test_extract_reads_tie_tol(name, request, monkeypatch):
    # a wider tolerance keeps more actions, as the dict loop given it does
    m = request.getfixturevalue(name)
    va = value_iteration(m, 1e-6)
    narrow = _extracted(lambda: extract_liberal(m, va))
    monkeypatch.setattr(strategy_mod, "TIE_TOL", 0.05)
    assert _extracted(lambda: extract_liberal(m, va)) != narrow
    _assert_extract_matches_dict_loop(m, va, tie_tol=0.05)


def test_extract_ties_kept(mutex):
    # forcing and politely requesting the resource both achieve 0.91, so
    # the liberal strategy keeps whole tie groups somewhere
    va = value_iteration(mutex, 1e-9)
    strat = extract_liberal(mutex, va)
    assert any(len(acts) > 1 for acts in choice_of(strat).values())


def test_extract_mec_exit_choice(tiny_mec_mdp):
    m = tiny_mec_mdp
    va = value_iteration(m, 1e-9)
    strat = extract_liberal(m, va)
    # state 1 owns the best exit and commits to it; state 2 walks back
    assert _names(m, 1, choice_of(strat)[1]) == ["exit"]
    assert _names(m, 2, choice_of(strat)[2]) == ["spin"]
    assert evaluate(strat) == pytest.approx(0.5, abs=1e-12)


def test_exit_union_keeps_internal(tiny_mec_mdp):
    m = tiny_mec_mdp
    va = value_iteration(m, 1e-9)
    strat = extract_liberal(m, va, exit_union=True)
    assert _names(m, 1, choice_of(strat)[1]) == ["exit", "spin"]
    # spinning half the time still reaches the exit almost surely
    assert evaluate(strat) == pytest.approx(0.5, abs=1e-12)


def test_positive_mec_without_exit_rejected(monkeypatch):
    # two states spin forever with no way out; bounds claiming value there
    # cannot be turned into a strategy
    from mdpdistill.core import ActionAttr
    from mdpdistill.solver import ValueApprox
    from oracles import Action, make_absorbing, mdp_of, mec_arrays
    A = lambda name, succs: Action(ActionAttr(name, 1), succs, (1.0,))
    states = ((0,), (1,), (2,), (3,))
    actions = ((A("go", (1,)),), (A("spin", (2,)),), (A("spin", (1,)),), ())
    m = mdp_of((("x", 0, 3),), states,
               make_absorbing(actions, {3}), 0, frozenset({3})).validate()
    # one row per state, so pair (s, 0) is row s; state 3 is unexplored
    fake = ValueApprox(
        pair_lower=np.array([0.5, 0.5, 0.5, 0.0]),
        state_lower=np.array([0.5, 0.5, 0.5, 1.0]),
        state_upper=np.array([1.0, 1.0, 1.0, 1.0]),
        epsilon=0.1, explored=np.array([0, 1, 2]),
        gap=0.0, engine="vi", mecs=mec_arrays(m, mecs_dict(m, frozenset({0, 1, 2}))))
    with pytest.raises(MdpError, match="no exiting action"):
        extract_liberal(m, fake)
    _assert_extract_matches_dict_loop(m, fake)
    # values within TIE_TOL of 0 count as no value, so the spin is kept
    monkeypatch.setattr(strategy_mod, "TIE_TOL", 0.5)
    assert choice_of(extract_liberal(m, fake)) == {0: {0}, 1: {0}, 2: {0}}
    _assert_extract_matches_dict_loop(m, fake, tie_tol=0.5)


def test_evaluate_ignores_unreachable_choices(fig1):
    va = value_iteration(fig1, 1e-9)
    strat = extract_liberal(fig1, va)
    base = evaluate(strat)
    # repoint every state outside the induced run; the result must not
    # move by a single bit
    tweaked = dict(choice_of(strat))
    tweaked[3] = frozenset({0})  # st instead of e; state 3 is unreachable
    tweaked[6] = frozenset({0})
    assert evaluate(strategy_from_choice(fig1, tweaked)) == base


def test_evaluate_builds_one_induced_chain(fig1, monkeypatch):
    from mdpdistill import strategy as strategy_mod
    calls = []
    real = strategy_mod.induce_chain

    def counting(strat):
        calls.append(1)
        return real(strat)

    monkeypatch.setattr(strategy_mod, "induce_chain", counting)
    assert evaluate(strategy_from_choice(fig1, {})) == pytest.approx(0.49625, abs=1e-12)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2"])
def test_evaluate_equals_dict_loop_on_every_probe(name, request):
    m = request.getfixturevalue(name)
    sigma = extract_liberal(m, value_iteration(m, 1e-6))
    weights = importance_of(simulate(sigma, 2000, seed=0)).weights
    ts = build_training_set(sigma, weights, runs=2000)
    reference = evaluate(sigma)
    strategies = [sigma, truncate(sigma, weights)]

    def accept(tree):
        induced, _ = induce_strategy(m, tree)
        strategies.append(induced)
        return reference - evaluate(induced) <= 0.01 * reference

    fit = fit_max_leaf(ts, accept)
    assert len(strategies) == 2 + len(fit.tried)
    for s in strategies:
        assert evaluate(s) == evaluate_rows(m, s)


def _search_with_decisions(m, ts, reference, budget, upper, monkeypatch):
    """A budget search whose every probe checks `decide`, its bounds starting
    at `upper`, against the exact verdict, and the bounds it reads against
    the exact value.

    Returns the exact value of each probe and how many decisions fell back
    to the exact solve. The exact value and the bounds depend only on the
    induced rows, so probes that induce the same rows check them once.
    """
    solves = []
    real = strategy_mod.reach_exact
    monkeypatch.setattr(strategy_mod, "reach_exact",
                        lambda *a, **kw: solves.append(1) or real(*a, **kw))
    values, fallbacks = [], []
    exact = {}  # induced rows -> exact value, its bounds checked

    def accept(tree):
        induced, _ = induce_strategy(m, tree)
        key = induced.rows.tobytes()
        if key not in exact:
            exact[key] = value = evaluate(induced)
            # both sides round: allow 1e-13, far below the 1e-9 margin of `decide`
            P, targets, init, states = strategy_mod._reachable_chain(induced)
            for lower, up in islice(reach_bounds(P, targets, init, upper[states]),
                                    strategy_mod.DECIDE_SWEEPS + 1):
                assert lower - 1e-13 <= value <= up + 1e-13
        value = exact[key]
        before = len(solves)
        verdict = decide(induced, upper, reference, budget)
        fallbacks.append(len(solves) > before)
        assert verdict == within_budget(value, reference, budget)
        values.append(value)
        return verdict

    fit_max_leaf(ts, accept)
    monkeypatch.undo()
    return values, sum(fallbacks)


# the engines whose upper bounds start a decision; BRTDP's episode cap keeps
# grid quick, and leaves most of its states at the bound 1
ENGINES = {"vi": lambda m: value_iteration(m, 1e-6),
           "brtdp": lambda m: brtdp(m, 1e-6, seed=0, max_episodes=300)}


def _check_decisions(m, monkeypatch, runs=2000, kind="DP", engine="vi"):
    va = ENGINES[engine](m)
    sigma = extract_liberal(m, va)
    weights = importance_of(simulate(sigma, runs, seed=0), kind).weights
    ts = build_training_set(sigma, weights, runs=runs)
    reference = evaluate(sigma)
    values, _ = _search_with_decisions(m, ts, reference, 0.01, va.state_upper, monkeypatch)
    if reference <= 0:
        return
    # a budget exactly at a probe's loss leaves its bounds undecided, so
    # the exact value decides; min_leaf=1, the first probe, is made in
    # every search, the last one of the first search maybe not
    for value, made in ((values[0], True), (values[-1], False)):
        _, fallbacks = _search_with_decisions(
            m, ts, reference, (reference - value) / reference, va.state_upper, monkeypatch)
        assert fallbacks >= made


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_decide_matches_exact_verdict_on_every_probe(name, request, monkeypatch):
    _check_decisions(request.getfixturevalue(name), monkeypatch)


@pytest.mark.parametrize("seed", range(30))
def test_decide_matches_exact_verdict_on_random_models(seed, monkeypatch):
    # unconditional importance: some of these models never reach the target
    _check_decisions(random_mdp(seed, max_states=30), monkeypatch, runs=300, kind="AP")


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_decide_from_brtdp_bounds_matches_exact_verdict_on_every_probe(
        name, request, monkeypatch):
    # unconditional importance: under grid's partial bounds no run may reach the target
    _check_decisions(request.getfixturevalue(name), monkeypatch, kind="AP", engine="brtdp")


@pytest.mark.parametrize("seed", range(30))
def test_decide_from_brtdp_bounds_matches_exact_verdict_on_random_models(seed, monkeypatch):
    _check_decisions(random_mdp(seed, max_states=30), monkeypatch, runs=300, kind="AP",
                     engine="brtdp")


@pytest.mark.parametrize("sweeps", [0, 1])
@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2"])
def test_decide_at_its_sweep_cap_falls_back_to_exact(name, sweeps, request, monkeypatch):
    m = request.getfixturevalue(name)
    monkeypatch.setattr(strategy_mod, "DECIDE_SWEEPS", sweeps)
    va = value_iteration(m, 1e-6)
    sigma = extract_liberal(m, va)
    reference = evaluate(sigma)
    for tree_sigma in (sigma, strategy_from_choice(m, {})):
        value = evaluate(tree_sigma)
        for budget in (0.0, 0.01, 0.5, (reference - value) / reference):
            for upper in (va.state_upper, np.ones(m.n_states)):
                assert (decide(tree_sigma, upper, reference, budget)
                        == within_budget(value, reference, budget))


def test_evaluate_equals_dict_loop_on_grid(grid):
    sigma = extract_liberal(grid, value_iteration(grid, 1e-6))
    assert evaluate(sigma) == evaluate_rows(grid, sigma)


def test_uniform_strategy_value_frozen(fig1):
    assert evaluate(strategy_from_choice(fig1, {})) == pytest.approx(0.49625, abs=1e-12)


def test_truncate_drops_zero_weight(fig1):
    va = value_iteration(fig1, 1e-9)
    strat = extract_liberal(fig1, va)
    w = exact_importance(fig1, strat)
    cut = truncate(strat, w, 0.0)
    assert set(choice_of(cut)) == {0, 2}
    assert explicit_size(cut) == 2
    # bit-identical value: dropped states were off the induced run
    assert evaluate(cut) == evaluate(strat)


def test_truncate_delta_thins_rare_states(fig1):
    va = value_iteration(fig1, 1e-9)
    strat = extract_liberal(fig1, va)
    w = exact_importance(fig1, strat)
    cut = truncate(strat, w, 0.1)  # Imp(q) = 1/199 < 0.1
    assert set(choice_of(cut)) == {0}
    v = evaluate(cut)
    # q falls back to uniform over {c, d}: 0.99 + 0.01 * 0.25
    assert v == pytest.approx(0.9925, abs=1e-12)


def test_truncate_keep_argmax(fig1):
    va = value_iteration(fig1, 1e-9)
    strat = extract_liberal(fig1, va, exit_union=True)
    w = np.ones(fig1.n_states)
    thin = truncate(strat, w, 0.0, mode="keep-argmax")
    assert all(len(acts) == 1 for acts in choice_of(thin).values())
    assert set(choice_of(thin)) == set(choice_of(strat))
    with pytest.raises(ValueError, match="unknown truncation mode"):
        truncate(strat, w, 0.0, mode="bogus")


def _assert_same_strategy(got, want):
    assert choice_of(got) == choice_of(want)
    assert got.mdp is want.mdp
    assert np.array_equal(got.rows, want.rows)
    assert np.array_equal(got.defined, want.defined)


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_truncate_matches_dict_loop(name, request):
    m = request.getfixturevalue(name)
    for exit_union in (False, True):
        sigma = extract_liberal(m, value_iteration(m, 1e-6), exit_union=exit_union)
        weights = importance_of(simulate(sigma, 2000, seed=0), "DP").weights
        for delta in (0.0, 0.01, -0.5):
            for mode in ("keep-all", "keep-argmax"):
                _assert_same_strategy(truncate(sigma, weights, delta, mode),
                                      truncate_dict(sigma, weights, delta, mode))


@pytest.mark.parametrize("seed", range(40))
def test_from_choice_round_trips(seed):
    m = random_mdp(seed, max_actions=4)
    for exit_union in (False, True):
        sigma = extract_liberal(m, value_iteration(m, 1e-9), exit_union=exit_union)
        _assert_same_strategy(strategy_from_choice(m, choice_of(sigma)), sigma)


def test_consulted_dont_care(fig1):
    va = value_iteration(fig1, 1e-9)
    strat = extract_liberal(fig1, va)
    w = exact_importance(fig1, strat)
    cut = truncate(strat, w, 0.0)
    # state 5 is entered from q but was truncated away; the target does
    # not count even though the run ends there
    assert consulted_dont_care(fig1, cut) == [5]
    assert consulted_dont_care(fig1, strat) == []


def test_reachable_under(fig1):
    va = value_iteration(fig1, 1e-9)
    strat = extract_liberal(fig1, va)
    assert reachable_under(fig1, strat) == [0, 1, 2, 5]
    assert reachable_under(fig1, strategy_from_choice(fig1, {})) == list(range(9))


def test_dump_tsv_layout(fig1):
    va = value_iteration(fig1, 1e-9)
    strat = extract_liberal(fig1, va)
    w = exact_importance(fig1, strat)
    text = dump_tsv(strat, w)
    lines = text.strip().split("\n")
    assert lines[0].split("\t") == [
        "state", "valuation", "action", "module", "label", "importance"]
    first = lines[1].split("\t")
    assert first == ["0", "loc=0,pos=1", "a", "1", "bad", "1"]
    second = lines[2].split("\t")
    assert second[2] == "b" and second[4] == "good"
    # every defined state lists all of its attributes exactly once
    q_rows = [l.split("\t") for l in lines if l.startswith("2\t")]
    assert [(r[2], r[4]) for r in q_rows] == [("c", "bad"), ("d", "good")]


def test_dump_tsv_without_weights(fig1):
    va = value_iteration(fig1, 1e-9)
    strat = extract_liberal(fig1, va)
    lines = dump_tsv(strat).splitlines()
    # importance column stays empty when no weights are handed over
    assert all(line.split("\t")[5] == "" for line in lines[1:])


def test_good_pairs_distinct_attrs(sync2):
    # four parallel step combinations share one attribute; the explicit
    # description counts it once per state
    va = value_iteration(sync2, 1e-9)
    strat = extract_liberal(sync2, va)
    pairs = strat.good_pairs()
    per_state = {}
    for s, attr in pairs:
        per_state.setdefault(s, []).append(attr)
    for s, attrs in per_state.items():
        assert len(attrs) == len(set(attrs))
        assert all(attr.name == "step" for attr in attrs)
        assert len(attrs) == 1


# ------------------------------------------------- explicit size by counting

@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_explicit_size_counts_the_good_pairs(name, request):
    m = request.getfixturevalue(name)
    sigma = extract_liberal(m, value_iteration(m, 1e-6))
    weights = importance_of(simulate(sigma, 500, seed=0)).weights
    for s in (sigma, truncate(sigma, weights), truncate(sigma, weights, mode="keep-argmax"),
              strategy_from_choice(m, {})):
        assert explicit_size(s) == len(s.good_pairs())


@pytest.mark.parametrize("seed", range(100))
def test_explicit_size_counts_the_good_pairs_of_random_strategies(seed):
    m = random_mdp(seed, max_states=30)
    rng = random.Random(seed)
    counts = np.diff(m.row_start).tolist()
    s = strategy_from_choice(
        m, {st: frozenset(rng.sample(range(k), rng.randint(1, k)))
            for st, k in enumerate(counts) if rng.random() < 0.7})
    assert explicit_size(s) == len(s.good_pairs())
