"""Strategy extraction, evaluation, truncation and the explicit dump."""

import numpy as np
import pytest

from mdpdistill.core import LiberalStrategy, MdpError, max_reach_exact
from mdpdistill.dtree import fit_max_leaf, induce_strategy
from mdpdistill.importance import (build_training_set, exact_importance,
                                   importance_of, simulate)
from mdpdistill.solver import brtdp, value_iteration
from mdpdistill.strategy import (consulted_dont_care, dump_tsv, evaluate,
                                 explicit_size, extract_liberal,
                                 reachable_under, truncate)

from conftest import random_mdp
from oracles import evaluate_rows, extract_dict, mecs_dict


def _names(mdp, s, acts):
    return sorted(mdp.actions[s][i].attr.name for i in acts)


def test_extract_fig1_frozen(fig1):
    va = value_iteration(fig1, 1e-6)
    strat = extract_liberal(fig1, va)
    assert _names(fig1, 0, strat.choice[0]) == ["b"]
    assert _names(fig1, 2, strat.choice[2]) == ["d"]
    # waiting rooms: the only exit from the st-loop is picked even though
    # its value is zero; dead ends keep their internal loop
    assert _names(fig1, 3, strat.choice[3]) == ["e"]
    assert _names(fig1, 4, strat.choice[4]) == ["e"]
    for dead in (5, 6, 7, 8):
        assert _names(fig1, dead, strat.choice[dead]) == ["dd"]
    assert 1 not in strat.choice  # target stays open
    assert explicit_size(fig1, strat) == 8


def test_extract_keeps_value(fig1, mutex, sync2):
    for m in (fig1, mutex, sync2):
        va = value_iteration(m, 1e-9)
        strat = extract_liberal(m, va)
        assert evaluate(m, strat) == pytest.approx(
            max_reach_exact(m)[m.initial], abs=1e-7)


@pytest.mark.parametrize("seed", range(25))
def test_extract_is_optimal_on_random_models(seed):
    m = random_mdp(seed)
    va = value_iteration(m, 1e-9)
    strat = extract_liberal(m, va)
    assert evaluate(m, strat) == pytest.approx(
        max_reach_exact(m)[m.initial], abs=1e-6)


def _extracted(fn):
    try:
        return fn().choice
    except MdpError as e:
        return str(e)


def _assert_extract_matches_dict_loop(m, va):
    v = m.sparse
    explored = va.explored.tolist()
    pair_lower = {(s, i): va.pair_lower[v.row_start[s] + i]
                  for s in explored for i in range(len(m.actions[s]))}
    mecs = mecs_dict(m, None if len(explored) == m.n_states else frozenset(explored))
    for exit_union in (False, True):
        want = _extracted(lambda: extract_dict(m, pair_lower, explored, mecs,
                                               exit_union=exit_union))
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


def test_extract_ties_kept(mutex):
    # forcing and politely requesting the resource both achieve 0.91, so
    # the liberal strategy keeps whole tie groups somewhere
    va = value_iteration(mutex, 1e-9)
    strat = extract_liberal(mutex, va)
    assert any(len(acts) > 1 for acts in strat.choice.values())


def test_extract_mec_exit_choice(tiny_mec_mdp):
    m = tiny_mec_mdp
    va = value_iteration(m, 1e-9)
    strat = extract_liberal(m, va)
    # state 1 owns the best exit and commits to it; state 2 walks back
    assert _names(m, 1, strat.choice[1]) == ["exit"]
    assert _names(m, 2, strat.choice[2]) == ["spin"]
    assert evaluate(m, strat) == pytest.approx(0.5, abs=1e-12)


def test_exit_union_keeps_internal(tiny_mec_mdp):
    m = tiny_mec_mdp
    va = value_iteration(m, 1e-9)
    strat = extract_liberal(m, va, exit_union=True)
    assert _names(m, 1, strat.choice[1]) == ["exit", "spin"]
    # spinning half the time still reaches the exit almost surely
    assert evaluate(m, strat) == pytest.approx(0.5, abs=1e-12)


def test_positive_mec_without_exit_rejected():
    # two states spin forever with no way out; bounds claiming value there
    # cannot be turned into a strategy
    from mdpdistill.core import Action, ActionAttr
    from mdpdistill.solver import ValueApprox
    from oracles import make_absorbing, mdp_of
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
        converged=True, gap=0.0, engine="vi")
    with pytest.raises(MdpError, match="no exiting action"):
        extract_liberal(m, fake)
    _assert_extract_matches_dict_loop(m, fake)


def test_evaluate_ignores_unreachable_choices(fig1):
    va = value_iteration(fig1, 1e-9)
    strat = extract_liberal(fig1, va)
    base = evaluate(fig1, strat)
    # repoint every state outside the induced run; the result must not
    # move by a single bit
    tweaked = dict(strat.choice)
    tweaked[3] = frozenset({0})  # st instead of e; state 3 is unreachable
    tweaked[6] = frozenset({0})
    assert evaluate(fig1, LiberalStrategy(tweaked)) == base


def test_evaluate_builds_one_induced_chain(fig1, monkeypatch):
    from mdpdistill import strategy as strategy_mod
    calls = []
    real = strategy_mod.induce_chain

    def counting(mdp, strat):
        calls.append(1)
        return real(mdp, strat)

    monkeypatch.setattr(strategy_mod, "induce_chain", counting)
    assert evaluate(fig1, LiberalStrategy({})) == pytest.approx(0.49625, abs=1e-12)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2"])
def test_evaluate_equals_dict_loop_on_every_probe(name, request):
    m = request.getfixturevalue(name)
    sigma = extract_liberal(m, value_iteration(m, 1e-6))
    weights = importance_of(simulate(m, sigma, 2000, seed=0)).weights
    ts = build_training_set(m, sigma, weights, runs=2000)
    reference = evaluate(m, sigma)
    strategies = [sigma, truncate(sigma, weights)]

    def accept(tree):
        induced, _ = induce_strategy(m, tree)
        strategies.append(induced)
        return reference - evaluate(m, induced) <= 0.01 * reference

    fit = fit_max_leaf(ts, accept)
    assert len(strategies) == 2 + len(fit.tried)
    for s in strategies:
        assert evaluate(m, s) == evaluate_rows(m, s)


def test_evaluate_equals_dict_loop_on_grid(grid):
    sigma = extract_liberal(grid, value_iteration(grid, 1e-6))
    assert evaluate(grid, sigma) == evaluate_rows(grid, sigma)


def test_uniform_strategy_value_frozen(fig1):
    assert evaluate(fig1, LiberalStrategy({})) == pytest.approx(0.49625, abs=1e-12)


def test_truncate_drops_zero_weight(fig1):
    va = value_iteration(fig1, 1e-9)
    strat = extract_liberal(fig1, va)
    w = exact_importance(fig1, strat)
    cut = truncate(strat, w, 0.0)
    assert set(cut.choice) == {0, 2}
    assert explicit_size(fig1, cut) == 2
    # bit-identical value: dropped states were off the induced run
    assert evaluate(fig1, cut) == evaluate(fig1, strat)


def test_truncate_delta_thins_rare_states(fig1):
    va = value_iteration(fig1, 1e-9)
    strat = extract_liberal(fig1, va)
    w = exact_importance(fig1, strat)
    cut = truncate(strat, w, 0.1)  # Imp(q) = 1/199 < 0.1
    assert set(cut.choice) == {0}
    v = evaluate(fig1, cut)
    # q falls back to uniform over {c, d}: 0.99 + 0.01 * 0.25
    assert v == pytest.approx(0.9925, abs=1e-12)


def test_truncate_keep_argmax(fig1):
    va = value_iteration(fig1, 1e-9)
    strat = extract_liberal(fig1, va, exit_union=True)
    w = np.ones(fig1.n_states)
    thin = truncate(strat, w, 0.0, mode="keep-argmax")
    assert all(len(acts) == 1 for acts in thin.choice.values())
    assert set(thin.choice) == set(strat.choice)
    with pytest.raises(ValueError, match="unknown truncation mode"):
        truncate(strat, w, 0.0, mode="bogus")


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
    assert reachable_under(fig1, LiberalStrategy({})) == list(range(9))


def test_dump_tsv_layout(fig1):
    va = value_iteration(fig1, 1e-9)
    strat = extract_liberal(fig1, va)
    w = exact_importance(fig1, strat)
    text = dump_tsv(fig1, strat, w)
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
    lines = dump_tsv(fig1, strat).splitlines()
    # importance column stays empty when no weights are handed over
    assert all(line.split("\t")[5] == "" for line in lines[1:])


def test_good_pairs_distinct_attrs(sync2):
    # four parallel step combinations share one attribute; the explicit
    # description counts it once per state
    va = value_iteration(sync2, 1e-9)
    strat = extract_liberal(sync2, va)
    pairs = strat.good_pairs(sync2)
    per_state = {}
    for s, attr in pairs:
        per_state.setdefault(s, []).append(attr)
    for s, attrs in per_state.items():
        assert len(attrs) == len(set(attrs))
        assert all(attr.name == "step" for attr in attrs)
        assert len(attrs) == 1
