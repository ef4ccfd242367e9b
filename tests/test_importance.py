"""Simulation, importance weights and training-set assembly."""

import random
import tracemalloc

import numpy as np
import pytest

from mdpdistill import importance
from mdpdistill.core import ActionAttr, MdpError, reach_exact, induce_chain
from mdpdistill.importance import (Domain, ImportanceResult, RunStats,
                                   build_training_set, importance_of, simulate)
from mdpdistill.solver import value_iteration
from mdpdistill.strategy import extract_liberal

from conftest import random_mdp
from oracles import (as_tuples, exact_importance, exact_importance_cut, horizon_importance,
                     rows_of, simulate_rows, strategy_from_choice, training_rows,
                     training_set)


def _opt(mdp):
    return extract_liberal(mdp, value_iteration(mdp, 1e-9))


# ------------------------------------------------------------ exact measure

def test_exact_importance_fig1_frozen(fig1):
    strat = _opt(fig1)
    imp = exact_importance(fig1, strat)
    assert imp[0] == 1.0
    assert imp[2] == pytest.approx(1 / 199, abs=1e-12)
    assert imp[1] == 1.0  # the target itself is on every successful run
    for s in (3, 4, 5, 6, 7, 8):
        assert imp[s] == 0.0


def test_exact_importance_needs_reachable_target(fig1):
    hopeless = strategy_from_choice(fig1, {0: frozenset({1})})  # b only: value 0
    with pytest.raises(MdpError, match="cannot reach the target"):
        exact_importance(fig1, hopeless)


@pytest.mark.parametrize("seed", range(20))
def test_exact_importance_against_horizon_oracle(seed):
    m = random_mdp(seed)
    strat = strategy_from_choice(m, {})  # uniform everywhere
    v0 = reach_exact(induce_chain(strat), as_tuples(m).target)[m.initial]
    if v0 <= 0.0:
        pytest.skip("uniform play cannot reach the target here")
    imp = exact_importance(m, strat)
    for s in range(m.n_states):
        if imp[s] == 0.0:
            continue
        est, slack = horizon_importance(m, strat, s)
        bound = max(1e-9, 2 * slack / max(v0 - slack, 1e-9))
        assert abs(imp[s] - est) <= bound, (s, imp[s], est, slack)


def _importance_or_error(fn, m, strat):
    try:
        return fn(m, strat).tobytes()
    except MdpError as e:
        return str(e)


def _assert_importance_matches_cut_chain(m):
    for strat in (_opt(m), strategy_from_choice(m, {})):
        got = _importance_or_error(exact_importance, m, strat)
        assert got == _importance_or_error(exact_importance_cut, m, strat)


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2"])
def test_exact_importance_matches_cut_chain(name, request):
    # grid is left out: one solve per state on 10,000 states
    _assert_importance_matches_cut_chain(request.getfixturevalue(name))


@pytest.mark.parametrize("seed", range(120))
def test_exact_importance_matches_cut_chain_on_random_models(seed):
    _assert_importance_matches_cut_chain(random_mdp(seed, max_states=12))


def test_exact_importance_in_unit_interval(mutex):
    imp = exact_importance(mutex, _opt(mutex))
    assert np.all(imp >= 0.0) and np.all(imp <= 1.0)
    assert imp[mutex.initial] == 1.0


# ---------------------------------------------------------------- sampling

def test_simulate_deterministic(fig1):
    strat = _opt(fig1)
    a = simulate(strat, 500, seed=9)
    b = simulate(strat, 500, seed=9)
    assert a.total_runs == b.total_runs == 500
    assert a.target_runs == b.target_runs
    for f in ("visited_cond_count", "visited_cond_mult",
              "visited_all_count", "visited_all_mult"):
        assert np.array_equal(getattr(a, f), getattr(b, f))


def test_simulate_split_invariance(fig1, monkeypatch):
    strat = _opt(fig1)
    whole = simulate(strat, 300, seed=4)
    monkeypatch.setattr(importance, "_BLOCK", 120)  # blocks of 120, 120 and 60 runs
    split = simulate(strat, 300, seed=4)
    assert split.target_runs == whole.target_runs
    assert np.array_equal(split.visited_cond_mult, whole.visited_cond_mult)
    assert np.array_equal(split.visited_all_count, whole.visited_all_count)


def test_simulate_batched_matches_serial(fig1):
    # the CLI calls `simulate` under the name the benchmark wraps
    from mdpdistill import cli
    assert cli.simulate_batched is importance.simulate
    strat = _opt(fig1)
    serial = simulate(strat, 400, seed=2)
    _same_stats(cli.simulate_batched(strat, 400, seed=2), serial)


def test_merge_is_commutative(fig1):
    strat = _opt(fig1)
    a = simulate(strat, 50, seed=1)
    b = simulate(strat, 70, seed=2)
    ab, ba = a.merge(b), b.merge(a)
    assert ab.target_runs == ba.target_runs
    assert np.array_equal(ab.visited_cond_count, ba.visited_cond_count)
    with pytest.raises(ValueError, match="different state spaces"):
        a.merge(RunStats(3))


def test_merge_needs_one_step_cap(fig1):
    strat = _opt(fig1)
    a = simulate(strat, 50, seed=1, max_steps=7)
    assert a.max_steps == 7
    assert a.merge(simulate(strat, 20, seed=1, max_steps=7)).max_steps == 7
    with pytest.raises(ValueError, match="different step caps"):
        a.merge(simulate(strat, 20, seed=1))


def test_simulate_stops_in_doomed_states(fig1):
    # under the optimal strategy runs that slip to the dead end stop there
    strat = _opt(fig1)
    stats = simulate(strat, 2000, seed=0)
    assert stats.target_runs < stats.total_runs  # some runs died
    assert stats.visited_all_mult[5] == stats.visited_all_count[5]  # no loops counted
    assert stats.visited_cond_count[5] == 0  # never on a successful run


def test_simulate_step_cap():
    import mdpdistill.fixtures as fx
    m = fx.load("fig1")
    strat = _opt(m)
    capped = simulate(strat, 100, seed=3, max_steps=0)
    assert capped.target_runs == 0
    assert capped.visited_all_count[m.initial] == 100
    assert capped.visited_all_count.sum() == 100  # nothing else visited


def test_truncated_runs_all_at_zero_cap(fig1):
    stats = simulate(_opt(fig1), 100, seed=3, max_steps=0)
    assert stats.truncated_runs == 100


def test_truncated_runs_some_at_small_cap(mutex, monkeypatch):
    strat = _opt(mutex)
    capped = simulate(strat, 1000, seed=3, max_steps=4)
    # at 4 steps some runs are cut, some hit, and some are already doomed
    assert 0 < capped.truncated_runs < capped.total_runs - capped.target_runs
    assert simulate(strat, 1000, seed=3).truncated_runs == 0
    monkeypatch.setattr(importance, "_BLOCK", 400)  # blocks of 400, 400 and 200 runs
    assert simulate(strat, 1000, seed=3, max_steps=4).truncated_runs == capped.truncated_runs


def _same_stats(a, b):
    assert (a.n_states, a.total_runs, a.target_runs, a.truncated_runs, a.max_steps) == (
        b.n_states, b.total_runs, b.target_runs, b.truncated_runs, b.max_steps)
    for f in ("visited_cond_count", "visited_cond_mult",
              "visited_all_count", "visited_all_mult"):
        assert getattr(a, f).dtype == getattr(b, f).dtype == np.int64
        assert np.array_equal(getattr(a, f), getattr(b, f)), f


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid", "wide_fan",
                                  "fig1_extended_2000"])
def test_simulate_matches_run_loop(name, request):
    m = request.getfixturevalue(name)
    strat = _opt(m)
    _same_stats(simulate(strat, 10000, seed=1),
                simulate_rows(m, strat, 10000, seed=1))


@pytest.mark.parametrize("seed", range(25))
def test_simulate_matches_run_loop_on_random_models(seed):
    m = random_mdp(seed)
    strat = strategy_from_choice(m, {})  # uniform everywhere
    _same_stats(simulate(strat, 300, seed=seed),
                simulate_rows(m, strat, 300, seed=seed))


# `block` is the number of runs walked at a time, 0 for the default `_BLOCK`
@pytest.mark.parametrize("runs,block,max_steps", [
    (0, 0, 1_000_000), (1, 0, 1_000_000), (2047, 3, 1_000_000),
    (2048, 0, 1_000_000), (2049, 2048, 1_000_000), (4097, 11, 1_000_000),
    (3000, 5, 0), (3000, 5, 1), (3000, 5, 3)])
def test_simulate_matches_run_loop_across_blocks(mutex, monkeypatch, runs, block, max_steps):
    strat = _opt(mutex)
    if block:
        monkeypatch.setattr(importance, "_BLOCK", block)
    _same_stats(simulate(strat, runs, seed=6, max_steps=max_steps),
                simulate_rows(mutex, strat, runs, seed=6, max_steps=max_steps))


def test_simulate_matches_run_loop_when_visits_are_tallied_early(sync2, monkeypatch):
    # a tiny limit tallies the held visits every few steps
    monkeypatch.setattr(importance, "_PENDING", 2)
    strat = _opt(sync2)
    _same_stats(simulate(strat, 2500, seed=2),
                simulate_rows(sync2, strat, 2500, seed=2))


def test_simulate_peak_memory_flat_in_runs(grid):
    # runs are walked in blocks, and a block holds its visits in a fixed buffer
    strat = _opt(grid)

    def peak(runs):
        tracemalloc.start()
        try:
            simulate(strat, runs, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10000), peak(40000)
    assert large <= 1.1 * small, (small, large)


def test_simulated_importance_near_exact(fig1):
    strat = _opt(fig1)
    stats = simulate(strat, 20000, seed=11)
    imp = importance_of(stats, "DP").weights
    assert abs(imp[2] - 1 / 199) < 3e-3
    assert imp[0] == 1.0


# ---------------------------------------------------------------- variants

def _stats():
    s = RunStats(3, total_runs=10, target_runs=4)
    s.visited_cond_count[:] = [4, 2, 0]
    s.visited_cond_mult[:] = [4, 6, 0]
    s.visited_all_count[:] = [10, 3, 5]
    s.visited_all_mult[:] = [10, 14, 5]
    return s


def test_variant_arithmetic():
    s = _stats()
    assert importance_of(s, "DP").weights.tolist() == [1.0, 0.5, 0.0]
    assert importance_of(s, "AP").weights.tolist() == [1.0, 0.3, 0.5]
    de = importance_of(s, "DE")
    assert de.weights.tolist() == [1.0, 1.0, 0.0]  # 6/4 clipped
    assert de.clipped_states == 1
    ae = importance_of(s, "AE")
    assert ae.weights.tolist() == [1.0, 1.0, 0.5]  # 14/10 clipped
    assert ae.clipped_states == 1
    assert importance_of(s, "DP").clipped_states == 0


def test_variant_errors():
    s = _stats()
    s.target_runs = 0
    with pytest.raises(MdpError, match="no simulated run reached"):
        importance_of(s, "DP")
    importance_of(s, "AP")  # unconditional variants still fine
    with pytest.raises(ValueError, match="unknown importance variant"):
        importance_of(s, "XX")
    with pytest.raises(MdpError, match="no runs"):
        importance_of(RunStats(3), "AP")


# ------------------------------------------------------------- training set

def test_training_set_fig1(fig1):
    strat = _opt(fig1)
    w = exact_importance(fig1, strat)
    ts = build_training_set(strat, w, mode="once")
    assert ts.domain == Domain.of(fig1)
    rows = rows_of(ts)
    by_state = {}
    for r in rows:
        by_state.setdefault(r.x, []).append(r)
    # only the two positive-weight states appear, the target never does
    assert set(by_state) == {(0, 1), (1, 2)}
    labels = {(r.x, r.attr.name): r.good for r in rows}
    assert labels[((0, 1), "b")] and not labels[((0, 1), "a")]
    assert labels[((1, 2), "d")] and not labels[((1, 2), "c")]
    assert all(r.weight == 1 for r in rows)


def test_training_set_repeat_counts(fig1):
    strat = _opt(fig1)
    w = exact_importance(fig1, strat)
    ts = build_training_set(strat, w, mode="repeat", runs=1000)
    weight_of = {(r.x, r.attr.name): r.weight for r in rows_of(ts)}
    assert weight_of[((0, 1), "b")] == 1000
    # round(1000 / 199) = 5
    assert weight_of[((1, 2), "d")] == 5
    assert ts.total_weight == 2 * 1000 + 2 * 5


def test_training_set_weight_floor(fig1):
    strat = _opt(fig1)
    w = exact_importance(fig1, strat)
    ts = build_training_set(strat, w, mode="repeat", runs=10)
    # 10/199 rounds to zero but rows are never dropped by rounding
    assert min(r.weight for r in rows_of(ts)) == 1


def test_training_set_delta(fig1):
    strat = _opt(fig1)
    w = exact_importance(fig1, strat)
    ts = build_training_set(strat, w, delta=0.1)
    assert {r.x for r in rows_of(ts)} == {(0, 1)}


def test_training_set_dont_care_all_good(fig1):
    w = np.ones(fig1.n_states)
    ts = build_training_set(strategy_from_choice(fig1, {}), w, mode="once")
    rows = rows_of(ts)
    assert rows and all(r.good for r in rows)
    assert (0, 1) in {r.x for r in rows}


def test_training_set_dedups_attributes(sync2):
    # four synchronized combinations share one attribute per state
    strat = _opt(sync2)
    w = np.ones(sync2.n_states)
    rows = rows_of(build_training_set(strat, w, mode="once"))
    for r in rows:
        assert r.attr == ActionAttr("step", 0)
    xs = [r.x for r in rows]
    assert len(xs) == len(set(xs))  # one row per state


def test_training_set_mode_checked(fig1):
    with pytest.raises(ValueError, match="unknown training mode"):
        build_training_set(strategy_from_choice(fig1, {}),
                           np.ones(fig1.n_states), mode="thrice")


def _assert_matches_row_loop(mdp, strategy, weights, **kw):
    got = build_training_set(strategy, weights, **kw)
    rows = training_rows(mdp, strategy, weights, **kw)
    want = training_set(Domain.of(mdp), rows)
    assert got.domain == want.domain
    assert got.rows.dtype == np.int64 and got.rows.shape == want.rows.shape
    assert got.good.dtype == bool and got.weight.dtype == np.int64
    assert (got.rows == want.rows).all()
    assert (got.good == want.good).all()
    assert (got.weight == want.weight).all()
    assert len(got.rows) == len(rows)
    assert got.total_weight == sum(r.weight for r in rows)


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_training_set_matches_row_loop(name, request):
    m = request.getfixturevalue(name)
    strat = _opt(m)
    w = importance_of(simulate(strat, 2000, seed=1), "DP").weights
    positive = np.sort(w[w > 0])
    for delta in (0.0, float(positive[len(positive) // 2])):
        for runs in (1, 997, 10000):
            _assert_matches_row_loop(m, strat, w, mode="repeat", runs=runs, delta=delta)
        _assert_matches_row_loop(m, strat, w, mode="once", runs=997, delta=delta)


@pytest.mark.parametrize("seed", range(30))
def test_training_set_matches_row_loop_on_random_models(seed):
    # weights on and next to the rounding boundary of runs * w + 0.5
    rng = random.Random(seed)
    m = random_mdp(seed, max_states=10, max_actions=4)
    t = as_tuples(m)
    strat = strategy_from_choice(
        m, {s: frozenset(rng.sample(range(len(t.actions[s])),
                                    rng.randint(1, len(t.actions[s]))))
            for s in range(m.n_states) if rng.random() < 0.7})
    for runs in (1, 3, 1000):
        w = np.array([rng.choice([0.0, 1.0, 0.5 / runs, 1.5 / runs, 2.5 / runs, rng.random()])
                      for _ in range(m.n_states)])
        for delta in (0.0, 0.3):
            for mode in ("repeat", "once"):
                _assert_matches_row_loop(m, strat, w, mode=mode, runs=runs, delta=delta)
