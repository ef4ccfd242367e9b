"""Interval value iteration, the sampling engine and the soundness checker."""

import dataclasses

import numpy as np
import pytest

from mdpdistill.core import interval_iterate, max_reach_exact
from mdpdistill.solver import brtdp, check_valid, value_iteration

from conftest import random_mdp
from oracles import brute_val, mecs_dict, quotient_dict, tables_dict


# --------------------------------------------------------------------- VI

@pytest.mark.parametrize("seed", range(30))
def test_vi_matches_brute_force(seed):
    m = random_mdp(seed)
    va = value_iteration(m, 1e-8)
    want = brute_val(m)
    assert va.converged
    for s in range(m.n_states):
        assert va.state_lower[s] <= want[s] + 1e-9
        assert va.state_upper[s] >= want[s] - 1e-9
    assert want[m.initial] - va.state_lower[m.initial] <= 1e-8


@pytest.mark.parametrize("seed", range(30))
def test_vi_output_is_valid(seed):
    m = random_mdp(seed)
    va = value_iteration(m, 1e-6)
    rep = check_valid(m, va, max_reach_exact(m))
    assert rep.ok, rep.messages


def test_vi_fig1_frozen(fig1):
    va = value_iteration(fig1, 1e-6)
    assert va.engine == "vi"
    assert va.converged and va.gap <= 1e-6
    assert va.state_lower[0] == pytest.approx(0.995, abs=1e-9)
    assert va.state_lower[2] == pytest.approx(0.5, abs=1e-9)
    assert va.explored.tolist() == list(range(9))
    # pair values: b beats a at the initial state
    names = {i: a.attr.name for i, a in enumerate(fig1.actions[0])}
    by_name = {names[i]: va.pair_lower[fig1.sparse.row_start[0] + i] for i in names}
    assert by_name["b"] == pytest.approx(0.995, abs=1e-9)
    assert by_name["a"] == pytest.approx(0.0, abs=1e-9)


def test_vi_covers_every_pair(mutex):
    va = value_iteration(mutex, 1e-6)
    pairs = sum(len(acts) for acts in mutex.actions)
    assert va.pair_lower.shape == (pairs,)
    assert va.explored.tolist() == list(range(mutex.n_states))
    assert va.state_upper.shape == (mutex.n_states,)


def test_vi_respects_eps_not_exactness(tiny_mec_mdp):
    va = value_iteration(tiny_mec_mdp, 0.25)
    v = va.state_lower[0]
    assert 0.5 - 0.25 <= v <= 0.5 + 1e-12
    assert check_valid(tiny_mec_mdp, va,
                       max_reach_exact(tiny_mec_mdp)).ok


# ------------------------------------------------------------------ checker

def _fabricate(va, **overrides):
    return dataclasses.replace(va, **overrides)


def test_checker_flags_overclaimed_lower_bound(fig1):
    va = value_iteration(fig1, 1e-6)
    pl = va.pair_lower.copy()
    pl[fig1.sparse.row_start[0]] = 0.999  # exact pair value is 0.995
    bad = _fabricate(va, pair_lower=pl)
    rep = check_valid(fig1, bad, max_reach_exact(fig1))
    assert not rep.lower_bound_ok
    assert not rep.bellman_ok
    assert not rep.ok
    assert any("exceeds optimum" in m for m in rep.messages)


def test_checker_flags_initial_gap(fig1):
    va = value_iteration(fig1, 1e-6)
    pl = va.pair_lower.copy()
    sl = va.state_lower.copy()
    rows = slice(fig1.sparse.row_start[0], fig1.sparse.row_start[1])
    pl[rows] = np.minimum(pl[rows], 0.2)
    sl[0] = 0.2
    bad = _fabricate(va, pair_lower=pl, state_lower=sl, epsilon=1e-6)
    rep = check_valid(fig1, bad, max_reach_exact(fig1))
    assert not rep.initial_gap_ok
    assert rep.lower_bound_ok


def test_checker_flags_missing_mec_exit(tiny_mec_mdp):
    m = tiny_mec_mdp
    va = value_iteration(m, 1e-9)
    exit_row = next(r for r, s in enumerate(m.sparse.row_state)
                    if m.actions[s][r - m.sparse.row_start[s]].attr.name == "exit")
    pl = va.pair_lower.copy()
    pl[exit_row] = 0.0  # lose the exit; the spin pairs still claim 1/2
    bad = _fabricate(va, pair_lower=pl)
    rep = check_valid(m, bad, max_reach_exact(m))
    assert not rep.mec_exit_ok
    assert any("no exiting pair" in msg for msg in rep.messages)


def test_checker_exempts_zero_value_mecs(tiny_mec_mdp):
    # the sink at state 4 is a value-0 component without exits; fine
    m = tiny_mec_mdp
    va = value_iteration(m, 1e-9)
    assert check_valid(m, va, max_reach_exact(m)).mec_exit_ok


# -------------------------------------------------------------------- brtdp

@pytest.mark.parametrize("seed", range(20))
def test_brtdp_converges_and_is_valid(seed):
    m = random_mdp(seed)
    va = brtdp(m, 1e-4, seed=seed)
    assert va.converged
    assert va.engine == "brtdp"
    exact = max_reach_exact(m)
    assert exact[m.initial] - va.state_lower[m.initial] <= 1e-4
    rep = check_valid(m, va, exact)
    assert rep.ok, rep.messages


def test_brtdp_deterministic_per_seed(mutex):
    a = brtdp(mutex, 1e-6, seed=42)
    b = brtdp(mutex, 1e-6, seed=42)
    assert np.array_equal(a.pair_lower, b.pair_lower)
    assert np.array_equal(a.state_upper, b.state_upper)
    assert np.array_equal(a.explored, b.explored)
    assert a.episodes == b.episodes


def test_brtdp_needs_deflation_on_mutex(mutex):
    # the burnt states are absorbing non-targets; without collapsing them
    # the upper bounds never drop, so convergence proves deflation works
    va = brtdp(mutex, 1e-6, seed=0)
    assert va.converged
    assert va.state_lower[mutex.initial] == pytest.approx(0.91, abs=1e-6)
    rep = check_valid(mutex, va, max_reach_exact(mutex))
    assert rep.ok, rep.messages


def test_brtdp_partial_exploration():
    from mdpdistill.fixtures import fig1_extended
    m = fig1_extended(200)
    va = brtdp(m, 0.02, seed=1, max_steps=100)
    assert va.converged and va.gap <= 0.02
    assert len(va.explored) < m.n_states / 4
    # values are only recorded for explored states; the rest hold defaults
    unexplored = np.ones(m.n_states, dtype=bool)
    unexplored[va.explored] = False
    assert not va.pair_lower[unexplored[m.sparse.row_state]].any()
    rep = check_valid(m, va, max_reach_exact(m))
    assert rep.ok, rep.messages


def test_brtdp_on_mec_exit(tiny_mec_mdp):
    va = brtdp(tiny_mec_mdp, 1e-6, seed=3)
    assert va.converged
    assert va.state_lower[0] == pytest.approx(0.5, abs=1e-6)


def test_brtdp_episode_cap_reports_nonconvergence(tiny_mec_mdp):
    va = brtdp(tiny_mec_mdp, 1e-12, seed=0, max_episodes=1)
    assert not va.converged or va.gap <= 1e-12
    # either way the tables must still be sound underapproximations
    rep = check_valid(tiny_mec_mdp, va, max_reach_exact(tiny_mec_mdp))
    assert rep.lower_bound_ok and rep.bellman_ok


def test_lower_at_defaults(fig1):
    # one episode leaves the target (state 1) and state 5 unexplored
    va = brtdp(fig1, 1e-6, seed=0, max_episodes=1)
    assert 1 not in va.explored and 5 not in va.explored
    assert va.state_lower[1] == 1.0  # target fixed at one
    assert va.state_lower[5] == 0.0  # unexplored floor
    assert va.state_upper[5] == 1.0  # unexplored ceiling


def _assert_vi_matches_dict_loop(m, eps):
    va = value_iteration(m, eps)
    q = quotient_dict(m, mecs_dict(m))
    L, U, sweeps = interval_iterate(q, eps=eps, stop_node=int(q.node_of[m.initial]))
    pair_lower, state_lower, state_upper = tables_dict(m, L[q.node_of], U[q.node_of])
    assert va.sweeps == sweeps
    rows = [(s, i) for s in range(m.n_states) for i in range(len(m.actions[s]))]
    assert va.pair_lower.tobytes() == np.array([pair_lower[p] for p in rows]).tobytes()
    assert va.state_lower.tobytes() == np.array(list(state_lower.values())).tobytes()
    assert va.state_upper.tobytes() == np.array(list(state_upper.values())).tobytes()


@pytest.mark.parametrize("seed", range(240))
def test_vi_tables_match_dict_loop(seed):
    _assert_vi_matches_dict_loop(random_mdp(seed, max_states=12, max_actions=4), 1e-6)


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_vi_tables_match_dict_loop_on_models(name, request):
    _assert_vi_matches_dict_loop(request.getfixturevalue(name), 1e-6)
