"""Interval value iteration, the sampling engine and the soundness checker."""

import dataclasses

import numpy as np
import pytest

from mdpdistill import solver
from mdpdistill.core import MecDecomposition, interval_iterate, mec_decompose
from mdpdistill.solver import brtdp, value_iteration

from conftest import random_mdp
import oracles
from oracles import (as_tuples, brtdp_dict, brute_val, check_valid, max_reach_exact, mecs_dict,
                     quotient_dict, tables_dict)


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
    names = {i: a.attr.name for i, a in enumerate(as_tuples(fig1).actions[0])}
    by_name = {names[i]: va.pair_lower[fig1.row_start[0] + i] for i in names}
    assert by_name["b"] == pytest.approx(0.995, abs=1e-9)
    assert by_name["a"] == pytest.approx(0.0, abs=1e-9)


def test_vi_covers_every_pair(mutex):
    va = value_iteration(mutex, 1e-6)
    pairs = sum(len(acts) for acts in as_tuples(mutex).actions)
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
    pl[fig1.row_start[0]] = 0.999  # exact pair value is 0.995
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
    rows = slice(fig1.row_start[0], fig1.row_start[1])
    pl[rows] = np.minimum(pl[rows], 0.2)
    sl[0] = 0.2
    bad = _fabricate(va, pair_lower=pl, state_lower=sl, epsilon=1e-6)
    rep = check_valid(fig1, bad, max_reach_exact(fig1))
    assert not rep.initial_gap_ok
    assert rep.lower_bound_ok


def test_checker_flags_missing_mec_exit(tiny_mec_mdp):
    m = tiny_mec_mdp
    va = value_iteration(m, 1e-9)
    acts = as_tuples(m).actions
    exit_row = next(r for r, s in enumerate(m.row_state)
                    if acts[s][r - m.row_start[s]].attr.name == "exit")
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
    assert not va.pair_lower[unexplored[m.row_state]].any()
    rep = check_valid(m, va, max_reach_exact(m))
    assert rep.ok, rep.messages


@pytest.mark.parametrize("name, most", [("mutex", 30_000), ("chain", 5_000)])
def test_brtdp_paths_end_when_they_close_a_cycle(name, most, request):
    # with a fixed 1,000-step slack, paths trapped in an end component ran
    # that long before deflating: 150,161 and 10,072 backups over these seeds
    from mdpdistill.fixtures import fig1_extended
    m = fig1_extended(2000) if name == "chain" else request.getfixturevalue(name)
    runs = [brtdp(m, 1e-6, seed=seed) for seed in range(4)]
    assert all(va.converged for va in runs)
    assert sum(va.backups for va in runs) <= most
    assert all(0 < va.deflations < va.episodes for va in runs)


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
    assert (va.sweeps, va.backups, va.deflations) == (sweeps, 0, 0)
    acts = as_tuples(m).actions
    rows = [(s, i) for s in range(m.n_states) for i in range(len(acts[s]))]
    assert va.pair_lower.tobytes() == np.array([pair_lower[p] for p in rows]).tobytes()
    assert va.state_lower.tobytes() == np.array(list(state_lower.values())).tobytes()
    assert va.state_upper.tobytes() == np.array(list(state_upper.values())).tobytes()


@pytest.mark.parametrize("seed", range(240))
def test_vi_tables_match_dict_loop(seed):
    _assert_vi_matches_dict_loop(random_mdp(seed, max_states=12, max_actions=4), 1e-6)


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_vi_tables_match_dict_loop_on_models(name, request):
    _assert_vi_matches_dict_loop(request.getfixturevalue(name), 1e-6)


# ------------------------------------------------- brtdp against the dict loop

def _run_both(m, seed, monkeypatch, **budget):
    """Run the engine and `oracles.brtdp_dict`, assert bit-equal results and
    counts, and return the engine's result and the oracle's number of
    deflations."""
    va = brtdp(m, 1e-6, seed=seed, **budget)
    deflations = []

    def counted(mdp, restrict=None):
        deflations.append(len(restrict))
        return mecs_dict(mdp, restrict)

    monkeypatch.setattr(oracles, "mecs_dict", counted)
    want = brtdp_dict(m, 1e-6, seed=seed, **budget)
    monkeypatch.undo()
    for name in ("pair_lower", "state_lower", "state_upper", "explored"):
        got, ref = getattr(va, name), getattr(want, name)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name
    assert (va.gap, va.converged, va.episodes) == (want.gap, want.converged, want.episodes)
    assert (va.backups, va.deflations) == (want.backups, want.deflations) == \
        (want.backups, len(deflations))
    # the engine hands over the MECs of its final explored set
    mecs = mec_decompose(m, restrict=va.explored)
    assert va.mecs.mec_of.tobytes() == mecs.mec_of.tobytes()
    assert va.mecs.internal.tobytes() == mecs.internal.tobytes()
    return va, len(deflations)


def _no_mecs(mdp, restrict=None):
    return MecDecomposition(np.full(mdp.n_states, -1),
                            np.zeros(len(mdp.row_state), dtype=bool), 0)


@pytest.mark.parametrize("budget", [{}, {"max_episodes": 2},
                                    {"max_steps": 3, "max_episodes": 300}],
                         ids=["default", "two-episodes", "step-cap"])
@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2"])
def test_brtdp_matches_dict_loop_on_models(name, budget, request, monkeypatch):
    m = request.getfixturevalue(name)
    # mutex takes hundreds of episodes to converge; two seeds keep this short
    for seed in range(2 if name == "mutex" and not budget else 4):
        va, _ = _run_both(m, seed, monkeypatch, **budget)
        if name != "sync2" and "max_steps" in budget:
            # deflation only ever lowers the upper bounds of explored MECs away
            # from the target, so an outcome that differs without it shows one
            monkeypatch.setattr(solver, "mec_decompose", _no_mecs)
            other = brtdp(m, 1e-6, seed=seed, **budget)
            monkeypatch.undo()
            assert (other.state_upper.tobytes(), other.episodes) != \
                (va.state_upper.tobytes(), va.episodes)


def test_brtdp_matches_dict_loop_on_long_chain(monkeypatch):
    from mdpdistill.fixtures import fig1_extended
    va, _ = _run_both(fig1_extended(2000), 0, monkeypatch)
    assert va.converged


def test_brtdp_matches_dict_loop_on_random_models(monkeypatch):
    capped = unconverged = 0
    for seed in range(100):
        budget = ({"max_steps": 10, "max_episodes": 51} if seed % 2 else
                  {"max_steps": 3, "max_episodes": 12})
        va, deflations = _run_both(random_mdp(seed, max_states=50), seed, monkeypatch,
                                   **budget)
        # deflation comes only after an episode that hit the cap
        capped += deflations > 0
        unconverged += not va.converged
    assert capped >= 50 and unconverged >= 30, (capped, unconverged)
