"""Interval value iteration, the sampling engine and the soundness checker."""

import dataclasses

import numpy as np
import pytest

from mdpdistill.core import max_reach_exact, mec_decompose
from mdpdistill.solver import (ValueApprox, brtdp, check_valid,
                               value_iteration)

from conftest import random_mdp
from oracles import brute_val


# --------------------------------------------------------------------- VI

@pytest.mark.parametrize("seed", range(30))
def test_vi_matches_brute_force(seed):
    m = random_mdp(seed)
    va = value_iteration(m, 1e-8)
    want = brute_val(m)
    assert va.converged
    for s in range(m.n_states):
        assert va.lower_at(s, m.target) <= want[s] + 1e-9
        assert va.upper_at(s, m.target) >= want[s] - 1e-9
    assert want[m.initial] - va.lower_at(m.initial, m.target) <= 1e-8


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
    assert va.lower_at(0, fig1.target) == pytest.approx(0.995, abs=1e-9)
    assert va.lower_at(2, fig1.target) == pytest.approx(0.5, abs=1e-9)
    assert va.explored == frozenset(range(9))
    # pair values: b beats a at the initial state
    names = {i: a.attr.name for i, a in enumerate(fig1.actions[0])}
    by_name = {names[i]: va.pair_lower[(0, i)] for i in names}
    assert by_name["b"] == pytest.approx(0.995, abs=1e-9)
    assert by_name["a"] == pytest.approx(0.0, abs=1e-9)


def test_vi_covers_every_pair(mutex):
    va = value_iteration(mutex, 1e-6)
    pairs = {(s, i) for s in range(mutex.n_states)
             for i in range(len(mutex.actions[s]))}
    assert set(va.pair_lower) == pairs
    assert set(va.state_upper) == set(range(mutex.n_states))


def test_vi_respects_eps_not_exactness(tiny_mec_mdp):
    va = value_iteration(tiny_mec_mdp, 0.25)
    v = va.lower_at(0, tiny_mec_mdp.target)
    assert 0.5 - 0.25 <= v <= 0.5 + 1e-12
    assert check_valid(tiny_mec_mdp, va,
                       max_reach_exact(tiny_mec_mdp)).ok


# ------------------------------------------------------------------ checker

def _fabricate(va, **overrides):
    return dataclasses.replace(va, **overrides)


def test_checker_flags_overclaimed_lower_bound(fig1):
    va = value_iteration(fig1, 1e-6)
    pl = dict(va.pair_lower)
    pl[(0, 0)] = 0.999  # exact pair value is 0.995
    bad = _fabricate(va, pair_lower=pl)
    rep = check_valid(fig1, bad, max_reach_exact(fig1))
    assert not rep.lower_bound_ok
    assert not rep.bellman_ok
    assert not rep.ok
    assert any("exceeds optimum" in m for m in rep.messages)


def test_checker_flags_initial_gap(fig1):
    va = value_iteration(fig1, 1e-6)
    pl = dict(va.pair_lower)
    sl = dict(va.state_lower)
    for i in range(len(fig1.actions[0])):
        pl[(0, i)] = min(pl[(0, i)], 0.2)
    sl[0] = 0.2
    bad = _fabricate(va, pair_lower=pl, state_lower=sl, epsilon=1e-6)
    rep = check_valid(fig1, bad, max_reach_exact(fig1))
    assert not rep.initial_gap_ok
    assert rep.lower_bound_ok


def test_checker_flags_missing_mec_exit(tiny_mec_mdp):
    m = tiny_mec_mdp
    va = value_iteration(m, 1e-9)
    exit_pair = next((s, i) for (s, i) in va.pair_lower
                     if m.actions[s][i].attr.name == "exit")
    pl = dict(va.pair_lower)
    pl[exit_pair] = 0.0  # lose the exit; the spin pairs still claim 1/2
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
    assert exact[m.initial] - va.lower_at(m.initial, m.target) <= 1e-4
    rep = check_valid(m, va, exact)
    assert rep.ok, rep.messages


def test_brtdp_deterministic_per_seed(mutex):
    a = brtdp(mutex, 1e-6, seed=42)
    b = brtdp(mutex, 1e-6, seed=42)
    assert a.pair_lower == b.pair_lower
    assert a.state_upper == b.state_upper
    assert a.explored == b.explored
    assert a.episodes == b.episodes


def test_brtdp_needs_deflation_on_mutex(mutex):
    # the burnt states are absorbing non-targets; without collapsing them
    # the upper bounds never drop, so convergence proves deflation works
    va = brtdp(mutex, 1e-6, seed=0)
    assert va.converged
    assert va.lower_at(mutex.initial, mutex.target) == pytest.approx(0.91, abs=1e-6)
    rep = check_valid(mutex, va, max_reach_exact(mutex))
    assert rep.ok, rep.messages


def test_brtdp_partial_exploration():
    from mdpdistill.fixtures import fig1_extended
    m = fig1_extended(200)
    va = brtdp(m, 0.02, seed=1, max_steps=100)
    assert va.converged and va.gap <= 0.02
    assert len(va.explored) < m.n_states / 4
    # values are only recorded for explored states
    assert {s for (s, _) in va.pair_lower} <= va.explored
    rep = check_valid(m, va, max_reach_exact(m))
    assert rep.ok, rep.messages


def test_brtdp_on_mec_exit(tiny_mec_mdp):
    va = brtdp(tiny_mec_mdp, 1e-6, seed=3)
    assert va.converged
    assert va.lower_at(0, tiny_mec_mdp.target) == pytest.approx(0.5, abs=1e-6)


def test_brtdp_episode_cap_reports_nonconvergence(tiny_mec_mdp):
    va = brtdp(tiny_mec_mdp, 1e-12, seed=0, max_episodes=1)
    assert not va.converged or va.gap <= 1e-12
    # either way the tables must still be sound underapproximations
    rep = check_valid(tiny_mec_mdp, va, max_reach_exact(tiny_mec_mdp))
    assert rep.lower_bound_ok and rep.bellman_ok


def test_lower_at_defaults(fig1):
    va = value_iteration(fig1, 1e-6)
    stripped = _fabricate(va, state_lower={}, state_upper={})
    assert stripped.lower_at(1, fig1.target) == 1.0  # target fixed at one
    assert stripped.lower_at(5, fig1.target) == 0.0  # unexplored floor
    assert stripped.upper_at(5, fig1.target) == 1.0  # unexplored ceiling
