"""Core model types, SCC/MEC decomposition and exact reachability."""

import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from mdpdistill.core import (TAU, Action, ActionAttr, LiberalStrategy,
                             MarkovChain, MdpError, build_quotient,
                             derive_seed, induce_chain, interval_iterate,
                             max_reach_exact, mec_decompose,
                             reach_exact, strong_components)

from conftest import random_mdp
from oracles import (acyclic_value, brute_mecs, brute_val, induce_rows,
                     make_absorbing, mdp_of, mecs_dict, quotient_dict, tarjan)


def _mdp(actions, target, n=None):
    """Assemble a one-variable MDP from raw action rows."""
    n = n if n is not None else len(actions)
    states = tuple((s,) for s in range(n))
    return mdp_of(
        var_decls=(("x", 0, n - 1),),
        states=states,
        actions=make_absorbing(tuple(tuple(r) for r in actions), target),
        initial=0,
        target=frozenset(target),
    )


def A(name, succs, probs, module=1):
    return Action(ActionAttr(name, module), tuple(succs), tuple(probs))


# ---------------------------------------------------------------- validation

def test_validate_accepts_fixtures(fig1, mutex, sync2):
    for m in (fig1, mutex, sync2):
        assert m.validate() is m


@pytest.mark.parametrize(
    "mutation,fragment",
    [
        (lambda rows: rows.__setitem__(0, ()), "deadlock"),
        (lambda rows: rows.__setitem__(0, (A("a", [0], [0.5]),)), "sum to"),
        (lambda rows: rows.__setitem__(0, (A("a", [0, 0], [0.5, 0.5]),)),
         "duplicate successor"),
        (lambda rows: rows.__setitem__(0, (A("a", [7], [1.0]),)), "out of range"),
        (lambda rows: rows.__setitem__(0, (A("a", [1, 0], [-1.0, 2.0]),)),
         "malformed|non-positive"),
        (lambda rows: rows.__setitem__(0, (A("a", [], []),)), "malformed"),
    ],
)
def test_validate_rejects(mutation, fragment):
    good = _mdp([[A("a", [1], [1.0])], []], {1})
    rows = [list(r) for r in good.actions]
    mutation(rows)
    bad = mdp_of(good.var_decls, good.states,
                 tuple(tuple(r) for r in rows), 0, good.target)
    with pytest.raises(MdpError, match=fragment):
        bad.validate()


def test_validate_rejects_nonabsorbing_target():
    m = mdp_of((("x", 0, 1),), ((0,), (1,)),
               ((A("a", [1], [1.0]),), (A("b", [0], [1.0]),)),
               0, frozenset({1}))
    with pytest.raises(MdpError, match="not absorbing"):
        m.validate()


def test_state_vector_bounds_checked():
    m = mdp_of((("x", 0, 0),), ((0,), (5,)),
               ((A("a", [1], [1.0]),), (A(TAU, [1], [1.0], 0),)),
               0, frozenset({1}))
    with pytest.raises(MdpError, match="outside"):
        m.validate()


# ----------------------------------------------------------------------- SCC
# `strong_components` is the SCC step of `mec_decompose`; scipy runs it with
# Pearce's iterative variant of Tarjan's algorithm.

def _graph(n, succ):
    return sp.csr_matrix(
        (np.ones(sum(map(len, succ)), dtype=bool), [t for row in succ for t in row],
         np.concatenate(([0], np.cumsum([len(row) for row in succ])))), shape=(n, n))


def _components(labels):
    comps = {}
    for node, label in enumerate(labels.tolist()):
        comps.setdefault(label, set()).add(node)
    return {frozenset(c) for c in comps.values()}


def _brute_sccs(n, succ):
    reach = [{i} for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            grow = set()
            for j in reach[i]:
                grow |= set(succ[j])
            if not grow <= reach[i]:
                reach[i] |= grow
                changed = True
    return {frozenset(j for j in range(n) if j in reach[i] and i in reach[j])
            for i in range(n)}


@pytest.mark.parametrize("seed", range(30))
def test_tarjan_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    succ = [[t for t in range(n) if rng.random() < 0.3] for _ in range(n)]
    labels = strong_components(_graph(n, succ))
    assert _components(labels) == _brute_sccs(n, succ)
    assert {frozenset(c) for c in tarjan(n, succ)} == _brute_sccs(n, succ)
    # numbered by smallest member: each label first appears in order
    firsts = [labels.tolist().index(k) for k in range(labels.max() + 1)]
    assert firsts == sorted(firsts)


def test_tarjan_is_iterative():
    # a cycle this long blows the default recursion limit if the
    # implementation recurses
    n = 50000
    succ = [[(i + 1) % n] for i in range(n)]
    labels = strong_components(_graph(n, succ))
    assert not labels.any()


# ----------------------------------------------------------------------- MEC

def _as_set(mecs):
    return {(m.states, tuple(sorted((s, m.actions[s]) for s in m.actions)))
            for m in mecs}


@pytest.mark.parametrize("seed", range(40))
def test_mec_decompose_matches_brute(seed):
    m = random_mdp(seed)
    got = _as_set(mec_decompose(m).to_list(m))
    want = {(states, tuple(sorted(acts.items())))
            for states, acts in brute_mecs(m)}
    assert got == want


def _restrict(m, seed):
    rng = random.Random(seed + 5)
    return frozenset(s for s in range(m.n_states) if rng.random() < 0.7)


def _assert_mecs_match_dict_loop(m, restrict=None):
    dec = mec_decompose(m, restrict=restrict)
    want = mecs_dict(m, restrict)
    assert [(x.states, x.actions) for x in dec.to_list(m)] == \
        [(x.states, x.actions) for x in want]
    assert dec.count == len(want)
    # the arrays agree with the list they were read into
    v = m.sparse
    for k, mec in enumerate(want):
        assert np.flatnonzero(dec.mec_of == k).tolist() == sorted(mec.states)
    internal = [v.row_start[s] + i for mec in want for s in mec.states for i in mec.actions[s]]
    assert np.flatnonzero(dec.internal).tolist() == sorted(internal)


@pytest.mark.parametrize("seed", range(240))
def test_mec_decompose_matches_dict_loop(seed):
    m = random_mdp(seed, max_states=12, max_actions=4)
    _assert_mecs_match_dict_loop(m)
    _assert_mecs_match_dict_loop(m, _restrict(m, seed))


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_mec_decompose_matches_dict_loop_on_models(name, request):
    m = request.getfixturevalue(name)
    _assert_mecs_match_dict_loop(m)
    _assert_mecs_match_dict_loop(m, _restrict(m, 0))


def test_mec_on_two_state_component(tiny_mec_mdp):
    mecs = mec_decompose(tiny_mec_mdp).to_list(tiny_mec_mdp)
    by_states = {m.states: m for m in mecs}
    assert frozenset({1, 2}) in by_states
    spin = by_states[frozenset({1, 2})]
    # only the spinning actions stay inside; the exit is not part of the MEC
    assert spin.actions[1] == (0,)
    assert spin.actions[2] == (0,)
    assert frozenset({3}) in by_states  # target self-loop
    assert frozenset({4}) in by_states  # sink self-loop


def test_mec_restrict(tiny_mec_mdp):
    # restricting away state 2 breaks the spin loop
    m = tiny_mec_mdp
    mecs = mec_decompose(m, restrict=frozenset({0, 1, 3, 4})).to_list(m)
    assert frozenset({1, 2}) not in {x.states for x in mecs}
    assert frozenset({3}) in {x.states for x in mecs}


def test_fig1_mecs_frozen(fig1):
    mecs = mec_decompose(fig1).to_list(fig1)
    got = {m.states for m in mecs}
    # target, the st-loop pair of waiting rooms, and four dead ends
    assert got == {frozenset({1}), frozenset({3}), frozenset({4}),
                   frozenset({5}), frozenset({6}), frozenset({7}),
                   frozenset({8})}
    st3 = next(m for m in mecs if m.states == frozenset({3}))
    names = [fig1.actions[3][i].attr.name for i in st3.actions[3]]
    assert names == ["st"]


# ------------------------------------------------------------- reachability

def test_reach_exact_geometric_loop():
    # v = 1/2 + 1/4 v  =>  v = 2/3
    chain = MarkovChain(
        3, (((1, 2, 0), (0.5, 0.25, 0.25)), ((1,), (1.0,)), ((2,), (1.0,))), 0)
    v = reach_exact(chain, {1})
    assert v[0] == pytest.approx(2 / 3, abs=1e-12)
    assert v[1] == 1.0 and v[2] == 0.0


def test_reach_exact_zero_states_are_exact_zero():
    chain = MarkovChain(
        4, (((1, 3), (0.5, 0.5)), ((1,), (1.0,)), ((3,), (1.0,)), ((2,), (1.0,))), 0)
    v = reach_exact(chain, {1})
    assert v[2] == 0.0 and v[3] == 0.0
    assert v[0] == 0.5


def test_reach_exact_jacobi_agrees_with_direct():
    rng = random.Random(3)
    n = 30
    rows = []
    for s in range(n):
        if s == n - 1:
            rows.append(((s,), (1.0,)))
            continue
        succs = tuple(sorted(rng.sample(range(n), 3)))
        rows.append((succs, (0.25, 0.25, 0.5)))
    chain = MarkovChain(n, tuple(rows), 0)
    direct = reach_exact(chain, {n - 1})
    jacobi = reach_exact(chain, {n - 1}, direct_cutoff=0)
    assert np.allclose(direct, jacobi, atol=1e-9)


@pytest.mark.parametrize("seed", range(25))
def test_reach_exact_matches_fraction_dp(seed):
    m = random_mdp(seed, acyclic=True)
    rng = random.Random(seed + 999)
    strategy = LiberalStrategy(
        {s: frozenset({rng.randrange(len(m.actions[s]))})
         for s in range(m.n_states) if s not in m.target})
    exactv = acyclic_value(m, strategy)
    chain = induce_chain(m, strategy)
    v = reach_exact(chain, m.target)
    assert v[m.initial] == pytest.approx(float(exactv), abs=1e-12)


def test_values_clipped_to_unit_interval():
    for seed in range(10):
        m = random_mdp(seed)
        v = max_reach_exact(m)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)


# -------------------------------------------------------- quotient/intervals

@pytest.mark.parametrize("seed", range(25))
def test_max_reach_matches_brute_force(seed):
    m = random_mdp(seed)
    got = max_reach_exact(m)
    want = brute_val(m)
    assert np.allclose(got, want, atol=1e-9), (got, want)


def test_interval_iterate_brackets_exact(fig1):
    q = build_quotient(fig1, mec_decompose(fig1))
    L, U, sweeps = interval_iterate(q, tol=1e-12)
    exact = max_reach_exact(fig1)
    Ls, Us = L[q.node_of], U[q.node_of]
    assert np.all(Ls <= exact + 1e-12)
    assert np.all(Us >= exact - 1e-12)
    assert np.max(Us - Ls) <= 1e-9


def test_interval_iterate_stop_node(tiny_mec_mdp):
    m = tiny_mec_mdp
    q = build_quotient(m, mec_decompose(m))
    L, U, _ = interval_iterate(q, eps=1e-6, stop_node=int(q.node_of[m.initial]))
    node = q.node_of[m.initial]
    assert U[node] - L[node] <= 1e-6
    assert abs(L[node] - 0.5) <= 1e-6


def _assert_same_quotient(got, want):
    assert got.num_nodes == want.num_nodes
    for field in ("node_of", "row_starts", "nodes_with_rows", "frozen_value",
                  "has_rows", "target_nodes", "zero_nodes"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.R.shape == want.R.shape
    assert np.array_equal(got.R.indptr, want.R.indptr)
    assert np.array_equal(got.R.indices, want.R.indices)
    assert got.R.data.tobytes() == want.R.data.tobytes()


@pytest.mark.parametrize("seed", range(240))
def test_quotient_matches_dict_loop(seed):
    m = random_mdp(seed, max_states=12, max_actions=4)
    _assert_same_quotient(build_quotient(m, mec_decompose(m)), quotient_dict(m, mecs_dict(m)))


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_quotient_matches_dict_loop_on_models(name, request):
    m = request.getfixturevalue(name)
    _assert_same_quotient(build_quotient(m, mec_decompose(m)), quotient_dict(m, mecs_dict(m)))


def test_quotient_freezes_targets_and_traps(tiny_mec_mdp):
    m = tiny_mec_mdp
    q = build_quotient(m, mec_decompose(m))
    # spin pair collapses into one node
    assert q.node_of[1] == q.node_of[2]
    assert q.target_nodes[q.node_of[3]]
    assert q.zero_nodes[q.node_of[4]]
    assert not q.has_rows[q.node_of[3]] and not q.has_rows[q.node_of[4]]
    assert q.frozen_value[q.node_of[3]] == 1.0
    assert q.frozen_value[q.node_of[4]] == 0.0


def test_mutex_value_frozen(mutex):
    assert mutex.n_states == 38
    assert max_reach_exact(mutex)[mutex.initial] == pytest.approx(0.91, abs=1e-12)


def test_sync2_value_frozen(sync2):
    assert max_reach_exact(sync2)[sync2.initial] == pytest.approx(1.0, abs=1e-9)


def test_grid_value_frozen(grid):
    assert grid.n_states == 10000
    assert max_reach_exact(grid)[grid.initial] == pytest.approx(
        0.252936347, abs=1e-9)


# ---------------------------------------------------------------- utilities

def test_induce_chain_uniform_mixture(fig1):
    strategy = LiberalStrategy({0: frozenset({0, 1})})  # both a and b
    chain = induce_chain(fig1, strategy)
    succs, probs = chain.rows[0]
    mix = dict(zip(succs, probs))
    # 1/2 a + 1/2 b: a gives .99->1 .01->2, b gives .5->3 .5->4
    assert mix[1] == pytest.approx(0.495)
    assert mix[2] == pytest.approx(0.005)
    assert mix[3] == pytest.approx(0.25)
    assert mix[4] == pytest.approx(0.25)
    # unlisted states fall back to uniform over all their actions
    s5, p5 = chain.rows[5]
    assert s5 == (5,) and p5 == (1.0,)


@pytest.mark.parametrize("seed", range(25))
def test_induce_chain_matches_dict_loop(seed):
    # mixtures of several actions per state exercise the order of addition
    m = random_mdp(seed, max_actions=4)
    rng = random.Random(seed + 7)
    choice = {}
    for s in range(m.n_states):
        k = len(m.actions[s])
        if rng.random() < 0.8:
            choice[s] = frozenset(rng.sample(range(k), rng.randint(1, k)))
    strategy = LiberalStrategy(choice)
    assert induce_chain(m, strategy).rows == induce_rows(m, strategy)


def test_induce_chain_rejects_bad_choices(fig1):
    with pytest.raises(MdpError, match="empty action set at state 0"):
        induce_chain(fig1, LiberalStrategy({0: frozenset()}))
    # index 2 at state 0 would be the first row of state 1
    with pytest.raises(MdpError, match="out of range"):
        induce_chain(fig1, LiberalStrategy({0: frozenset({len(fig1.actions[0])})}))


def test_derive_seed_distinct_and_stable():
    seen = {derive_seed(7, i) for i in range(1000)}
    assert len(seen) == 1000
    assert derive_seed(7, 3) == derive_seed(7, 3)
    assert derive_seed(7, 3) != derive_seed(8, 3)
    assert all(0 <= derive_seed(1, i) < 2 ** 64 for i in range(10))


def test_action_names_sorted(fig1):
    assert fig1.action_names == tuple(sorted(fig1.action_names))
    assert fig1.action_names == ("a", "b", "c", "d", "dd", "e", "st", "tau")
