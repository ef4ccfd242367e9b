"""Core model types, SCC/MEC decomposition and exact reachability."""

import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from mdpdistill.core import (TAU, ActionAttr, Mdp,
                             MdpError, branch_groups, breadth_first, build_quotient,
                             derive_seed, induce_chain, interval_iterate,
                             mec_decompose, reach_bounds,
                             reach_exact, reachable, strong_components)

from mdpdistill import core, fixtures
from mdpdistill.solver import value_iteration

from conftest import random_mdp
from oracles import (Action, acyclic_value, as_tuples, brute_mecs, brute_val, chain_matrix,
                     chain_rows, induce_rows, interval_iterate_reduceat, make_absorbing,
                     max_reach_exact, mdp_of, mec_list, mecs_dict, node_grouped, quotient_dict,
                     strategy_from_choice, sweeps_by_split, tarjan)


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


def test_no_field_of_a_model_can_be_assigned(fig1):
    # each field is given its own value, so a mutable model would leave the shared fixture intact
    for field in dataclasses.fields(Mdp):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fig1, field.name, getattr(fig1, field.name))


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
    g = as_tuples(good)
    rows = [list(r) for r in g.actions]
    mutation(rows)
    bad = mdp_of(g.var_decls, g.states, tuple(tuple(r) for r in rows), 0, g.target)
    with pytest.raises(MdpError, match=fragment):
        bad.validate()


@pytest.mark.parametrize("succs,fragment", [
    ([-1, 0], "successor out of range"),
    ([1, 2 ** 40], "successor out of range"),
    ([9, 9], "duplicate successor"),
], ids=["negative", "huge", "repeated-out-of-range"])
def test_validate_words_out_of_range_rows_per_row(succs, fragment):
    # the sort key clips these into range, where the first two would look
    # like repeated successors; the message is still worked out per row
    m = _mdp([[A("a", succs, [0.5, 0.5])], []], {1})
    with pytest.raises(MdpError, match=f"state 0: {fragment}"):
        m.validate()


@pytest.mark.parametrize("seed", range(30))
def test_branch_groups_match_lexsort(seed):
    # successors clipped into range, as `validate` does with out-of-range ones
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    size = int(rng.integers(0, 60))
    entry_row = rng.integers(0, 12, size)
    if seed % 2:
        entry_row = np.sort(entry_row)
    succ = rng.integers(-3, n + 3, size)
    succ[rng.random(size) < 0.1] = 2 ** 62
    succ = np.clip(succ, 0, n - 1)
    order, first_of = branch_groups(entry_row, succ, n)
    want = np.lexsort((succ, entry_row))
    assert order.tolist() == want.tolist()
    pairs = list(zip(entry_row[want].tolist(), succ[want].tolist()))
    assert first_of.tolist() == [i == 0 or pairs[i] != pairs[i - 1] for i in range(size)]


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
    got = _as_set(mec_list(mec_decompose(m), m))
    want = {(states, tuple(sorted(acts.items())))
            for states, acts in brute_mecs(m)}
    assert got == want


def _restrict(m, seed):
    rng = random.Random(seed + 5)
    return frozenset(s for s in range(m.n_states) if rng.random() < 0.7)


def _assert_mecs_match_dict_loop(m, restrict=None):
    dec = mec_decompose(m, restrict=restrict)
    want = mecs_dict(m, restrict)
    assert [(x.states, x.actions) for x in mec_list(dec, m)] == \
        [(x.states, x.actions) for x in want]
    assert dec.count == len(want)
    # the arrays agree with the list they were read into
    for k, mec in enumerate(want):
        assert np.flatnonzero(dec.mec_of == k).tolist() == sorted(mec.states)
    internal = [m.row_start[s] + i for mec in want for s in mec.states for i in mec.actions[s]]
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
    mecs = mec_list(mec_decompose(tiny_mec_mdp), tiny_mec_mdp)
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
    mecs = mec_list(mec_decompose(m, restrict=frozenset({0, 1, 3, 4})), m)
    assert frozenset({1, 2}) not in {x.states for x in mecs}
    assert frozenset({3}) in {x.states for x in mecs}


def test_a_mec_holding_a_target_is_that_target_alone(fig1, mutex, sync2, grid):
    # a target is absorbing, so extraction, BRTDP's deflation and
    # `check_valid` leave out every MEC holding a target by leaving out
    # the target states; on whole models and on a part of each
    models = [fig1, mutex, sync2, grid] + [random_mdp(seed) for seed in range(400)]
    held = {None: 0, "part": 0}
    for seed, m in enumerate(models):
        for key, restrict in ((None, None), ("part", _restrict(m, seed))):
            mec_of = mec_decompose(m, restrict=restrict).mec_of
            sizes = np.bincount(mec_of[mec_of >= 0])
            at_target = mec_of[m.is_target & (mec_of >= 0)]
            assert np.all(sizes[at_target] == 1), seed
            held[key] += len(at_target)
    assert held[None] > 400 and held["part"] > 300, held  # 470 and 311


def test_fig1_mecs_frozen(fig1):
    mecs = mec_list(mec_decompose(fig1), fig1)
    got = {m.states for m in mecs}
    # target, the st-loop pair of waiting rooms, and four dead ends
    assert got == {frozenset({1}), frozenset({3}), frozenset({4}),
                   frozenset({5}), frozenset({6}), frozenset({7}),
                   frozenset({8})}
    st3 = next(m for m in mecs if m.states == frozenset({3}))
    names = [as_tuples(fig1).actions[3][i].attr.name for i in st3.actions[3]]
    assert names == ["st"]


# ------------------------------------------------------------- reachability

def test_reach_exact_geometric_loop():
    # v = 1/2 + 1/4 v  =>  v = 2/3
    chain = chain_matrix((((1, 2, 0), (0.5, 0.25, 0.25)), ((1,), (1.0,)), ((2,), (1.0,))))
    v = reach_exact(chain, {1})
    assert v[0] == pytest.approx(2 / 3, abs=1e-12)
    assert v[1] == 1.0 and v[2] == 0.0


def test_reach_exact_zero_states_are_exact_zero():
    chain = chain_matrix(
        (((1, 3), (0.5, 0.5)), ((1,), (1.0,)), ((3,), (1.0,)), ((2,), (1.0,))))
    v = reach_exact(chain, {1})
    assert v[2] == 0.0 and v[3] == 0.0
    assert v[0] == 0.5


def test_reach_exact_reads_a_self_loop_near_one_as_renormalised():
    # the diagonal is taken as the mass off the self-loop, so the row is
    # read as renormalised and 0 reaches the target almost surely
    chain = chain_matrix((((0, 1), (1 - 1e-13, 1e-13)), ((1,), (1.0,))))
    assert abs(reach_exact(chain, [1])[0] - 1.0) <= 1e-15


@pytest.mark.parametrize("seed", range(20))
def test_breadth_first_order_matches_reachable(seed):
    m = random_mdp(seed, max_states=25)
    P = induce_chain(strategy_from_choice(m, {}))
    sources = sorted(as_tuples(m).target)
    order = breadth_first(P.T, sources)
    mask = reachable(P.T, sources)
    assert sorted(order.tolist()) == np.flatnonzero(mask).tolist()
    assert sorted(order[:len(sources)].tolist()) == sources
    dist = sp.csgraph.shortest_path(P.T, unweighted=True, indices=sources).min(axis=0)
    assert np.all(np.diff(dist[order]) >= 0)


@pytest.mark.parametrize("seed", range(40))
def test_reach_bounds_bracket_the_value_and_close(seed):
    m = random_mdp(seed, max_states=25)
    rng = random.Random(seed)
    t = as_tuples(m)
    strategy = strategy_from_choice(
        m, {s: frozenset({rng.randrange(len(t.actions[s]))})
            for s in range(m.n_states) if rng.random() < 0.5})
    P = induce_chain(strategy)
    exact = reach_exact(P, t.target)
    # both sides round: allow 1e-13, far below the 1e-9 margin of `decide`;
    # the upper bound starts at 1 or at the optimal value's bound
    for start in (np.ones(m.n_states), value_iteration(m, 1e-6).state_upper):
        for at in range(m.n_states):
            for lower, upper in itertools.islice(reach_bounds(P, t.target, at, start), 2000):
                assert lower - 1e-13 <= exact[at] <= upper + 1e-13
                if upper - lower < 1e-12:
                    break
            assert upper - lower < 1e-9


@pytest.mark.parametrize("seed", range(60))
def test_sweeps_match_the_split_matrices(seed):
    # the one-pass system sums every row in the order the split matrices did
    m = random_mdp(seed, max_states=40)
    rng = random.Random(seed)
    strategy = strategy_from_choice(
        m, {s: frozenset(rng.sample(range(k), rng.randint(1, k)))
            for s, k in enumerate(np.diff(m.row_start).tolist()) if rng.random() < 0.7})
    P = induce_chain(strategy)
    is_target, states = core._unknowns(P, np.flatnonzero(m.is_target))
    if not len(states):
        return
    got = core._sweeps(P, is_target, states, np.ones(m.n_states))
    for X, Y in itertools.islice(zip(got, sweeps_by_split(P, is_target, states)), 15):
        assert X.tobytes() == Y.tobytes()


@pytest.mark.parametrize("seed", range(25))
def test_reach_exact_matches_fraction_dp(seed):
    m = random_mdp(seed, acyclic=True)
    rng = random.Random(seed + 999)
    t = as_tuples(m)
    strategy = strategy_from_choice(
        m, {s: frozenset({rng.randrange(len(t.actions[s]))})
         for s in range(m.n_states) if s not in t.target})
    exactv = acyclic_value(m, strategy)
    chain = induce_chain(strategy)
    v = reach_exact(chain, t.target)
    assert v[m.initial] == pytest.approx(float(exactv), abs=1e-12)


@pytest.mark.parametrize("seed", range(60))
def test_reach_exact_direct_path_matches_fraction_dp_closely(seed):
    m = random_mdp(seed, acyclic=True)
    rng = random.Random(seed + 4242)
    t = as_tuples(m)
    strategy = strategy_from_choice(
        m, {s: frozenset(rng.sample(range(len(t.actions[s])),
                                    rng.randint(1, len(t.actions[s]))))
            for s in range(m.n_states) if s not in t.target})
    v = reach_exact(induce_chain(strategy), t.target)
    assert abs(v[m.initial] - float(acyclic_value(m, strategy))) <= 1e-14


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
    exact = max_reach_exact(fig1)
    # each node in turn is the stop node, so each gap is seen to close
    for node in range(q.num_nodes):
        L, U, sweeps = interval_iterate(q, eps=1e-12, stop_node=node)
        Ls, Us = L[q.node_of], U[q.node_of]
        assert np.all(Ls <= exact + 1e-12)
        assert np.all(Us >= exact - 1e-12)
        assert U[node] - L[node] <= 1e-12


def test_interval_iterate_stop_node(tiny_mec_mdp):
    m = tiny_mec_mdp
    q = build_quotient(m, mec_decompose(m))
    L, U, _ = interval_iterate(q, eps=1e-6, stop_node=int(q.node_of[m.initial]))
    node = q.node_of[m.initial]
    assert U[node] - L[node] <= 1e-6
    assert abs(L[node] - 0.5) <= 1e-6


def _assert_same_sweeps(m):
    q = build_quotient(m, mec_decompose(m))
    kw = dict(eps=1e-6, stop_node=int(q.node_of[m.initial]))
    L, U, sweeps = interval_iterate(q, **kw)
    L0, U0, sweeps0 = interval_iterate_reduceat(q, **kw)
    assert sweeps == sweeps0
    assert L.tobytes() == L0.tobytes()
    assert U.tobytes() == U0.tobytes()
    return q


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_sweeps_match_reduceat_on_models(name, request):
    _assert_same_sweeps(request.getfixturevalue(name))


def test_sweeps_match_reduceat_on_chain():
    _assert_same_sweeps(fixtures.fig1_extended(2000))


@pytest.mark.parametrize("seed", range(120))
def test_sweeps_match_reduceat_on_random_models(seed):
    _assert_same_sweeps(random_mdp(seed, max_states=12, max_actions=4))


@pytest.mark.parametrize("seed", range(5))
def test_sweeps_match_reduceat_with_one_wide_node(seed):
    # state 0 has dozens of actions, the others one to three, so the
    # slot-major blocks shrink from every node down to node 0 alone; edges
    # go forward, so there is no end component to collapse rows
    rng = random.Random(seed)
    n = 12

    def row(s, k):
        pool = range(s + 1, n)
        succs = tuple(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
        cuts = sorted(rng.sample(range(1, 8), len(succs) - 1))
        probs = tuple((b - a) / 8 for a, b in zip([0] + cuts, cuts + [8]))
        return Action(ActionAttr(f"a{k}", 1), succs, probs)

    acts = [[row(s, k) for k in range(40 if s == 0 else rng.randint(1, 3))]
            for s in range(n - 1)] + [[]]
    q = _assert_same_sweeps(_mdp(acts, {n - 1}))
    grouped, _, nodes_with_rows = node_grouped(q)
    counts = np.diff(q.bounds)
    assert counts[0] == len(nodes_with_rows) and counts[-1] == 1
    assert len(counts) == 40 and grouped.shape == q.R.shape


def _assert_same_matrix(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


def _assert_same_quotient(got, want):
    assert got.num_nodes == want.num_nodes
    for field in ("node_of", "bounds", "target_nodes", "zero_nodes"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    _assert_same_matrix(got.R, want.R)
    # grouped by node, as `interval_iterate_reduceat` reads them
    (R, starts, owners), (R0, starts0, owners0) = node_grouped(got), node_grouped(want)
    assert np.array_equal(starts, starts0) and np.array_equal(owners, owners0)
    _assert_same_matrix(R, R0)
    # the nodes with rows come first, by descending row count
    assert np.array_equal(owners, np.arange(len(owners)))
    assert np.all(np.diff(np.diff(np.append(starts, R.shape[0]))) <= 0)
    # `interval_iterate` starts U at 0 on the zero set alone, so that set must
    # hold every node without rows but the targets
    rowless = np.ones(got.num_nodes, dtype=bool)
    rowless[owners] = False
    assert np.all(got.zero_nodes[rowless & ~got.target_nodes])


@pytest.mark.parametrize("seed", range(240))
def test_quotient_matches_dict_loop(seed):
    m = random_mdp(seed, max_states=12, max_actions=4)
    _assert_same_quotient(build_quotient(m, mec_decompose(m)), quotient_dict(m, mecs_dict(m)))


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_quotient_matches_dict_loop_on_models(name, request):
    m = request.getfixturevalue(name)
    _assert_same_quotient(build_quotient(m, mec_decompose(m)), quotient_dict(m, mecs_dict(m)))


def _reaches_target_loop(m):
    """Each state's flag: some path of branches leads to a target, by a
    depth-first search over predecessor lists."""
    dm = as_tuples(m)
    pred = [[] for _ in range(m.n_states)]
    for s, actions in enumerate(dm.actions):
        for a in actions:
            for t in a.succs:
                pred[t].append(s)
    seen = [s in dm.target for s in range(m.n_states)]
    stack = [s for s in range(m.n_states) if seen[s]]
    while stack:
        for u in pred[stack.pop()]:
            if not seen[u]:
                seen[u] = True
                stack.append(u)
    return seen


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"] +
                         [f"random-{seed}" for seed in range(100)])
def test_quotient_zero_nodes_are_the_models_search(name, request):
    m = (random_mdp(int(name.split("-")[1]), max_states=12, max_actions=4)
         if name.startswith("random") else request.getfixturevalue(name))
    assert m.reaches_target.tolist() == _reaches_target_loop(m)
    q = build_quotient(m, mec_decompose(m))
    assert np.array_equal(q.zero_nodes[q.node_of], ~m.reaches_target)


def test_quotient_freezes_targets_and_traps(tiny_mec_mdp):
    m = tiny_mec_mdp
    q = build_quotient(m, mec_decompose(m))
    # spin pair collapses into one node
    assert q.node_of[1] == q.node_of[2]
    assert q.target_nodes[q.node_of[3]]
    assert q.zero_nodes[q.node_of[4]]
    with_rows = node_grouped(q)[2]
    assert q.node_of[3] not in with_rows and q.node_of[4] not in with_rows
    # nodes without rows keep their start bounds: 1 at the target, 0 at the trap
    L, U, _ = interval_iterate(q, eps=1e-12, stop_node=int(q.node_of[m.initial]))
    assert L[q.node_of[3]] == U[q.node_of[3]] == 1.0
    assert L[q.node_of[4]] == U[q.node_of[4]] == 0.0


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
    strategy = strategy_from_choice(fig1, {0: frozenset({0, 1})})  # both a and b
    rows = chain_rows(induce_chain(strategy))
    succs, probs = rows[0]
    mix = dict(zip(succs, probs))
    # 1/2 a + 1/2 b: a gives .99->1 .01->2, b gives .5->3 .5->4
    assert mix[1] == pytest.approx(0.495)
    assert mix[2] == pytest.approx(0.005)
    assert mix[3] == pytest.approx(0.25)
    assert mix[4] == pytest.approx(0.25)
    # unlisted states fall back to uniform over all their actions
    s5, p5 = rows[5]
    assert s5 == (5,) and p5 == (1.0,)


@pytest.mark.parametrize("seed", range(25))
def test_induce_chain_matches_dict_loop(seed):
    # mixtures of several actions per state exercise the order of addition
    m = random_mdp(seed, max_actions=4)
    rng = random.Random(seed + 7)
    choice = {}
    for s in range(m.n_states):
        k = len(as_tuples(m).actions[s])
        if rng.random() < 0.8:
            choice[s] = frozenset(rng.sample(range(k), rng.randint(1, k)))
    strategy = strategy_from_choice(m, choice)
    assert chain_rows(induce_chain(strategy)) == induce_rows(m, strategy)


def test_induce_chain_rejects_bad_choices(fig1):
    with pytest.raises(MdpError, match="empty action set at state 0"):
        induce_chain(strategy_from_choice(fig1, {0: frozenset()}))
    # index 2 at state 0 would be the first row of state 1
    with pytest.raises(MdpError, match="out of range"):
        induce_chain(strategy_from_choice(
            fig1, {0: frozenset({len(as_tuples(fig1).actions[0])})}))


def test_derive_seed_distinct_and_stable():
    seen = {derive_seed(7, i) for i in range(1000)}
    assert len(seen) == 1000
    assert derive_seed(7, 3) == derive_seed(7, 3)
    assert derive_seed(7, 3) != derive_seed(8, 3)
    assert all(0 <= derive_seed(1, i) < 2 ** 64 for i in range(10))


def test_action_names_sorted(fig1):
    assert fig1.action_names == tuple(sorted(fig1.action_names))
    assert fig1.action_names == ("a", "b", "c", "d", "dd", "e", "st", "tau")
