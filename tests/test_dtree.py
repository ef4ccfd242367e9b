"""Decision-tree learning, pruning, serialization and the size search."""

import gc
import json
import random

import numpy as np
import pytest

from mdpdistill import fixtures
from mdpdistill.bdd import store_strategy
from mdpdistill.build import build_mdp, compile_model
from mdpdistill.core import ActionAttr
from mdpdistill.dtree import (DTree, Leaf, Pred, Split, _upper_z, export_dot,
                              export_json, fit_max_leaf, import_json,
                              induce_strategy, learn, tree_size)
from mdpdistill.importance import (Domain, TrainingSet, build_training_set,
                                   importance_of, simulate)
from mdpdistill.lang import parse_model
from mdpdistill.solver import value_iteration
from mdpdistill.strategy import evaluate, extract_liberal

from conftest import random_mdp
from oracles import (TrainRow, as_tuples, choice_of, classify, exact_importance,
                     induce_by_classify, learn_masks, training_set)


def membership_set(domain_hi, positives, lo=1):
    dom = Domain((("x1", lo, domain_hi),), (), 1)
    rows = [TrainRow((v,), None, v in positives, 1)
            for v in range(lo, domain_hi + 1)]
    return training_set(dom, rows)


SEVEN = membership_set(7, {1, 2, 3, 7})


# ----------------------------------------------------------------- learning

def test_membership_tree_frozen_shape():
    t = learn(SEVEN, min_leaf=1, confidence=0.5)
    assert t.size == 5
    root = t.root
    assert root.pred == Pred("le", 0, 3)
    assert isinstance(root.yes, Leaf) and root.yes.good
    inner = root.no
    assert inner.pred == Pred("le", 0, 6)
    assert isinstance(inner.yes, Leaf) and not inner.yes.good
    assert isinstance(inner.no, Leaf) and inner.no.good


def test_membership_tree_classifies():
    t = learn(SEVEN, min_leaf=1, confidence=0.5)
    assert classify(t, (2,)) is True
    assert classify(t, (7,)) is True
    assert classify(t, (5,)) is False
    assert [classify(t, (v,)) for v in range(1, 8)] == [
        True, True, True, False, False, False, True]


def test_default_confidence_keeps_useful_splits():
    # both splits remove real errors, so the pessimistic bound keeps them
    t = learn(SEVEN, min_leaf=1, confidence=0.25)
    assert t.size == 5


def test_min_leaf_blocks_small_splits():
    t = learn(SEVEN, min_leaf=2, prune=False)
    # isolating {7} needs a 1-row child; the grower settles for x1<=5 and
    # a majority-tie leaf on {6,7}
    assert t.size == 5
    assert t.root.no.pred == Pred("le", 0, 5)
    assert classify(t, (6,)) is True  # the tie leaf defaults to good
    pruned = learn(SEVEN, min_leaf=2, prune=True)
    assert pruned.size == 3  # the no-longer-pure subtree gets collapsed


def test_min_leaf_one_node_floor():
    t = learn(SEVEN, min_leaf=100)
    assert t.size == 1
    assert t.root.good  # majority of 4 good vs 3 bad


def test_pure_data_single_leaf():
    ts = membership_set(5, {1, 2, 3, 4, 5})
    t = learn(ts)
    assert t.size == 1 and t.root.good


def test_majority_tie_is_good():
    dom = Domain((("x1", 0, 1),), (), 1)
    rows = [TrainRow((0,), None, True, 3), TrainRow((0,), None, False, 3)]
    t = learn(training_set(dom, rows))
    assert t.size == 1 and t.root.good


def test_empty_training_set():
    t = learn(training_set(Domain((("x1", 0, 1),), (), 1), []))
    assert t.size == 1 and t.root.good


def test_threshold_tie_breaks_low():
    # {1,3} good, {2} bad: cutting at 1 and at 2 gain the same; the lower
    # constant wins
    ts = membership_set(3, {1, 3})
    t = learn(ts, prune=False)
    assert t.root.pred == Pred("le", 0, 1)


def test_coordinate_tie_breaks_low():
    dom = Domain((("x1", 1, 7), ("x2", 1, 7)), (), 1)
    rows = [TrainRow((v, v), None, v in {1, 2, 3, 7}, 1) for v in range(1, 8)]
    t = learn(training_set(dom, rows), prune=False)
    assert t.root.pred == Pred("le", 0, 3)


def test_action_split():
    # fig1-shaped rows: action b good at the start, d good at the coin state
    dom = Domain((("loc", 0, 6), ("pos", 1, 2)), ("a", "b", "c", "d"), 1)
    rows = [
        TrainRow((0, 1), ActionAttr("a", 1), False, 1),
        TrainRow((0, 1), ActionAttr("b", 1), True, 1),
        TrainRow((1, 2), ActionAttr("c", 1), False, 1),
        TrainRow((1, 2), ActionAttr("d", 1), True, 1),
    ]
    t = learn(training_set(dom, rows), min_leaf=1, confidence=0.5)
    assert t.size == 5
    assert t.root.pred == Pred("action", 0, "a")
    assert t.root.no.pred == Pred("action", 0, "c")
    assert classify(t, (0, 1), ActionAttr("a", 1)) is False
    assert classify(t, (0, 1), ActionAttr("b", 1)) is True
    assert classify(t, (5, 1), ActionAttr("d", 1)) is True
    assert classify(t, (5, 1), ActionAttr("c", 1)) is False


def test_module_split():
    dom = Domain((("x", 0, 0),), ("go",), 2)
    rows = [
        TrainRow((0,), ActionAttr("go", 1), True, 4),
        TrainRow((0,), ActionAttr("go", 2), False, 4),
    ]
    t = learn(training_set(dom, rows), prune=False)
    assert t.root.pred == Pred("module", 0, 1)
    assert classify(t, (0,), ActionAttr("go", 1)) is True
    assert classify(t, (0,), ActionAttr("go", 2)) is False


def test_weights_drive_the_split():
    # weight makes the rare-but-heavy value dominate the split choice
    dom = Domain((("x1", 1, 4),), (), 1)
    rows = [TrainRow((1,), None, True, 100), TrainRow((2,), None, False, 100),
            TrainRow((3,), None, True, 1), TrainRow((4,), None, False, 1)]
    t = learn(training_set(dom, rows), min_leaf=1, prune=False)
    assert t.root.pred == Pred("le", 0, 1)


# ------------------------------------------------------------------ pruning

def test_prune_collapses_unhelpful_splits():
    # a mixed x=2 cannot be purified; splitting around it moves errors
    # without removing any, so pessimistic pruning folds everything
    dom = Domain((("x1", 1, 3),), (), 1)
    rows = [TrainRow((1,), None, True, 1), TrainRow((2,), None, True, 1),
            TrainRow((2,), None, False, 1), TrainRow((3,), None, True, 1)]
    ts = training_set(dom, rows)
    grown = learn(ts, prune=False)
    assert grown.size == 5
    pruned = learn(ts, prune=True, confidence=0.25)
    assert pruned.size == 1 and pruned.root.good


def test_prune_zero_z_compares_raw_errors():
    dom = Domain((("x1", 1, 3),), (), 1)
    rows = [TrainRow((1,), None, True, 1), TrainRow((2,), None, True, 1),
            TrainRow((2,), None, False, 1), TrainRow((3,), None, True, 1)]
    t = learn(training_set(dom, rows), confidence=0.5)
    assert t.size == 1


def test_confidence_above_half_clamps():
    # z would go negative; it is clamped to zero instead of rewarding splits
    t = learn(SEVEN, confidence=0.9)
    assert t.size == 5


def test_prune_recovers_majority_label():
    # mirror image of the collapse case: the majority is bad, so the
    # folded leaf must say bad even though the tie leaf inside said good
    dom = Domain((("x1", 1, 3),), (), 1)
    rows = [TrainRow((1,), None, False, 1), TrainRow((2,), None, False, 1),
            TrainRow((2,), None, True, 1), TrainRow((3,), None, False, 1)]
    grown = learn(training_set(dom, rows), prune=False)
    pruned = learn(training_set(dom, rows), prune=True, confidence=0.5)
    assert grown.size == 5
    assert pruned.size == 1 and not pruned.root.good


# ------------------------------------------------------------ serialization

def test_json_round_trip_byte_stable():
    t = learn(SEVEN, min_leaf=1, confidence=0.5)
    blob = export_json(t)
    again = export_json(import_json(blob))
    assert blob == again
    assert blob.endswith("\n")
    obj = json.loads(blob)
    assert obj["domain"]["vars"] == [["x1", 1, 7]]
    assert obj["root"]["p"] == {"coord": 0, "k": 3, "op": "le"}
    assert obj["root"]["yes"] == {"leaf": True}


def test_json_round_trip_classifies_identically(fig1):
    va = value_iteration(fig1, 1e-9)
    strat = extract_liberal(fig1, va)
    w = exact_importance(fig1, strat)
    ts = build_training_set(strat, w, mode="once")
    t = learn(ts)
    t2 = import_json(export_json(t))
    assert t2.domain == t.domain
    model = as_tuples(fig1)
    for s in range(fig1.n_states):
        for a in model.actions[s]:
            assert classify(t2, model.states[s], a.attr) == \
                classify(t, model.states[s], a.attr)


def test_categorical_json_shape():
    dom = Domain((("x", 0, 0),), ("go",), 2)
    rows = [TrainRow((0,), ActionAttr("go", 1), True, 4),
            TrainRow((0,), ActionAttr("go", 2), False, 4)]
    t = learn(training_set(dom, rows), prune=False)
    obj = json.loads(export_json(t))
    assert obj["root"]["p"] == {"cat": "module", "v": 1}


def test_export_dot():
    t = learn(SEVEN, min_leaf=1, confidence=0.5)
    dot = export_dot(t)
    assert dot.startswith("digraph")
    assert 'label="x1<=3"' in dot and 'label="x1<=6"' in dot
    assert dot.count("style=dashed") == 2  # one dashed (no) edge per split
    assert dot.count("shape=ellipse") == 3  # three leaves


@pytest.mark.parametrize("confidence", [0.001, 0.05, 0.1, 0.25, 0.4, 0.5, 0.75, 0.999])
def test_upper_z_is_the_normal_quantile(confidence):
    from scipy.stats import norm
    assert _upper_z(confidence) == max(float(norm.ppf(1.0 - confidence)), 0.0)


def test_upper_z_is_scipy_ndtri_bit_for_bit():
    from scipy.special import ndtri
    rng = np.random.default_rng(0)
    confidences = np.concatenate((
        [0.25, 1.0, 1e-300, 5e-324, 0.5, 1 - 0.13533528323661269189, np.nextafter(1.0, 0.0)],
        rng.random(12000),
        np.exp(-rng.random(4000) * 700),  # deep lower tail of the quantile
        -np.expm1(-rng.random(4000) * 36)))  # near 1: the upper tail
    for c in confidences.tolist():
        assert _upper_z(c) == max(float(ndtri(1.0 - c)), 0.0), c


# ------------------------------------------------------------ induction

def _hand_tree(m):
    """Every predicate kind, including an action name the model lacks."""
    name = m.action_names[0]
    return DTree(Split(Pred("action", 0, name),
                       Split(Pred("le", 0, 2), Leaf(True), Leaf(False)),
                       Split(Pred("module", 0, 1),
                             Split(Pred("action", 0, "nosuch"), Leaf(False), Leaf(True)),
                             Leaf(False))),
                 Domain.of(m))


def _assert_induced_like_classify(m, tree):
    induced, fallback = induce_strategy(m, tree)
    choice, want_fallback = induce_by_classify(m, tree)
    assert choice_of(induced) == choice
    assert fallback.tolist() == want_fallback


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_induce_strategy_matches_classify(name, request):
    m = request.getfixturevalue(name)
    sigma = extract_liberal(m, value_iteration(m, 1e-6))
    weights = importance_of(simulate(sigma, 2000, seed=1)).weights
    ts = build_training_set(sigma, weights, runs=2000)
    for min_leaf in (1, 10, 100, 1000):
        _assert_induced_like_classify(m, learn(ts, min_leaf=min_leaf))
    _assert_induced_like_classify(m, _hand_tree(m))


@pytest.mark.parametrize("seed", range(25))
def test_induce_strategy_matches_classify_on_random_models(seed):
    m = random_mdp(seed, max_actions=4)
    sigma = extract_liberal(m, value_iteration(m, 1e-9))
    ts = build_training_set(sigma, np.ones(m.n_states), mode="once")
    _assert_induced_like_classify(m, learn(ts, min_leaf=1, prune=False))
    _assert_induced_like_classify(m, _hand_tree(m))


def test_induce_strategy_round_trip(fig1):
    va = value_iteration(fig1, 1e-9)
    strat = extract_liberal(fig1, va)
    w = exact_importance(fig1, strat)
    ts = build_training_set(strat, w, mode="once")
    tree = learn(ts, min_leaf=1, confidence=0.5)
    induced, fallback = induce_strategy(fig1, tree)
    # the tree only rules out a and c, so every other action counts as
    # good and no state needs the uniform fallback
    assert fallback.tolist() == []
    assert choice_of(induced)[0] == choice_of(strat)[0]
    assert choice_of(induced)[2] == choice_of(strat)[2]
    # off-run states keep all their actions (st and e both classify good)
    assert len(choice_of(induced)[3]) == 2
    assert evaluate(induced) == pytest.approx(0.995, abs=1e-12)


def test_induce_skips_target(fig1):
    tree = DTree(Leaf(True), Domain.of(fig1))
    induced, fallback = induce_strategy(fig1, tree)
    assert fallback.tolist() == []
    assert 1 not in choice_of(induced)
    assert set(choice_of(induced)) == set(range(9)) - {1}


# ------------------------------------------------- split scan vs mask loop

def _distill_set(mdp):
    sigma = extract_liberal(mdp, value_iteration(mdp, 1e-6))
    stats = simulate(sigma, 10000, seed=1)
    return sigma, build_training_set(sigma, importance_of(stats, "DP").weights,
                                     runs=10000)


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_learn_matches_mask_loop_on_every_probe(name, request):
    mdp = request.getfixturevalue(name)
    sigma, ts = _distill_set(mdp)
    reference = evaluate(sigma)
    fit = fit_max_leaf(
        ts, lambda t: evaluate(induce_strategy(mdp, t)[0]) >= 0.99 * reference)
    assert len(fit.tried) > 1 or name == "sync2"
    for leaf, _ in fit.tried:
        for prune in (True, False):
            assert export_json(learn(ts, min_leaf=leaf, prune=prune)) == export_json(
                learn_masks(ts, min_leaf=leaf, prune=prune)), (leaf, prune)


def test_learn_and_induce_leave_no_garbage_cycles(grid):
    # recursive closures would keep their cells, and all they hold, until
    # the cyclic collector runs
    _, ts = _distill_set(grid)
    gc.collect()
    gc.disable()
    try:
        induce_strategy(grid, learn(ts, min_leaf=20))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_store_export_and_build_leave_no_garbage_cycles(grid):
    # a recursive closure, or a generated function kept in its own globals,
    # keeps all it reaches until the cyclic collector runs
    sigma, ts = _distill_set(grid)
    tree = learn(ts, min_leaf=20)
    grid_ast, fig1_ast = (parse_model(fixtures.model_text(n)) for n in ("grid", "fig1"))
    calls = {"store_strategy": lambda: store_strategy(sigma),
             "export_dot": lambda: export_dot(tree),
             "compile_model": lambda: compile_model(grid_ast),
             "build_mdp": lambda: build_mdp(fig1_ast)}
    garbage = {}
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            garbage[name] = gc.collect()
    finally:
        gc.enable()
    assert garbage == dict.fromkeys(calls, 0)


def _random_set(seed):
    rng = random.Random(seed)
    nv = rng.randint(1, 3)
    names = ("a", "b", "c")[:rng.randint(1, 3)]
    modules = rng.randint(1, 3)
    dom = Domain(tuple((f"x{j}", 0, 5) for j in range(nv)), names, modules)
    rows = []
    for _ in range(rng.randint(1, 30)):
        attr = (None if rng.random() < 0.2 else
                ActionAttr(rng.choice(names), rng.randrange(modules)))
        rows.append(TrainRow(tuple(rng.randint(0, 5) for _ in range(nv)), attr,
                             rng.random() < 0.5, rng.randint(1, 4)))
    if seed % 3 == 0:
        # an XOR pattern on x0 and a second coordinate: every single split
        # has zero gain, so the grower falls back to the first valid split
        other = 1 if nv > 1 else None
        rows = [TrainRow(tuple(a if j == 0 else (b if j == other else 0)
                               for j in range(nv)), attr, (a != b), 2)
                for a in (0, 1) for b in (0, 1)
                for attr in (ActionAttr("a", 0), None)]
        dom = Domain(dom.var_decls, ("a",), 1)
    return training_set(dom, rows)


@pytest.mark.parametrize("seed", range(40))
def test_learn_matches_mask_loop_on_random_sets(seed):
    ts = _random_set(seed)
    for leaf in (1, 2, 3, 5, 9):
        for prune in (True, False):
            assert export_json(learn(ts, min_leaf=leaf, prune=prune)) == export_json(
                learn_masks(ts, min_leaf=leaf, prune=prune)), (leaf, prune)


def _assert_warm_tables_change_nothing(ts, leaves):
    """Trees from `ts`, whose node tables fill up as `leaves` are visited in
    order, equal trees from a fresh copy and from the mask loop, weights and
    error counts included; a second visit adds no table."""
    oracle = {}
    for leaf in leaves:
        for prune in (True, False):
            if (leaf, prune) not in oracle:
                oracle[leaf, prune] = learn_masks(ts, min_leaf=leaf, prune=prune)
                fresh = TrainingSet(ts.domain, ts.rows, ts.good, ts.weight)
                cold = learn(fresh, min_leaf=leaf, prune=prune)
                assert cold == oracle[leaf, prune], (leaf, prune)
            assert learn(ts, min_leaf=leaf, prune=prune) == oracle[leaf, prune], (leaf, prune)
    tables = len(ts.node_tables)
    for leaf in leaves:
        assert learn(ts, min_leaf=leaf) == oracle[leaf, True], leaf
    assert len(ts.node_tables) == tables > 0


def _leaves_up_down_repeat(top):
    up = sorted({1, 2, 3} | {max(1, top >> k) for k in range(0, 13, 3)})
    return up + up[::-1] + up[1::2]


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_warm_node_tables_match_cold_and_mask_loop(name, request):
    _, ts = _distill_set(request.getfixturevalue(name))
    top = ts.total_weight // 2
    leaves = _leaves_up_down_repeat(top)
    assert leaves[0] < leaves[len(leaves) // 2 - 1] and len(set(leaves)) < len(leaves)
    _assert_warm_tables_change_nothing(ts, leaves)


@pytest.mark.parametrize("seed", range(40))
def test_warm_node_tables_match_cold_and_mask_loop_on_random_sets(seed):
    _assert_warm_tables_change_nothing(_random_set(seed), [1, 2, 3, 5, 9, 5, 3, 2, 1, 3, 9, 1])


def _assert_any_probe_order_learns_the_fresh_trees(ts, leaves, seed):
    """Learning `leaves` on one set, whose tables and kept split choices
    fill up as they are visited, in increasing, decreasing and shuffled
    order, gives the trees of a fresh set per leaf size."""
    def fresh():
        return TrainingSet(ts.domain, ts.rows, ts.good, ts.weight)

    want = {m: export_json(learn(fresh(), min_leaf=m)) for m in leaves}
    shuffled = list(leaves)
    random.Random(seed).shuffle(shuffled)
    for order in (sorted(leaves), sorted(leaves, reverse=True), shuffled):
        warm = fresh()
        for m in order:
            assert export_json(learn(warm, min_leaf=m)) == want[m], (order, m)


def test_any_probe_order_learns_the_fresh_trees_on_grid(grid):
    sigma, ts = _distill_set(grid)
    reference = evaluate(sigma)
    fit = fit_max_leaf(
        ts, lambda t: evaluate(induce_strategy(grid, t)[0]) >= 0.99 * reference)
    leaves = [m for m, _ in fit.tried]
    assert len(leaves) >= 20
    _assert_any_probe_order_learns_the_fresh_trees(ts, leaves, 0)


@pytest.mark.parametrize("seed", range(20))
def test_any_probe_order_learns_the_fresh_trees_on_random_sets(seed):
    # every leaf size up to past the lighter class weight: every band
    ts = _random_set(seed)
    top = int(min(ts.weight[ts.good].sum(), ts.weight[~ts.good].sum()))
    _assert_any_probe_order_learns_the_fresh_trees(ts, list(range(1, top + 3)), seed)


def test_balanced_boundary_takes_the_fallback_split():
    # x0 xor x1, equal weights: no split gains, yet the rows are separable
    dom = Domain((("x0", 0, 1), ("x1", 0, 1)), (), 1)
    rows = [TrainRow((a, b), None, a != b, 2) for a in (0, 1) for b in (0, 1)]
    t = learn(training_set(dom, rows), prune=False)
    assert t.root.pred == Pred("le", 0, 0)
    assert [classify(t, (a, b)) for a in (0, 1) for b in (0, 1)] == [
        False, True, True, False]


# ------------------------------------------------------------- size search

def test_fit_max_leaf_accept_everything():
    fit = fit_max_leaf(SEVEN, lambda t: True)
    assert fit.tried[0] == (1, True)
    # the search cannot push min_leaf past the lighter class weight
    assert fit.min_leaf == 3
    assert fit.tree.size == 3


def test_fit_max_leaf_accept_nothing():
    fit = fit_max_leaf(SEVEN, lambda t: False)
    assert fit.tried == [(1, False)]
    assert fit.min_leaf == 1
    assert fit.tree.size == 5  # most faithful tree still returned


def test_fit_max_leaf_exact_frontier():
    correct = {v: v in {1, 2, 3, 7} for v in range(1, 8)}

    def accuracy(t):
        hits = sum(classify(t, (v,)) == correct[v] for v in range(1, 8))
        return hits / 7

    fit = fit_max_leaf(SEVEN, lambda t: accuracy(t) >= 0.999, confidence=0.5)
    assert fit.tried[0] == (1, True) and fit.min_leaf == 1
    loose = fit_max_leaf(SEVEN, lambda t: accuracy(t) >= 0.85, confidence=0.5)
    assert loose.tried[0] == (1, True) and loose.min_leaf >= 2
    assert accuracy(loose.tree) >= 6 / 7


def test_fit_max_leaf_logs_probes():
    fit = fit_max_leaf(SEVEN, lambda t: True)
    assert fit.tried
    assert all(isinstance(m, int) and isinstance(ok, bool)
               for m, ok in fit.tried)
    assert (fit.min_leaf, True) in fit.tried


@pytest.mark.parametrize("seed", range(20))
def test_fit_max_leaf_learns_each_leaf_size_once(seed, monkeypatch):
    # verdicts drawn at random per leaf size, so not monotone; the search
    # learns every probed size once and returns the very tree it accepted
    from mdpdistill import dtree
    ts = _random_set(seed)
    rng = random.Random(seed)
    learned = []
    real = dtree.learn

    def learn_logged(ts, **kw):
        learned.append((kw["min_leaf"], real(ts, **kw)))
        return learned[-1][1]

    verdict = {}

    def accept(t):
        m, tree = learned[-1]
        assert tree is t
        return verdict.setdefault(m, rng.random() < 0.6)

    monkeypatch.setattr(dtree, "learn", learn_logged)
    fit = fit_max_leaf(ts, accept)
    sizes = [m for m, _ in learned]
    assert sizes == [m for m, _ in fit.tried]
    assert len(set(sizes)) == len(sizes)
    assert fit.tree is dict(learned)[fit.min_leaf]
    assert verdict[fit.min_leaf] == fit.tried[0][1]
