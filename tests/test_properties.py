"""Property-based checks of the library's structural invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from mdpdistill.bdd import Bdd
from mdpdistill.build import export_flat, parse_flat
from mdpdistill.core import ActionAttr
from mdpdistill.dtree import learn, tree_size
from mdpdistill.importance import Domain, RunStats
from mdpdistill.solver import value_iteration
from mdpdistill.strategy import evaluate, extract_liberal, truncate

from oracles import (Action, TrainRow, as_tuples, check_valid, choice_of, classify,
                     make_absorbing, max_reach_exact, mdp_of, strategy_from_choice,
                     training_set)


@st.composite
def mdps(draw, max_states=6):
    """Small MDPs with dyadic probabilities and one absorbing target."""
    n = draw(st.integers(2, max_states))
    target = draw(st.integers(1, n - 1))
    actions = []
    for s in range(n):
        if s == target:
            actions.append(())
            continue
        row = []
        for k in range(draw(st.integers(1, 2))):
            succs = tuple(sorted(draw(
                st.sets(st.integers(0, n - 1), min_size=1, max_size=3))))
            cuts = sorted(draw(st.sets(st.integers(1, 7),
                                       min_size=len(succs) - 1,
                                       max_size=len(succs) - 1)))
            weights = [b - a for a, b in zip([0] + cuts, cuts + [8])]
            row.append(Action(ActionAttr(f"a{k}", 1), succs,
                              tuple(w / 8 for w in weights)))
        actions.append(tuple(row))
    states = tuple((s,) for s in range(n))
    m = mdp_of((("x", 0, n - 1),), states,
               make_absorbing(tuple(actions), {target}),
               0, frozenset({target}))
    return m.validate()


@settings(max_examples=60, deadline=None)
@given(mdps())
def test_vi_is_sound_and_extraction_optimal(m):
    exact = max_reach_exact(m)
    assert np.all(exact >= 0) and np.all(exact <= 1)
    va = value_iteration(m, 1e-7)
    assert check_valid(m, va, exact).ok
    strat = extract_liberal(m, va)
    assert abs(evaluate(m, strat) - exact[m.initial]) <= 1e-5


@settings(max_examples=60, deadline=None)
@given(mdps())
def test_flat_format_round_trips(m):
    text = export_flat(m)
    again = parse_flat(text)
    got, want = as_tuples(again), as_tuples(m)
    assert got.states == want.states
    assert got.actions == want.actions
    assert again.initial == m.initial and got.target == want.target
    assert export_flat(again) == text


@settings(max_examples=40, deadline=None)
@given(mdps(), st.lists(st.floats(0, 1), min_size=6, max_size=6),
       st.floats(0, 1), st.floats(0, 1))
def test_truncate_monotone_in_delta(m, ws, d1, d2):
    lo, hi = min(d1, d2), max(d1, d2)
    weights = np.array((ws * 2)[:m.n_states])
    strat = extract_liberal(m, value_iteration(m, 1e-7))
    kept_hi = set(choice_of(truncate(strat, weights, hi)))
    kept_lo = set(choice_of(truncate(strat, weights, lo)))
    assert kept_hi <= kept_lo
    assert kept_lo <= set(choice_of(strat))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.data())
def test_bdd_agrees_with_python_set(width, data):
    universe = [tuple((i >> b) & 1 for b in reversed(range(width)))
                for i in range(1 << width)]
    subset = data.draw(st.sets(st.sampled_from(universe)))
    b = Bdd(width)
    root = b.encode_set(subset)
    for p in universe:
        assert b.contains(root, p) == (p in subset)
    # canonical: re-encoding any reordering lands on the same node
    assert b.encode_set(sorted(subset, reverse=True)) == root


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 9), st.data())
def test_tree_never_beats_data_never_worse_than_majority(hi, data):
    labels = data.draw(st.lists(st.booleans(), min_size=hi, max_size=hi))
    dom = Domain((("x1", 1, hi),), (), 1)
    rows = [TrainRow((v,), None, labels[v - 1], data.draw(st.integers(1, 4)))
            for v in range(1, hi + 1)]
    ts = training_set(dom, rows)
    t = learn(ts, prune=False)
    err = sum(r.weight for r in rows if classify(t, r.x) != r.good)
    wg = sum(r.weight for r in rows if r.good)
    wb = sum(r.weight for r in rows if not r.good)
    assert err <= min(wg, wb)
    pruned = learn(ts, prune=True)
    assert tree_size(pruned.root) <= tree_size(t.root)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=4, max_size=4),
       st.lists(st.integers(0, 50), min_size=4, max_size=4),
       st.lists(st.integers(0, 50), min_size=4, max_size=4))
def test_run_stats_merge_is_order_insensitive(a, b, c):
    def mk(xs):
        s = RunStats(4, total_runs=sum(xs) + 1, target_runs=min(xs))
        s.visited_cond_count[:] = xs
        s.visited_all_count[:] = xs
        s.visited_cond_mult[:] = [2 * x for x in xs]
        s.visited_all_mult[:] = [3 * x for x in xs]
        return s

    left = mk(a).merge(mk(b)).merge(mk(c))
    right = mk(c).merge(mk(a).merge(mk(b)))
    assert left.total_runs == right.total_runs
    assert left.target_runs == right.target_runs
    assert np.array_equal(left.visited_cond_mult, right.visited_cond_mult)
    assert np.array_equal(left.visited_all_count, right.visited_all_count)


@settings(max_examples=40, deadline=None)
@given(mdps())
def test_uniform_play_never_beats_optimum(m):
    uniform = evaluate(m, strategy_from_choice(m, {}))
    assert uniform <= max_reach_exact(m)[m.initial] + 1e-9
