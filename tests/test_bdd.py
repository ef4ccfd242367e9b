"""Bit packing and the reduced decision-diagram store."""

import random

import pytest

from mdpdistill.bdd import Bdd, BitLayout, _width, store_strategy
from mdpdistill.core import ActionAttr
from mdpdistill.importance import Domain, importance_of, simulate
from mdpdistill.solver import value_iteration
from mdpdistill.strategy import extract_liberal, truncate

from oracles import as_tuples, encode_set_subsets, exact_importance, strategy_from_choice


def _opt(mdp, cut=False):
    strat = extract_liberal(mdp, value_iteration(mdp, 1e-9))
    if cut:
        return truncate(strat, exact_importance(mdp, strat), 0.0)
    return strat


# ------------------------------------------------------------------ packing

def test_width():
    assert _width(1) == 0
    assert _width(2) == 1
    assert _width(3) == 2
    assert _width(4) == 2
    assert _width(5) == 3
    assert _width(8) == 3
    assert _width(9) == 4


def test_layout_fig1(fig1):
    layout = BitLayout.of(Domain.of(fig1))
    assert layout.fields == (
        ("loc", 0, 3), ("pos", 1, 1), ("action", 0, 3), ("module", 0, 1))
    assert layout.n_bits == 8


def test_encode_msb_first(fig1):
    layout = BitLayout.of(Domain.of(fig1))
    bits = layout.encode((3, 1), ActionAttr("a", 1))
    #            loc=3      pos-1=0  action a=0  module=1
    assert bits == (0, 1, 1, 0, 0, 0, 0, 1)
    bits = layout.encode((6, 2), ActionAttr("tau", 0))
    assert bits == (1, 1, 0, 1, 1, 1, 1, 0)


def test_encode_rejects_out_of_field():
    layout = BitLayout.of(Domain((("x", 0, 2),), ("a",), 1))
    with pytest.raises(ValueError, match="does not fit"):
        layout.encode((5,), ActionAttr("a", 1))
    with pytest.raises(ValueError, match="does not fit"):
        layout.encode((0,), ActionAttr("a", 9))


def test_singleton_variable_takes_no_bits():
    layout = BitLayout.of(Domain((("x", 3, 3), ("y", 0, 1)), ("a",), 1))
    assert layout.fields[0] == ("x", 3, 0)
    # x contributes nothing; y, action (width 0), module make the string
    assert layout.n_bits == 1 + 0 + 1


# ------------------------------------------------------------------ diagram

def test_node_collapses_equal_children():
    b = Bdd(2)
    assert b.node(0, b.TRUE, b.TRUE) == b.TRUE
    assert b.node(0, b.FALSE, b.FALSE) == b.FALSE


def test_node_hash_consing():
    b = Bdd(2)
    n1 = b.node(1, b.FALSE, b.TRUE)
    n2 = b.node(1, b.FALSE, b.TRUE)
    assert n1 == n2
    assert b.var_of(n1) == 1
    assert b.children(n1) == (b.FALSE, b.TRUE)


def test_encode_set_terminals():
    b = Bdd(3)
    assert b.encode_set([]) == b.FALSE
    every = [(i >> 2 & 1, i >> 1 & 1, i & 1) for i in range(8)]
    assert b.encode_set(every) == b.TRUE
    assert b.node_count(b.TRUE) == 0


def test_single_bit_function():
    b = Bdd(1)
    root = b.encode_set([(1,)])
    assert b.node_count(root) == 1
    assert b.contains(root, (1,)) and not b.contains(root, (0,))


def test_parity_has_known_size():
    b = Bdd(3)
    pats = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)
            if (x + y + z) % 2 == 1]
    root = b.encode_set(pats)
    assert b.node_count(root) == 5  # 1 + 2 + 2 chain of parity trackers
    for x in (0, 1):
        for y in (0, 1):
            for z in (0, 1):
                assert b.contains(root, (x, y, z)) == ((x + y + z) % 2 == 1)


def test_encode_set_is_canonical():
    rng = random.Random(0)
    pats = [tuple(rng.randint(0, 1) for _ in range(5)) for _ in range(12)]
    b = Bdd(5)
    r1 = b.encode_set(pats)
    shuffled = list(pats)
    rng.shuffle(shuffled)
    r2 = b.encode_set(shuffled)
    assert r1 == r2  # same reduced diagram, same hash-consed root


@pytest.mark.parametrize("seed", range(15))
def test_membership_matches_python_set(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    universe = [tuple((i >> b) & 1 for b in reversed(range(n)))
                for i in range(1 << n)]
    subset = {p for p in universe if rng.random() < 0.4}
    b = Bdd(n)
    root = b.encode_set(subset)
    for p in universe:
        assert b.contains(root, p) == (p in subset)


def _same_build(n_bits, items):
    got, want = Bdd(n_bits), Bdd(n_bits)
    assert got.encode_set(items) == encode_set_subsets(want, items)
    assert got._nodes == want._nodes


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_encode_set_matches_subset_recursion_on_models(name, request):
    # the truncated strategy `compare` stores at its defaults, seed 0
    m = request.getfixturevalue(name)
    sigma = extract_liberal(m, value_iteration(m, 1e-6))
    weights = importance_of(simulate(sigma, 10000, seed=0)).weights
    layout = BitLayout.of(Domain.of(m))
    vals = m.valuation
    items = [layout.encode(vals[s].tolist(), attr)
             for s, attr in truncate(sigma, weights, 0.0).good_pairs()]
    assert items
    _same_build(layout.n_bits, items)


@pytest.mark.parametrize("seed", range(200))
def test_encode_set_matches_subset_recursion(seed):
    # n_bits 0 and 1 and the empty set come up among the seeds; repeats
    # and unsorted input exercise the sort and the set
    rng = random.Random(seed)
    n_bits = seed % 11
    count = 0 if seed % 9 == 0 else rng.randint(1, 2 * min(1 << n_bits, 50))
    _same_build(n_bits, [tuple(rng.randint(0, 1) for _ in range(n_bits))
                         for _ in range(count)])


def test_encode_set_checks_width():
    b = Bdd(3)
    with pytest.raises(ValueError, match="width"):
        b.encode_set([(0, 1)])


# -------------------------------------------------------------------- store

def test_store_fig1_frozen_size(fig1):
    store = store_strategy(_opt(fig1, cut=True))
    assert store.layout.n_bits == 8
    assert store.size == 11


def test_store_equivalent_to_pair_list(fig1, mutex, sync2):
    for m in (fig1, mutex, sync2):
        strat = _opt(m, cut=True)
        store = store_strategy(strat)
        pairs = set(strat.good_pairs())
        t = as_tuples(m)
        for s in range(m.n_states):
            attrs = {a.attr for a in t.actions[s]}
            for attr in attrs:
                assert store.accepts(t.states[s], attr) == ((s, attr) in pairs)


def test_store_deterministic(mutex):
    strat = _opt(mutex)
    a = store_strategy(strat)
    b = store_strategy(strat)
    assert a.size == b.size
    assert a.root == b.root or a.bdd is not b.bdd  # fresh manager per store


def test_store_empty_strategy(fig1):
    # don't-care states are not part of the stored description, so the
    # fully undefined strategy encodes the empty set
    store = store_strategy(strategy_from_choice(fig1, {}))
    assert store.size == 0
    assert store.root == store.bdd.FALSE
    assert not store.accepts((0, 1), ActionAttr("a", 1))
