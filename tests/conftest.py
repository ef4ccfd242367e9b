"""Shared fixtures and a small random-model generator.

The generator keeps every branch probability an exact dyadic rational
(integer weight over a power of two) so exact solvers, the Fraction
oracle and floating-point code all agree to the last bit where a test
wants them to.
"""

import random

import pytest

from mdpdistill import fixtures
from mdpdistill.core import ActionAttr

from oracles import Action, make_absorbing, mdp_of


@pytest.fixture(scope="session")
def fig1():
    return fixtures.load("fig1")


@pytest.fixture(scope="session")
def mutex():
    return fixtures.load("mutex")


@pytest.fixture(scope="session")
def sync2():
    return fixtures.load("sync2")


@pytest.fixture(scope="session")
def grid():
    return fixtures.load("grid")


@pytest.fixture(scope="session")
def fig1_extended_2000():
    return fixtures.fig1_extended(2000)


@pytest.fixture(scope="session")
def wide_fan():
    """A 40-way branch among 2-way rows. Its chain has 122 branches over 43
    states, so `importance.simulate`'s running-sum table gets 2 columns, and
    runs on the 40-way row finish their pick by binary search.

    State 0 moves to state i in 1..40 with probability i / 820. An odd i
    moves back to 0 with 1/3, else to the target 41; an even i moves back
    to 0 with 0.7, else to the trap 42.
    """
    A = lambda name, succs, probs: Action(ActionAttr(name, 1), succs, probs)
    fan = A("fan", tuple(range(1, 41)), tuple(i / 820 for i in range(1, 41)))
    actions = [(fan,)]
    for i in range(1, 41):
        actions.append((A("on", (0, 41), (1 / 3, 2 / 3)),) if i % 2
                       else (A("on", (0, 42), (0.7, 0.3)),))
    actions += [(), (A("stay", (42,), (1.0,)),)]
    mdp = mdp_of(
        var_decls=(("x", 0, 42),),
        states=tuple((s,) for s in range(43)),
        actions=make_absorbing(actions, frozenset({41})),
        initial=0,
        target=frozenset({41}),
    )
    return mdp.validate()


def random_mdp(seed, max_states=7, max_actions=3, acyclic=False):
    """A small validated MDP with dyadic branch probabilities.

    acyclic=True restricts every edge to go strictly forward (except the
    mandatory target/sink self-loops), which the Fraction-DP oracle needs.
    """
    rng = random.Random(seed)
    n = rng.randint(2, max_states)
    target = {n - 1} if acyclic else {rng.randrange(1, n)}
    if not acyclic and n > 3 and rng.random() < 0.3:
        target.add(rng.randrange(1, n))

    actions = []
    for s in range(n):
        if s in target:
            actions.append(())  # filled in by make_absorbing
            continue
        row = []
        for k in range(rng.randint(1, max_actions)):
            pool = list(range(s + 1, n)) if acyclic else list(range(n))
            if not pool:  # last non-target state of an acyclic chain
                pool = [n - 1]
            n_br = rng.randint(1, min(3, len(pool)))
            succs = tuple(rng.sample(pool, n_br))
            # integer weights over total 8 keep probabilities exact
            cuts = sorted(rng.sample(range(1, 8), n_br - 1))
            weights = [b - a for a, b in zip([0] + cuts, cuts + [8])]
            probs = tuple(w / 8 for w in weights)
            row.append(Action(ActionAttr(f"a{k}", 1), succs, probs))
        actions.append(tuple(row))

    states = tuple((s,) for s in range(n))
    mdp = mdp_of(
        var_decls=(("x", 0, n - 1),),
        states=states,
        actions=make_absorbing(actions, target),
        initial=0,
        target=frozenset(target),
        module_count=1,
    )
    return mdp.validate()


@pytest.fixture
def tiny_mec_mdp():
    """Hand-built model with one 2-state MEC that must be exited.

    0 --go--> {1,2} spin between each other; 1 --exit--> 3 (target) w.p. 1/2
    else to 4 (sink). The pair {1,2} with the spin actions is a MEC whose
    best exit value is 1/2.
    """
    A = lambda name, succs, probs: Action(ActionAttr(name, 1), succs, probs)
    states = tuple((s,) for s in range(5))
    actions = (
        (A("go", (1,), (1.0,)),),
        (A("spin", (2,), (1.0,)), A("exit", (3, 4), (0.5, 0.5))),
        (A("spin", (1,), (1.0,)),),
        (),
        (A("stay", (4,), (1.0,)),),
    )
    mdp = mdp_of(
        var_decls=(("x", 0, 4),),
        states=states,
        actions=make_absorbing(actions, frozenset({3})),
        initial=0,
        target=frozenset({3}),
    )
    return mdp.validate()
