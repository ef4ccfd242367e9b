"""Reachability engines producing certified lower/upper value bounds.

Both engines return a ValueApprox: per-pair and per-state lower bounds that
an extraction step can turn into a liberal strategy. `value_iteration` runs
interval iteration on the MEC quotient until the gap at the initial state is
below eps, so the bounds cover every state. `brtdp` samples paths guided by
the upper bound and only touches the states those paths visit; on models with
a large irrelevant part it converges after exploring a fraction of the space.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional

import numpy as np

from .core import (Mdp, MecDecomposition, _ranges, build_quotient, derive_seed,
                   interval_iterate, mec_decompose)


@dataclass
class ValueApprox:
    """Reachability bounds: lower per action row, lower and upper per state.

    The per-pair lower table, one entry per action row of `mdp`, is the
    object downstream steps consume: it is a valid eps-underapproximation
    of the optimal pair values (`tests/oracles.check_valid` checks the
    individual conditions against the exact optimum). `explored` lists, in
    ascending order, the states the engine actually computed bounds for;
    with value iteration that is every state. Elsewhere the tables hold
    the defaults: pair value 0, state lower bound 1 at targets and 0
    otherwise, state upper bound 1. `mecs` are the MECs within the explored
    set, or None when they were not given. `backups` counts BRTDP's state
    backups and `deflations` its end component deflations; both stay 0 for
    value iteration.
    """

    pair_lower: np.ndarray
    state_lower: np.ndarray
    state_upper: np.ndarray
    epsilon: float
    explored: np.ndarray
    gap: float
    engine: str
    episodes: int = 0
    sweeps: int = 0
    mecs: Optional[MecDecomposition] = None
    backups: int = 0
    deflations: int = 0

    @property
    def converged(self) -> bool:
        """Whether the gap at the initial state met epsilon."""
        return self.gap < self.epsilon


def value_iteration(mdp: Mdp, eps: float) -> ValueApprox:
    """Interval iteration on the MEC quotient, stopping at gap(s0) < eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    mecs = mec_decompose(mdp)
    q = build_quotient(mdp, mecs)
    L, U, sweeps = interval_iterate(q, eps=eps, stop_node=int(q.node_of[mdp.initial]))
    # one CSR mat-vec per bound adds each row's branches left to right
    pair_lower = mdp.branches @ L[q.node_of]
    pair_upper = mdp.branches @ U[q.node_of]
    first_rows = mdp.row_start[:-1]
    gap = float(U[q.node_of[mdp.initial]] - L[q.node_of[mdp.initial]])
    return ValueApprox(
        pair_lower=pair_lower,
        state_lower=np.maximum.reduceat(pair_lower, first_rows),
        state_upper=np.maximum.reduceat(pair_upper, first_rows),
        epsilon=eps, explored=np.arange(mdp.n_states),
        gap=gap, engine="vi", sweeps=sweeps, mecs=mecs)


# BRTDP's default step cap is CAP_PER_STATE * |explored| + CAP_SLACK steps: a
# path that long has, unless it keeps finding new states, closed a cycle.
# Over seeds 0-9 it makes 5,949 backups on the 20,010-state chain and 31,335
# on mutex, against 26,119 and 348,370 with 10 * |explored| + 1000; factors
# 1-4 and slacks 0-50 timed alike there, on grid and on the acceptance corpus.
CAP_PER_STATE, CAP_SLACK = 2, 10


def brtdp(mdp: Mdp, eps: float, *, seed: int = 0,
          max_steps: Optional[int] = None,
          max_episodes: int = 100_000) -> ValueApprox:
    """Upper-bound-guided sampling with on-the-fly end component deflation.

    Episodes start at the initial state, follow an action maximizing the
    current upper bound (ties broken by a seeded generator), and stop at a
    target, at a sink, or at the step cap (`max_steps`; by default
    CAP_PER_STATE * |explored| + CAP_SLACK). Bounds are backed up along the
    path in reverse. End components inside the explored set would keep both
    bounds at 1 forever and trap the path, so an episode that hits the cap,
    having closed a cycle, deflates: the explored set is decomposed into MECs
    (again only when it has grown), the internal upper bounds of each MEC
    away from the target are capped by its best exiting pair, and the path
    is backed up once more. Bounds are per-state lists over `mdp`'s states; a
    state's rows become Python lists when the search first touches it, and
    each pair value is summed over its row in declaration order. Returns
    tables over the explored states and their MECs, with `converged` False
    if the episode budget ran out first.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    L = mdp.is_target.astype(np.float64).tolist()  # unexplored states hold the defaults
    U = [1.0] * mdp.n_states
    explored = set()
    rng = random.Random(derive_seed(seed, 0))
    backups = deflations = 0

    @lru_cache(maxsize=None)
    def state(s: int):
        # the rows of s as (successors, probabilities) lists, whether it is a
        # target and whether it is a sink, read when s is first touched
        a, b = mdp.row_start[s:s + 2].tolist()
        ptr = mdp.branches.indptr[a:b + 1].tolist()
        rows = [(mdp.branches.indices[i:j].tolist(), mdp.branches.data[i:j].tolist())
                for i, j in zip(ptr, ptr[1:])]
        # a sink's every row is a single branch back to itself (targets are sinks too)
        return rows, bool(mdp.is_target[s]), all(t == [s] for t, _ in rows)

    def pair(V: List[float], row) -> float:
        # adds the branches in declaration order, as the mat-vec below does
        x = 0.0
        for t, p in zip(*row):
            x += p * V[t]
        return x

    def backup(path: List[int]):
        nonlocal backups
        backups += len(path)
        for s in reversed(path):
            rows, target, stop = state(s)
            if target:
                continue
            if stop:
                L[s] = U[s] = 0.0
                continue
            L[s] = max(L[s], max(pair(L, row) for row in rows))
            U[s] = min(U[s], max(pair(U, row) for row in rows))

    mecs = None  # the MECs of the explored set
    groups = []  # (member states, exit rows) of each MEC away from the target
    grouped_at = -1  # size of the explored set `mecs` and `groups` were read from

    def decompose():
        nonlocal mecs, groups, grouped_at
        if grouped_at == len(explored):  # explored only grows, so its size names it
            return
        mecs = mec_decompose(mdp, restrict=explored)
        groups = [([], []) for _ in range(mecs.count)]
        states = np.flatnonzero((mecs.mec_of >= 0) & ~mdp.is_target)
        for s, k in zip(states.tolist(), mecs.mec_of[states].tolist()):
            groups[k][0].append(s)
        rows = np.flatnonzero((mecs.mec_of[mdp.row_state] >= 0) & ~mecs.internal)
        owner = mdp.row_state[rows]
        for s, i, k in zip(owner.tolist(), (rows - mdp.row_start[owner]).tolist(),
                           mecs.mec_of[owner].tolist()):
            groups[k][1].append(state(s)[0][i])
        groups = [group for group in groups if group[0]]
        grouped_at = len(explored)

    def deflate():
        # MECs in id order: one's new upper bound feeds the exits of later ones
        nonlocal deflations
        deflations += 1
        decompose()
        for members, exits in groups:
            cap = max([0.0] + [pair(U, row) for row in exits])
            for s in members:
                U[s] = min(U[s], cap)

    s0 = mdp.initial
    explored.add(s0)
    episodes = 0
    while U[s0] - L[s0] >= eps:
        if episodes >= max_episodes:
            break
        episodes += 1
        cap = max_steps if max_steps is not None else CAP_PER_STATE * len(explored) + CAP_SLACK
        path = [s0]
        s = s0
        hit_cap = False
        while True:
            rows, _, stop = state(s)
            if stop:
                break
            if len(path) > cap:
                hit_cap = True
                break
            vals = [pair(U, row) for row in rows]
            best = max(vals)
            cands = [row for row, x in zip(rows, vals) if x >= best - 1e-12]
            succ, prob = cands[0] if len(cands) == 1 else rng.choice(cands)
            x = rng.random()
            acc = 0.0
            t = succ[-1]
            for u, p in zip(succ, prob):
                acc += p
                if x < acc:
                    t = u
                    break
            path.append(t)
            explored.add(t)
            s = t
        backup(path)
        if hit_cap:
            deflate()
            backup(path)

    # the tables over the explored rows; the rest keep the defaults
    decompose()
    states = np.array(sorted(explored))
    starts, stops = mdp.row_start[states], mdp.row_start[states + 1]
    rows = _ranges(starts, stops)
    sub = mdp.branches[rows]
    cols = np.unique(sub.indices).tolist()

    def pairs(V: List[float]) -> np.ndarray:
        # one CSR mat-vec over the explored rows, reading V only where they do
        x = np.zeros(mdp.n_states)
        x[cols] = [V[t] for t in cols]
        return sub @ x

    first = np.cumsum(stops - starts) - (stops - starts)  # each state's first row in `sub`
    open_ = ~mdp.is_target[states]
    lower = pairs(L)
    pair_lower = np.zeros(len(mdp.row_state))
    pair_lower[rows] = lower
    state_lower = mdp.is_target.astype(np.float64)
    state_lower[states[open_]] = np.maximum.reduceat(lower, first)[open_]
    state_upper = np.ones(mdp.n_states)
    state_upper[states[open_]] = np.minimum(
        [U[s] for s in states.tolist()], np.maximum.reduceat(pairs(U), first))[open_]
    return ValueApprox(
        pair_lower=pair_lower, state_lower=state_lower, state_upper=state_upper,
        epsilon=eps, explored=states, gap=U[s0] - L[s0], engine="brtdp",
        episodes=episodes, mecs=mecs, backups=backups, deflations=deflations)
