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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional

import numpy as np

from .core import (Mdp, MecDecomposition, build_quotient, derive_seed, interval_iterate,
                   mec_decompose)

CHECK_TOL = 1e-9  # rounding slack each of check_valid's comparisons allows


@dataclass
class ValueApprox:
    """Reachability bounds: lower per action row, lower and upper per state.

    The per-pair lower table, one entry per row of `mdp.sparse`, is the
    object downstream steps consume: it is a valid eps-underapproximation
    of the optimal pair values (see check_valid for the individual
    conditions). `explored` lists, in ascending order, the states the
    engine actually computed bounds for; with value iteration that is
    every state. Elsewhere the tables hold the defaults: pair value 0,
    state lower bound 1 at targets and 0 otherwise, state upper bound 1.
    `mecs` are the model's MECs when the engine built them.
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
    v = mdp.sparse
    # one CSR mat-vec per bound adds each row's branches left to right
    pair_lower = v.branches @ L[q.node_of]
    pair_upper = v.branches @ U[q.node_of]
    first_rows = v.row_start[:-1]
    gap = float(U[q.node_of[mdp.initial]] - L[q.node_of[mdp.initial]])
    return ValueApprox(
        pair_lower=pair_lower,
        state_lower=np.maximum.reduceat(pair_lower, first_rows),
        state_upper=np.maximum.reduceat(pair_upper, first_rows),
        epsilon=eps, explored=np.arange(mdp.n_states),
        gap=gap, engine="vi", sweeps=sweeps, mecs=mecs)


def brtdp(mdp: Mdp, eps: float, *, seed: int = 0,
          max_steps: Optional[int] = None,
          max_episodes: int = 100_000) -> ValueApprox:
    """Upper-bound-guided sampling with on-the-fly end component deflation.

    Episodes start at the initial state, follow an action maximizing the
    current upper bound (ties broken by a seeded generator), and stop at a
    target, at a sink, or at the step cap (`max_steps`; by default it grows
    with the explored set). Bounds are backed up along the path in reverse.
    End components discovered inside the explored set would keep both bounds
    at 1 forever, so their internal upper bounds get capped by the best pair
    leaving the component; the decomposition is redone only when the
    explored set has grown. Bounds are per-state lists over `mdp.sparse`;
    a state's rows become Python lists when the search first touches it,
    and each pair value is summed over its row in declaration order. Returns
    partial tables over the explored states, with `converged` False if the
    episode budget ran out first.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    v = mdp.sparse
    L = [1.0 if t else 0.0 for t in v.is_target.tolist()]  # unexplored states hold the defaults
    U = [1.0] * mdp.n_states
    explored = set()
    rng = random.Random(derive_seed(seed, 0))

    @lru_cache(maxsize=None)
    def state(s: int):
        # the rows of s as (successors, probabilities) lists, whether it is a
        # target and whether it is a sink, read when s is first touched
        a, b = v.row_start[s:s + 2].tolist()
        ptr = v.branches.indptr[a:b + 1].tolist()
        rows = [(v.branches.indices[i:j].tolist(), v.branches.data[i:j].tolist())
                for i, j in zip(ptr, ptr[1:])]
        # a sink's every row is a single branch back to itself (targets are sinks too)
        return rows, bool(v.is_target[s]), all(t == [s] for t, _ in rows)

    def pair(V: List[float], row) -> float:
        # adds the branches in declaration order, as the mat-vec below does
        x = 0.0
        for t, p in zip(*row):
            x += p * V[t]
        return x

    def backup(s: int):
        rows, target, stop = state(s)
        if target:
            return
        if stop:
            L[s] = U[s] = 0.0
            return
        L[s] = max(L[s], max(pair(L, row) for row in rows))
        U[s] = min(U[s], max(pair(U, row) for row in rows))

    groups = []  # (member states, exit rows) of each MEC away from the target
    grouped_at = -1  # size of the explored set `groups` was read from

    def deflate():
        # MECs in id order: one's new upper bound feeds the exits of later ones
        nonlocal groups, grouped_at
        if grouped_at != len(explored):  # explored only grows, so its size names it
            mecs = mec_decompose(mdp, restrict=explored)
            groups = [([], []) for _ in range(mecs.count)]
            states = np.flatnonzero(mecs.mec_of >= 0)
            for s, k in zip(states.tolist(), mecs.mec_of[states].tolist()):
                groups[k][0].append(s)
            rows = np.flatnonzero((mecs.mec_of[v.row_state] >= 0) & ~mecs.internal)
            owner = v.row_state[rows]
            for s, i, k in zip(owner.tolist(), (rows - v.row_start[owner]).tolist(),
                               mecs.mec_of[owner].tolist()):
                groups[k][1].append(state(s)[0][i])
            groups = [groups[k] for k in np.flatnonzero(~mecs.touching(v.is_target))]
            grouped_at = len(explored)
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
        cap = max_steps if max_steps is not None else 10 * len(explored) + 1000
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
        for u in reversed(path):
            backup(u)
        if hit_cap or episodes % 50 == 0:
            deflate()
            for u in reversed(path):
                backup(u)

    seen = np.zeros(mdp.n_states, dtype=bool)
    seen[list(explored)] = True
    first_rows = v.row_start[:-1]
    pair_lower = np.where(seen[v.row_state], v.branches @ np.array(L), 0.0)
    upper = np.minimum(U, np.maximum.reduceat(v.branches @ np.array(U), first_rows))
    open_ = seen & ~v.is_target
    gap = U[s0] - L[s0]
    return ValueApprox(
        pair_lower=pair_lower,
        state_lower=np.where(open_, np.maximum.reduceat(pair_lower, first_rows), L),
        state_upper=np.where(open_, upper, 1.0),
        epsilon=eps, explored=np.flatnonzero(seen),
        gap=gap, engine="brtdp", episodes=episodes)


@dataclass
class ValidityReport:
    """Outcome of checking a ValueApprox against the soundness conditions."""

    lower_bound_ok: bool = True
    initial_gap_ok: bool = True
    bellman_ok: bool = True
    mec_exit_ok: bool = True
    messages: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.lower_bound_ok and self.initial_gap_ok
                and self.bellman_ok and self.mec_exit_ok)


def check_valid(mdp: Mdp, va: ValueApprox, exact: np.ndarray) -> ValidityReport:
    """Check the four conditions a usable underapproximation must satisfy.

    1. every recorded pair value is at most the optimal pair value;
    2. the initial state's value is within eps of optimal;
    3. pair values are consistent: V(s,a) <= sum_t delta(s,a)(t) * V(t);
    4. every end component carrying positive value contains an exiting pair
       whose value matches the component's best pair (otherwise extraction
       could trap the run inside). Components touching the target and
       components with value zero need no exit.
    """
    rep = ValidityReport()
    v = mdp.sparse
    explored = np.zeros(mdp.n_states, dtype=bool)
    explored[va.explored] = True
    recorded = explored[v.row_state]
    pl = va.pair_lower

    def pair(r: int) -> str:
        s = int(v.row_state[r])
        return f"({s},{r - v.row_start[s]})"

    opt = v.branches @ exact
    for r in np.flatnonzero(recorded & (pl > opt + CHECK_TOL)):
        rep.lower_bound_ok = False
        rep.messages.append(
            f"pair {pair(r)}: lower bound {pl[r]:.12g} exceeds optimum {opt[r]:.12g}")

    v0 = va.state_lower[mdp.initial]
    if exact[mdp.initial] - v0 > va.epsilon + CHECK_TOL:
        rep.initial_gap_ok = False
        rep.messages.append(
            f"initial state: optimum {exact[mdp.initial]:.12g} minus bound "
            f"{v0:.12g} exceeds eps={va.epsilon}")

    succ_val = v.branches @ va.state_lower
    for r in np.flatnonzero(recorded & (pl > succ_val + CHECK_TOL)):
        rep.bellman_ok = False
        rep.messages.append(
            f"pair {pair(r)}: value {pl[r]:.12g} above successor combination {succ_val[r]:.12g}")

    mecs = va.mecs if va.mecs is not None else mec_decompose(mdp)
    k_of = mecs.mec_of[v.row_state]
    rows = recorded & (k_of >= 0)
    rows[rows] = ~mecs.touching(v.is_target)[k_of[rows]]
    best = np.full(mecs.count, -np.inf)
    np.maximum.at(best, k_of[rows], pl[rows])
    exits = np.flatnonzero(rows & ~mecs.internal)
    exits = exits[pl[exits] >= best[k_of[exits]] - CHECK_TOL]
    has_exit = np.bincount(k_of[exits], minlength=mecs.count) > 0
    for k in np.flatnonzero((best > CHECK_TOL) & ~has_exit):
        rep.mec_exit_ok = False
        rep.messages.append(
            f"end component {np.flatnonzero(mecs.mec_of == k)[:8].tolist()}: no exiting "
            f"pair matches best value {best[k]:.12g}")
    return rep
