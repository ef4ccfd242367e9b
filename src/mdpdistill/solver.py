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
from typing import Dict, List, Optional

import numpy as np

from .core import (Mdp, MecDecomposition, build_quotient, derive_seed, interval_iterate,
                   mec_decompose)


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
    converged: bool
    gap: float
    engine: str
    episodes: int = 0
    sweeps: int = 0
    mecs: Optional[MecDecomposition] = None


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
        state_lower=np.maximum(np.maximum.reduceat(pair_lower, first_rows), 0.0),
        state_upper=np.maximum(np.maximum.reduceat(pair_upper, first_rows), 0.0),
        epsilon=eps, explored=np.arange(mdp.n_states),
        converged=True, gap=gap, engine="vi", sweeps=sweeps, mecs=mecs)


def _is_sink(mdp: Mdp, s: int) -> bool:
    return all(a.succs == (s,) for a in mdp.actions[s])


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
    leaving the component. Returns partial tables over the explored states,
    with `converged` False if the episode budget ran out first.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    target = mdp.target
    L: Dict[int, float] = {}
    U: Dict[int, float] = {}
    explored = set()
    rng = random.Random(derive_seed(seed, 0))

    def lval(s: int) -> float:
        if s in target:
            return 1.0
        return L.get(s, 0.0)

    def uval(s: int) -> float:
        if s in target:
            return 1.0
        return U.get(s, 1.0)

    def pair_l(s: int, a) -> float:
        return sum(p * lval(t) for t, p in zip(a.succs, a.probs))

    def pair_u(s: int, a) -> float:
        return sum(p * uval(t) for t, p in zip(a.succs, a.probs))

    def backup(s: int):
        if s in target:
            return
        if _is_sink(mdp, s):
            L[s] = 0.0
            U[s] = 0.0
            return
        L[s] = max(lval(s), max(pair_l(s, a) for a in mdp.actions[s]))
        U[s] = min(uval(s), max(pair_u(s, a) for a in mdp.actions[s]))

    def deflate():
        for mec in mec_decompose(mdp, restrict=explored).to_list(mdp):
            if mec.states & target:
                continue
            best = 0.0
            found = False
            for s in mec.states:
                internal = set(mec.actions.get(s, ()))
                for i, a in enumerate(mdp.actions[s]):
                    if i in internal:
                        continue
                    best = max(best, pair_u(s, a))
                    found = True
            cap = best if found else 0.0
            for s in mec.states:
                U[s] = min(uval(s), cap)

    s0 = mdp.initial
    explored.add(s0)
    episodes = 0
    while uval(s0) - lval(s0) >= eps:
        if episodes >= max_episodes:
            break
        episodes += 1
        cap = max_steps if max_steps is not None else 10 * len(explored) + 1000
        path = [s0]
        s = s0
        hit_cap = False
        while True:
            if s in target or _is_sink(mdp, s):
                break
            if len(path) > cap:
                hit_cap = True
                break
            acts = mdp.actions[s]
            vals = [pair_u(s, a) for a in acts]
            best = max(vals)
            cands = [i for i, v in enumerate(vals) if v >= best - 1e-12]
            i = cands[0] if len(cands) == 1 else rng.choice(cands)
            a = acts[i]
            r = rng.random()
            acc = 0.0
            t = a.succs[-1]
            for u, p in zip(a.succs, a.probs):
                acc += p
                if r < acc:
                    t = u
                    break
            path.append(t)
            explored.add(t)
            s = t
        for v in reversed(path):
            backup(v)
        if hit_cap or episodes % 50 == 0:
            deflate()
            for v in reversed(path):
                backup(v)

    view = mdp.sparse
    pair_lower = np.zeros(len(view.row_state))
    state_lower = view.is_target.astype(np.float64)
    state_upper = np.ones(mdp.n_states)
    for s in sorted(explored):
        vals = [pair_l(s, a) for a in mdp.actions[s]]
        pair_lower[view.row_start[s]:view.row_start[s + 1]] = vals
        if s not in target:
            state_lower[s] = max(vals)
            state_upper[s] = min(uval(s), max(pair_u(s, a) for a in mdp.actions[s]))

    gap = uval(s0) - lval(s0)
    return ValueApprox(
        pair_lower=pair_lower, state_lower=state_lower, state_upper=state_upper,
        epsilon=eps, explored=np.array(sorted(explored), dtype=np.int64),
        converged=gap < eps, gap=gap, engine="brtdp", episodes=episodes)


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


def check_valid(mdp: Mdp, va: ValueApprox, exact: np.ndarray,
                tol: float = 1e-9) -> ValidityReport:
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
    for r in np.flatnonzero(recorded & (pl > opt + tol)):
        rep.lower_bound_ok = False
        rep.messages.append(
            f"pair {pair(r)}: lower bound {pl[r]:.12g} exceeds optimum {opt[r]:.12g}")

    v0 = va.state_lower[mdp.initial]
    if exact[mdp.initial] - v0 > va.epsilon + tol:
        rep.initial_gap_ok = False
        rep.messages.append(
            f"initial state: optimum {exact[mdp.initial]:.12g} minus bound "
            f"{v0:.12g} exceeds eps={va.epsilon}")

    succ_val = v.branches @ va.state_lower
    for r in np.flatnonzero(recorded & (pl > succ_val + tol)):
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
    exits = exits[pl[exits] >= best[k_of[exits]] - tol]
    has_exit = np.bincount(k_of[exits], minlength=mecs.count) > 0
    for k in np.flatnonzero((best > tol) & ~has_exit):
        rep.mec_exit_ok = False
        rep.messages.append(
            f"end component {np.flatnonzero(mecs.mec_of == k)[:8].tolist()}: no exiting "
            f"pair matches best value {best[k]:.12g}")
    return rep
