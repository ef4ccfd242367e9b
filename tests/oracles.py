"""Slow reference implementations used to cross-check the real engines.

Everything here trades efficiency for being obviously right: optimal values
by enumerating all deterministic memoryless strategies, end components by
checking every state subset, strategy values on acyclic models by exact
rational path summation. Only usable on tiny models; the tests freeze the
numbers these produce.

`max_reach_exact` (the optimum by interval iteration to a gap of 1e-12),
`exact_importance` (one solve per state), `consulted_dont_care` and
`check_valid` (the four soundness conditions of a `ValueApprox`, with its
`ValidityReport` and `CHECK_TOL`) need the exact optimum or walk one state
at a time, so no command of the tool runs them. `strategy_from_choice` and
`choice_of` turn a `LiberalStrategy` into the {state: local action indices}
dict and back; two strategies play alike when their `choice_of` dicts are
equal. `classify` walks a `DTree` for one valuation.

The per-state loops at the end (`induce_rows`, `reach_rows`,
`evaluate_rows`, `truncate_dict`, `induce_by_classify`, `simulate_rows`,
`learn_masks`, `tarjan`, `mecs_dict`, `quotient_dict`, `brtdp_dict`,
`tables_dict`, `extract_dict`) are the plain-Python forms of the array code
in `core`, `solver`, `strategy`, `importance` and `dtree`. They add in the
same order, so the tests compare against them with `==`. `mec_list` reads a
`MecDecomposition` into the `Mec` objects `mecs_dict` returns, and
`mec_arrays` reads them back.
`exact_importance_cut` is the `exact_importance` that rebuilt the chain
with the row of each state cut to a self-loop before solving for it;
`chain_rows` and `chain_matrix` convert between a chain's CSR matrix and
its per-location (succs, probs) pairs. `interval_iterate_reduceat` is the
sweep loop over R in node-grouped order (`node_grouped`) that
`core.interval_iterate`'s slot-major layout replaced; it keeps the global
stop rule `tol`, which `max_reach_exact` uses.
`encode_set_subsets` is the tuple-subset recursion that `Bdd.encode_set`'s
index ranges replaced. `sweeps_by_split` is the Gauss–Seidel set-up that
re-indexed the unknowns' rows into A and split A with `triu`, `tril` and
`diags`, which the one pass of `core._sweeps` replaced.
`build_dict` is the interpreted build, over `eval_expr`, that the compiled
one in `build` replaced; with `mdp_dict`, `validate_dict` and
`export_dict` it keeps a model as Python tuples. `as_tuples` reads any
model's arrays back into those tuples (valuations, per-state `Action` rows,
target set); the loops here read the model through it.
`training_rows` is the per-row loop `importance.build_training_set`
replaced, and `training_set` turns its `TrainRow`s (or hand-written ones)
into the arrays a `TrainingSet` stores; `rows_of` reads them back.
"""

from __future__ import annotations

import math
import random
import weakref
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mdpdistill.bdd import Bdd
from mdpdistill.core import (_MASK64, TAU, ActionAttr, LiberalStrategy,
                             Mdp, MdpError, MecDecomposition, Quotient,
                             build_quotient, derive_seed, distinct_attrs,
                             induce_chain, mec_decompose,
                             reach_exact, reachable)
from mdpdistill.dtree import (COORD_ACTION, DTree, Leaf, Node, Pred, Split,
                              _prune, _upper_z)
from mdpdistill.expr import (And, Arith, BoolLit, Cmp, Expr, IntLit, MinMax, Neg, Not,
                             Var)
from mdpdistill.importance import Domain, RunStats, TrainingSet
from mdpdistill.lang import ModelAst, ModelError
from mdpdistill.solver import ValueApprox
from mdpdistill.strategy import reachable_under


Rows = Tuple[Tuple[Tuple[int, ...], Tuple[float, ...]], ...]


class Action(NamedTuple):
    """One action row of a state: its attribute and its distribution."""

    attr: ActionAttr
    succs: Tuple[int, ...]
    probs: Tuple[float, ...]


def chain_matrix(rows: Rows) -> sp.csr_matrix:
    """The transition matrix of a chain given as one (succs, probs) pair per
    location, its entries in the order of the pairs."""
    data, ind, indptr = [], [], [0]
    for succs, probs in rows:
        ind.extend(succs)
        data.extend(probs)
        indptr.append(len(ind))
    return sp.csr_matrix((np.array(data, dtype=np.float64), np.array(ind, dtype=np.int64),
                          np.array(indptr, dtype=np.int64)), shape=(len(rows), len(rows)))


def chain_rows(P: sp.csr_matrix) -> Rows:
    """The (succs, probs) pair of every row of a transition matrix, in the
    order of its entries."""
    ptr = P.indptr.tolist()
    ind, data = P.indices.tolist(), P.data.tolist()
    return tuple((tuple(ind[a:b]), tuple(data[a:b])) for a, b in zip(ptr, ptr[1:]))


# --------------------------------------------------------------------------
# A strategy as a dict and a tree walked one valuation at a time: the views
# the array code needs neither of.

def strategy_from_choice(mdp: Mdp, choice: Dict[int, FrozenSet[int]]) -> LiberalStrategy:
    """The strategy choosing local action indices `choice[s]` at each key s."""
    states = np.fromiter(choice, np.int64, len(choice))
    sizes = np.fromiter(map(len, choice.values()), np.int64, len(choice))
    local = np.fromiter((i for acts in choice.values() for i in acts), np.int64,
                        int(sizes.sum()))
    owner = np.repeat(states, sizes)
    if np.any((local < 0) | (local >= np.diff(mdp.row_start)[owner])):
        raise MdpError("strategy chooses an action index out of range")
    defined = np.zeros(mdp.n_states, dtype=bool)
    defined[states] = True
    selected = np.zeros(len(mdp.row_state), dtype=bool)
    selected[mdp.row_start[owner] + local] = True
    return LiberalStrategy(mdp, selected, defined)


def choice_of(strategy: LiberalStrategy) -> Dict[int, FrozenSet[int]]:
    """The strategy's map as a dict: each defined state's local action indices.
    Two strategies of one model play alike exactly when these are equal."""
    rows = np.flatnonzero(strategy.rows & strategy.defined[strategy.mdp.row_state])
    owner = strategy.mdp.row_state[rows]
    picked: Dict[int, List[int]] = {s: [] for s in np.flatnonzero(strategy.defined).tolist()}
    for s, i in zip(owner.tolist(), (rows - strategy.mdp.row_start[owner]).tolist()):
        picked[s].append(i)
    return {s: frozenset(acts) for s, acts in picked.items()}


def classify(tree: DTree, x: Sequence[int], attr: Optional[ActionAttr] = None) -> bool:
    """The label `tree` gives valuation `x` with action attribute `attr`,
    one test at a time; an action or module test fails without an attribute."""
    node = tree.root
    while isinstance(node, Split):
        p = node.pred
        if p.kind == "le":
            yes = x[p.coord] <= p.k
        elif attr is None:
            yes = False
        else:
            yes = (attr.name if p.kind == COORD_ACTION else attr.module) == p.k
        node = node.yes if yes else node.no
    return node.good


def actions_of(mdp: Mdp, strategy: LiberalStrategy) -> List[Tuple[int, ...]]:
    """Per state, the sorted local action indices the strategy plays: its
    choice where defined, every action elsewhere."""
    dm = as_tuples(mdp)
    choice = choice_of(strategy)
    return [tuple(sorted(choice[s])) if s in choice else tuple(range(len(dm.actions[s])))
            for s in range(mdp.n_states)]


# --------------------------------------------------------------------------
# Exact oracles: the optimum, exact importance, and the checks that read a
# result against them.

def max_reach_exact(mdp: Mdp, *, tol: float = 1e-12) -> np.ndarray:
    """Optimal reachability values Val(s), certified to a U-L gap below tol.

    Interval iteration on the MEC quotient (`interval_iterate_reduceat`, not
    the engine's sweep); both bounds converge there since collapsing MECs
    removes every end component.
    """
    if not mdp.is_target.any():
        return np.zeros(mdp.n_states)
    mecs = mec_decompose(mdp)
    q = build_quotient(mdp, mecs)
    L, U, _ = interval_iterate_reduceat(q, tol=tol)
    vals = (L + U) / 2.0
    np.clip(vals, 0.0, 1.0, out=vals)
    return vals[q.node_of]


def exact_importance(mdp: Mdp, strategy: LiberalStrategy) -> np.ndarray:
    """P[visit s | target reached] in the induced chain, by linear algebra.

    The visit probability factors at the first visit: reach s, then reach
    the target from s. Both factors are plain reachability problems in the
    induced chain; the first one, with s as the target, never reads the
    row of s, so the chain needs no cut there.
    """
    P = induce_chain(strategy)
    b = reach_exact(P, np.flatnonzero(mdp.is_target))
    if b[mdp.initial] <= 0.0:
        raise MdpError("strategy cannot reach the target; importance undefined")
    imp = np.zeros(mdp.n_states)
    for s in np.flatnonzero(b != 0.0).tolist():
        imp[s] = reach_exact(P, [s])[mdp.initial] * b[s] / b[mdp.initial]
    return np.clip(imp, 0.0, 1.0)


def consulted_dont_care(mdp: Mdp, strategy: LiberalStrategy) -> List[int]:
    """Reachable states the strategy leaves open (resolved uniformly)."""
    states = np.array(reachable_under(mdp, strategy), dtype=np.int64)
    return states[~strategy.defined[states] & ~mdp.is_target[states]].tolist()


CHECK_TOL = 1e-9  # rounding slack each of check_valid's comparisons allows


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
       could trap the run inside). Components holding the target and
       components with value zero need no exit.
    """
    rep = ValidityReport()
    explored = np.zeros(mdp.n_states, dtype=bool)
    explored[va.explored] = True
    recorded = explored[mdp.row_state]
    pl = va.pair_lower

    def pair(r: int) -> str:
        s = int(mdp.row_state[r])
        return f"({s},{r - mdp.row_start[s]})"

    opt = mdp.branches @ exact
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

    succ_val = mdp.branches @ va.state_lower
    for r in np.flatnonzero(recorded & (pl > succ_val + CHECK_TOL)):
        rep.bellman_ok = False
        rep.messages.append(
            f"pair {pair(r)}: value {pl[r]:.12g} above successor combination {succ_val[r]:.12g}")

    mecs = va.mecs
    k_of = mecs.mec_of[mdp.row_state]
    rows = recorded & (k_of >= 0) & ~mdp.is_target[mdp.row_state]
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


def brute_val(mdp: Mdp, limit: int = 12) -> np.ndarray:
    """Optimal reachability values by trying every deterministic strategy."""
    n = mdp.n_states
    if n > limit:
        raise MdpError(f"brute force capped at {limit} states")
    dm = as_tuples(mdp)
    best = np.zeros(n)
    ranges = [range(len(dm.actions[s])) for s in range(n)]
    for pick in product(*ranges):
        rows = []
        for s in range(n):
            a = dm.actions[s][pick[s]]
            rows.append((a.succs, a.probs))
        np.maximum(best, reach_exact(chain_matrix(rows), dm.target), out=best)
    return best


def brute_mecs(mdp: Mdp, limit: int = 15) -> List[Tuple[FrozenSet[int], Dict[int, Tuple[int, ...]]]]:
    """Maximal end components by checking every non-empty state subset."""
    n = mdp.n_states
    if n > limit:
        raise MdpError(f"brute force capped at {limit} states")
    dm = as_tuples(mdp)

    def staying(T: FrozenSet[int], s: int) -> Tuple[int, ...]:
        return tuple(i for i, a in enumerate(dm.actions[s])
                     if all(t in T for t in a.succs))

    def is_ec(T: FrozenSet[int]) -> bool:
        acts = {s: staying(T, s) for s in T}
        if any(not acts[s] for s in T):
            return False
        # strong connectivity over the kept actions
        for src in T:
            seen = {src}
            queue = [src]
            while queue:
                s = queue.pop()
                for i in acts[s]:
                    for t in dm.actions[s][i].succs:
                        if t not in seen:
                            seen.add(t)
                            queue.append(t)
            if seen != T:
                return False
        return True

    ecs = []
    states = list(range(n))
    for bits in range(1, 1 << n):
        T = frozenset(states[k] for k in range(n) if bits >> k & 1)
        if is_ec(T):
            ecs.append(T)
    maximal = [T for T in ecs if not any(T < S for S in ecs)]
    maximal.sort(key=min)
    return [(T, {s: staying(T, s) for s in sorted(T)}) for T in maximal]


def acyclic_value(mdp: Mdp, strategy: LiberalStrategy) -> Fraction:
    """Exact value of a strategy when the induced chain has no cycles
    except the absorbing self-loops; pure rational arithmetic."""
    dm = as_tuples(mdp)
    rows = chain_rows(induce_chain(strategy))
    played = actions_of(mdp, strategy)
    memo: Dict[int, Fraction] = {}
    on_path: set = set()

    def value(s: int) -> Fraction:
        if s in dm.target:
            return Fraction(1)
        succs, probs = rows[s]
        if succs == (s,):
            return Fraction(0)
        if s in memo:
            return memo[s]
        if s in on_path:
            raise MdpError("induced chain has a proper cycle; oracle misused")
        on_path.add(s)
        # rebuild branch probabilities as exact rationals
        idxs = played[s]
        w = Fraction(1, len(idxs))
        total = Fraction(0)
        for i in idxs:
            a = dm.actions[s][i]
            for t, p in zip(a.succs, a.probs):
                if t == s:
                    raise MdpError("induced chain has a proper cycle; oracle misused")
                total += w * Fraction(p).limit_denominator(10 ** 12) * value(t)
        on_path.discard(s)
        memo[s] = total
        return total

    return value(mdp.initial)


def horizon_importance(mdp: Mdp, strategy: LiberalStrategy, s: int,
                       horizon: int = 4000) -> Tuple[float, float]:
    """Bounds on P[visit s | reach target] by forward probability pushing.

    Tracks the distribution over (location, s seen yet) for `horizon` steps
    and reads off P[in target and s seen] / P[in target]. Returns the
    estimate and a slack term: the probability mass not yet absorbed in the
    target or the target's complement-forever part, which bounds how far the
    truth can still move. No linear solver involved.
    """
    dm = as_tuples(mdp)
    rows = chain_rows(induce_chain(strategy))
    n = len(rows)
    dist = np.zeros((n, 2))
    dist[mdp.initial, 1 if s == mdp.initial else 0] = 1.0
    absorbed = [t for t in range(n) if rows[t][0] == (t,)]
    for _ in range(horizon):
        nxt = np.zeros_like(dist)
        for u in range(n):
            for flag in (0, 1):
                p = dist[u, flag]
                if p == 0.0:
                    continue
                if u in dm.target or rows[u][0] == (u,):
                    nxt[u, flag] += p
                    continue
                for v, q in zip(*rows[u]):
                    nxt[v, 1 if (flag or v == s) else flag] += p * q
        dist = nxt
    hit_and_seen = sum(dist[t, 1] for t in dm.target)
    hit = sum(dist[t, 0] + dist[t, 1] for t in dm.target)
    settled = sum(dist[t, 0] + dist[t, 1] for t in absorbed)
    slack = 1.0 - settled
    if hit <= 0.0:
        raise MdpError("no mass reached the target within the horizon")
    return hit_and_seen / hit, slack



# --------------------------------------------------------------------------
# Per-state reference loops for the accept probe.


def induce_rows(mdp: Mdp, strategy: LiberalStrategy) -> Rows:
    """Induced chain as (succs, probs) per state, summed in a dict per state."""
    dm = as_tuples(mdp)
    rows = []
    for s, idxs in enumerate(actions_of(mdp, strategy)):
        if not idxs:
            raise MdpError(f"strategy defines an empty action set at state {s}")
        w = 1.0 / len(idxs)
        mass: Dict[int, float] = {}
        for i in idxs:
            a = dm.actions[s][i]
            for t, p in zip(a.succs, a.probs):
                mass[t] = mass.get(t, 0.0) + w * p
        succs = tuple(sorted(mass))
        rows.append((succs, tuple(mass[t] for t in succs)))
    return tuple(rows)


def _search(succ: Sequence[Sequence[int]], sources) -> List[bool]:
    seen = [False] * len(succ)
    stack = list(sources)
    for u in stack:
        seen[u] = True
    while stack:
        u = stack.pop()
        for v in succ[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


def reach_rows(rows: Rows, targets) -> np.ndarray:
    """Reachability values of a chain given as rows, by one direct solve of
    diag(off) - A, off each row's mass off its own location, in `reach_exact`'s
    order and without pivoting."""
    n = len(rows)
    targets = set(targets)
    vals = np.zeros(n)
    for t in targets:
        vals[t] = 1.0
    if not targets:
        return vals
    pred: List[List[int]] = [[] for _ in rows]
    for u, (succs, _) in enumerate(rows):
        for v in succs:
            pred[v].append(u)
    mask = _search(pred, targets)
    unknown = [s for s in range(n) if mask[s] and s not in targets]
    if not unknown:
        return vals
    pos = {s: k for k, s in enumerate(unknown)}
    m = len(unknown)
    data, ind, indptr = [], [], [0]
    b = np.zeros(m)
    for s in unknown:
        # the diagonal is the row's mass on its other branches, added in row order
        off = 0.0
        for t, p in zip(*rows[s]):
            if t != s:
                off += p
            if t in targets:
                b[pos[s]] += p
            elif t in pos and t != s:
                ind.append(pos[t])
                data.append(-p)
        ind.append(pos[s])
        data.append(off)
        indptr.append(len(ind))
    M = sp.csr_matrix((data, ind, indptr), shape=(m, m)).tocsc()
    lu = spla.splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                   options=dict(SymmetricMode=True))
    x = np.clip(lu.solve(b), 0.0, 1.0)
    for s in unknown:
        vals[s] = x[pos[s]]
    return vals


def evaluate_rows(mdp: Mdp, strategy: LiberalStrategy) -> float:
    """Strategy value from the initial state, solved on the reachable states."""
    dm = as_tuples(mdp)
    rows = induce_rows(mdp, strategy)
    seen = _search([succs for succs, _ in rows], [mdp.initial])
    reach = [s for s in range(mdp.n_states) if seen[s]]
    pos = {s: k for k, s in enumerate(reach)}
    sub = tuple((tuple(pos[t] for t in rows[s][0]), rows[s][1]) for s in reach)
    vals = reach_rows(sub, [pos[s] for s in reach if s in dm.target])
    return float(vals[pos[mdp.initial]])


def exact_importance_cut(mdp: Mdp, strategy: LiberalStrategy) -> np.ndarray:
    """`exact_importance` with the chain cut at each state: for
    P[reach s], the row of s is replaced by a self-loop first."""
    dm = as_tuples(mdp)
    rows = chain_rows(induce_chain(strategy))
    b = reach_exact(chain_matrix(rows), dm.target)
    if b[mdp.initial] <= 0.0:
        raise MdpError("strategy cannot reach the target; importance undefined")
    imp = np.zeros(mdp.n_states)
    for s in range(mdp.n_states):
        if b[s] == 0.0:
            continue
        cut = list(rows)
        cut[s] = ((s,), (1.0,))
        a = reach_exact(chain_matrix(tuple(cut)), [s])
        imp[s] = a[mdp.initial] * b[s] / b[mdp.initial]
    return np.clip(imp, 0.0, 1.0)


def truncate_dict(strategy: LiberalStrategy, weights, delta: float = 0.0,
                  mode: str = "keep-all") -> LiberalStrategy:
    """`strategy.truncate`, one state of the `choice_of` dict at a time."""
    if mode not in ("keep-all", "keep-argmax"):
        raise ValueError(f"unknown truncation mode {mode!r}")
    kept: Dict[int, FrozenSet[int]] = {}
    for s, acts in choice_of(strategy).items():
        if weights[s] > delta:
            kept[s] = frozenset({min(acts)}) if mode == "keep-argmax" else acts
    return strategy_from_choice(strategy.mdp, kept)


def induce_by_classify(mdp: Mdp, tree) -> Tuple[Dict[int, FrozenSet[int]], List[int]]:
    """The choice dict, as `choice_of` reads it, and the fallback states of
    a tree, one `classify` call per action."""
    dm = as_tuples(mdp)
    choice = {}
    fallback: List[int] = []
    for s in range(mdp.n_states):
        if s in dm.target:
            continue
        keep = frozenset(i for i, a in enumerate(dm.actions[s])
                         if classify(tree, dm.states[s], a.attr))
        if keep:
            choice[s] = keep
        else:
            fallback.append(s)
    return choice, fallback


def simulate_rows(mdp: Mdp, strategy: LiberalStrategy, runs: int, *, seed: int = 0,
                  max_steps: int = 1_000_000, first_run: int = 0) -> RunStats:
    """`importance.simulate`, one run after another with a visit dict per run."""
    dm = as_tuples(mdp)
    P = induce_chain(strategy)
    can = list(reachable(P.T, dm.target))
    stats = RunStats(mdp.n_states, total_runs=runs, max_steps=max_steps)
    cond_count = [0] * mdp.n_states
    cond_mult = [0] * mdp.n_states
    all_count = [0] * mdp.n_states
    all_mult = [0] * mdp.n_states
    rows, target, initial = chain_rows(P), dm.target, mdp.initial
    mask, norm = _MASK64, 2.0 ** -53
    for r in range(runs):
        ctr = derive_seed(seed, first_run + r)
        visits: Dict[int, int] = {}
        s = initial
        visits[s] = 1
        hit = s in target
        steps = 0
        while not hit and can[s] and steps < max_steps:
            succs, probs = rows[s]
            ctr = (ctr + 0x9E3779B97F4A7C15) & mask
            z = ((ctr ^ (ctr >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            x = ((z ^ (z >> 31)) >> 11) * norm
            acc = 0.0
            t = succs[-1]
            for u, p in zip(succs, probs):
                acc += p
                if x < acc:
                    t = u
                    break
            s = t
            visits[s] = visits.get(s, 0) + 1
            hit = s in target
            steps += 1
        if hit:
            stats.target_runs += 1
        elif can[s]:
            stats.truncated_runs += 1
        for v, m in visits.items():
            all_count[v] += 1
            all_mult[v] += m
            if hit:
                cond_count[v] += 1
                cond_mult[v] += m
    stats.visited_cond_count += np.asarray(cond_count, dtype=np.int64)
    stats.visited_cond_mult += np.asarray(cond_mult, dtype=np.int64)
    stats.visited_all_count += np.asarray(all_count, dtype=np.int64)
    stats.visited_all_mult += np.asarray(all_mult, dtype=np.int64)
    return stats


def _entropy(wg: float, wb: float) -> float:
    n = wg + wb
    if n <= 0 or wg <= 0 or wb <= 0:
        return 0.0
    pg, pb = wg / n, wb / n
    return -(pg * math.log2(pg) + pb * math.log2(pb))


def _coord_key(p: Pred, domain: Domain) -> Tuple[int, int, int]:
    if p.kind == "le":
        return (p.coord, 0, int(p.k))
    if p.kind == COORD_ACTION:
        return (domain.n_vars, 1, domain.action_index(p.k))
    return (domain.n_vars + 1, 1, int(p.k))


class TrainRow(NamedTuple):
    """One training example: a valuation, an action attribute or None, its
    label and its repeat count."""

    x: Tuple[int, ...]
    attr: Optional[ActionAttr]
    good: bool
    weight: int = 1


def training_set(domain: Domain, rows: Sequence[TrainRow]) -> TrainingSet:
    """The arrays of a TrainingSet over `domain` holding `rows` in order."""
    feats = [tuple(r.x) + ((domain.action_index(r.attr.name), r.attr.module)
                           if r.attr is not None else (-1, -1)) for r in rows]
    feats = np.array(feats, dtype=np.int64).reshape(len(rows), domain.n_vars + 2)
    return TrainingSet(domain, feats, np.array([r.good for r in rows], dtype=bool),
                       np.array([r.weight for r in rows], dtype=np.int64))


def rows_of(ts: TrainingSet) -> List[TrainRow]:
    """The rows of a TrainingSet as `TrainRow`s: the inverse of `training_set`."""
    nv, names = ts.domain.n_vars, ts.domain.action_names
    return [TrainRow(tuple(f[:nv]), ActionAttr(names[f[nv]], f[nv + 1]) if f[nv] >= 0 else None,
                     g, w)
            for f, g, w in zip(ts.rows.tolist(), ts.good.tolist(), ts.weight.tolist())]


def training_rows(mdp: Mdp, strategy: LiberalStrategy, weights, *, mode: str = "repeat",
                  runs: int = 1, delta: float = 0.0) -> List[TrainRow]:
    """`importance.build_training_set`, one row of one state at a time."""
    if mode not in ("repeat", "once"):
        raise ValueError(f"unknown training mode {mode!r}")
    kept = ~mdp.is_target & ~(np.asarray(weights) <= delta)
    state, action, module, good = distinct_attrs(mdp, kept, strategy.rows)
    names, vals = mdp.action_names, mdp.valuation
    rows: List[TrainRow] = []
    last = -1
    for s, a, m, g in zip(state.tolist(), action.tolist(), module.tolist(), good.tolist()):
        if s != last:
            x = tuple(vals[s].tolist())
            repeat = 1 if mode == "once" else max(1, int(runs * float(weights[s]) + 0.5))
            last = s
        rows.append(TrainRow(x, ActionAttr(names[a], m), g, repeat))
    return rows


def learn_masks(ts: TrainingSet, *, min_leaf: float = 1.0, confidence: float = 0.25,
                prune: bool = True) -> DTree:
    """`dtree.learn`, one boolean mask per candidate split."""
    if not len(ts.rows):
        return DTree(Leaf(True), ts.domain)
    domain = ts.domain
    nv = domain.n_vars
    m = len(ts.rows)
    X, act, mod = ts.rows[:, :nv], ts.rows[:, nv], ts.rows[:, nv + 1]
    y, w = ts.good, ts.weight.astype(np.float64)

    def masked(p: Pred, idx: np.ndarray) -> np.ndarray:
        if p.kind == "le":
            return X[idx, p.coord] <= p.k
        if p.kind == COORD_ACTION:
            return act[idx] == domain.action_index(p.k)
        return mod[idx] == p.k

    def candidates(idx: np.ndarray) -> List[Pred]:
        out: List[Pred] = []
        for j in range(nv):
            vals = np.unique(X[idx, j])
            for a, b in zip(vals, vals[1:]):
                out.append(Pred("le", j, int((int(a) + int(b)) // 2)))
        names = sorted({int(v) for v in np.unique(act[idx]) if v >= 0})
        out.extend(Pred(COORD_ACTION, 0, domain.action_names[v]) for v in names)
        mods = sorted({int(v) for v in np.unique(mod[idx]) if v >= 0})
        out.extend(Pred("module", 0, v) for v in mods)
        return out

    def grow(idx: np.ndarray) -> Node:
        wg = float(w[idx][y[idx]].sum())
        wb = float(w[idx][~y[idx]].sum())
        total = wg + wb
        majority = wg >= wb
        err = min(wg, wb)
        if wg == 0.0 or wb == 0.0:
            return Leaf(majority, total, err)
        parent_h = _entropy(wg, wb)
        best: Optional[Tuple[float, Tuple[int, int, int], Pred, np.ndarray]] = None
        for p in candidates(idx):
            mask = masked(p, idx)
            wl = float(w[idx][mask].sum())
            wr = total - wl
            if wl < min_leaf or wr < min_leaf:
                continue
            wlg = float(w[idx][mask & y[idx]].sum())
            wrg = wg - wlg
            gain = parent_h - (wl * _entropy(wlg, wl - wlg)
                               + wr * _entropy(wrg, wr - wrg)) / total
            if gain <= 1e-12:
                continue
            key = _coord_key(p, domain)
            if best is None or gain > best[0] + 1e-12 or (
                    abs(gain - best[0]) <= 1e-12 and key < best[1]):
                best = (gain, key, p, mask)
        if best is None:
            for p in sorted(candidates(idx),
                            key=lambda c: _coord_key(c, domain)):
                mask = masked(p, idx)
                wl = float(w[idx][mask].sum())
                if wl < min_leaf or total - wl < min_leaf:
                    continue
                if not mask.any() or mask.all():
                    continue
                return Split(p, grow(idx[mask]), grow(idx[~mask]), majority, total, err)
            return Leaf(majority, total, err)
        _, _, p, mask = best
        return Split(p, grow(idx[mask]), grow(idx[~mask]), majority, total, err)

    root = grow(np.arange(m))
    if prune:
        root, _ = _prune(root, _upper_z(confidence))
    return DTree(root, domain)


# --------------------------------------------------------------------------
# Per-state reference loops for the solver: MECs, quotient, pair tables and
# extraction, as dicts over the `Action` tuples of `as_tuples`.

def tarjan(n: int, succ: Sequence[Sequence[int]]) -> List[List[int]]:
    """Strongly connected components by iterative Tarjan."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    sccs: List[List[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for j in range(pi, len(succ[v])):
                w = succ[v][j]
                if index[w] == -1:
                    work[-1] = (v, j + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return sccs


@dataclass
class Mec:
    """Maximal end component: states plus, per state, its internal actions."""

    states: FrozenSet[int]
    actions: Dict[int, Tuple[int, ...]]  # state -> local action indices of s

    def __post_init__(self):
        self.states = frozenset(self.states)


def mec_list(mecs: MecDecomposition, mdp: Mdp) -> List[Mec]:
    """The MECs of a `core.MecDecomposition` as `Mec` objects, in id order."""
    members: List[List[int]] = [[] for _ in range(mecs.count)]
    for s in np.flatnonzero(mecs.mec_of >= 0).tolist():
        members[mecs.mec_of[s]].append(s)
    rows = np.flatnonzero(mecs.internal)
    owner = mdp.row_state[rows]
    acts: Dict[int, List[int]] = {}
    for s, i in zip(owner.tolist(), (rows - mdp.row_start[owner]).tolist()):
        acts.setdefault(s, []).append(i)
    return [Mec(frozenset(m), {s: tuple(acts[s]) for s in m}) for m in members]


def mec_arrays(mdp: Mdp, mecs: List[Mec]) -> MecDecomposition:
    """The inverse of `mec_list`: `Mec` objects in id order as arrays."""
    mec_of = np.full(mdp.n_states, -1, dtype=np.int64)
    internal = np.zeros(len(mdp.row_state), dtype=bool)
    for k, mec in enumerate(mecs):
        for s, acts in mec.actions.items():
            mec_of[s] = k
            internal[[mdp.row_start[s] + i for i in acts]] = True
    return MecDecomposition(mec_of, internal, len(mecs))


def mecs_dict(mdp: Mdp, restrict: Optional[FrozenSet[int]] = None) -> List[Mec]:
    """`core.mec_decompose` as a work list of candidate state sets."""
    dm = as_tuples(mdp)
    if restrict is None:
        universe = list(range(mdp.n_states))
    else:
        universe = sorted(restrict)
    work = [universe]
    mecs: List[Mec] = []
    while work:
        cand = work.pop()
        members = set(cand)
        # prune to the sub-MDP fully inside `members`
        acts: Dict[int, List[int]] = {}
        changed = True
        while changed:
            changed = False
            for s in list(members):
                keep = [i for i, a in enumerate(dm.actions[s])
                        if all(t in members for t in a.succs)]
                acts[s] = keep
                if not keep:
                    members.discard(s)
                    changed = True
        if not members:
            continue
        order = sorted(members)
        pos = {s: k for k, s in enumerate(order)}
        succ = [[] for _ in order]
        for s in order:
            nbrs = set()
            for i in acts[s]:
                nbrs.update(dm.actions[s][i].succs)
            succ[pos[s]] = sorted(pos[t] for t in nbrs)
        comps = tarjan(len(order), succ)
        if len(comps) == 1 and len(comps[0]) == len(order):
            mecs.append(Mec(frozenset(order), {s: tuple(acts[s]) for s in order}))
        else:
            for comp in comps:
                sub = [order[k] for k in comp]
                # singleton without a self-looping action can never be an EC
                if len(sub) == 1:
                    s = sub[0]
                    if not any(all(t == s for t in dm.actions[s][i].succs) for i in acts[s]):
                        continue
                work.append(sub)
    mecs.sort(key=lambda m: min(m.states))
    return mecs


def quotient_dict(mdp: Mdp, mecs: List[Mec]) -> Quotient:
    """`core.build_quotient` with a successor dict per row."""
    dm = as_tuples(mdp)
    n = mdp.n_states
    node_of = np.full(n, -1, dtype=np.int64)
    mec_of: Dict[int, int] = {}
    for k, mec in enumerate(mecs):
        for s in mec.states:
            mec_of[s] = k
    nxt = 0
    mec_node = [-1] * len(mecs)
    for s in range(n):
        if s in mec_of:
            k = mec_of[s]
            if mec_node[k] == -1:
                mec_node[k] = nxt
                nxt += 1
            node_of[s] = mec_node[k]
        else:
            node_of[s] = nxt
            nxt += 1
    q = nxt

    target_nodes = np.zeros(q, dtype=bool)
    for t in dm.target:
        target_nodes[node_of[t]] = True

    rows_by_node: List[List[Tuple[Tuple[int, ...], Tuple[float, ...]]]] = [[] for _ in range(q)]
    for s in range(n):
        in_mec = s in mec_of
        mec = mecs[mec_of[s]] if in_mec else None
        for i, a in enumerate(dm.actions[s]):
            if in_mec and all(t in mec.states for t in a.succs):
                continue
            mass: Dict[int, float] = {}
            for t, p in zip(a.succs, a.probs):
                u = int(node_of[t])
                mass[u] = mass.get(u, 0.0) + p
            succs = tuple(sorted(mass))
            rows_by_node[node_of[s]].append((succs, tuple(mass[u] for u in succs)))

    owners = [u for u in range(q) if rows_by_node[u] and not target_nodes[u]]
    # sweep order: nodes with rows by descending row count, then by number,
    # then the rest by number
    nodes = sorted(owners, key=lambda u: (-len(rows_by_node[u]), u))
    order = nodes + [u for u in range(q) if u not in nodes]
    new = {u: i for i, u in enumerate(order)}
    # slot-major: the j-th row of every node with more than j rows; a row's
    # entries keep the order of their nodes before the renumbering
    data, ind, indptr, bounds = [], [], [0], [0]
    for j in range(len(rows_by_node[nodes[0]]) if nodes else 0):
        for u in nodes:
            if j < len(rows_by_node[u]):
                succs, probs = rows_by_node[u][j]
                ind.extend(new[t] for t in succs)
                data.extend(probs)
                indptr.append(len(ind))
        bounds.append(len(indptr) - 1)
    R = sp.csr_matrix((data, ind, indptr), shape=(len(indptr) - 1, q))
    pred: List[List[int]] = [[] for _ in range(q)]
    for u in owners:
        for succs, _ in rows_by_node[u]:
            for t in succs:
                pred[t].append(u)
    reach = _search(pred, np.flatnonzero(target_nodes).tolist())
    return Quotient(
        num_nodes=q, node_of=np.array([new[u] for u in node_of.tolist()], dtype=np.int64),
        R=R, bounds=np.array(bounds, dtype=np.int64), target_nodes=target_nodes[order],
        zero_nodes=~np.array(reach, dtype=bool)[order])


def node_grouped(q: Quotient) -> Tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """The rows of a slot-major quotient grouped by owner node, nodes in
    order and each node's rows in slot order. Returns that R, the offset of
    each group and the nodes with rows. The k-th row of a slot block is
    node k's, since the nodes with rows come first in the numbering."""
    rows_of: Dict[int, List[int]] = {}
    bounds = q.bounds.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        for k, r in enumerate(range(lo, hi)):
            rows_of.setdefault(k, []).append(r)
    owners = sorted(rows_of)
    perm = [r for u in owners for r in rows_of[u]]
    starts = np.cumsum([0] + [len(rows_of[u]) for u in owners])[:-1]
    return (q.R[np.array(perm, dtype=np.int64)], starts.astype(np.int64),
            np.array(owners, dtype=np.int64))


def interval_iterate_reduceat(q: Quotient, *, eps: Optional[float] = None,
                              stop_node: Optional[int] = None, tol: Optional[float] = None,
                              max_sweeps: int = 5_000_000) -> Tuple[np.ndarray, np.ndarray, int]:
    """`core.interval_iterate`, each node's best row taken by `np.maximum.reduceat`
    over R in its node-grouped order (`node_grouped`). It sets U to 0 on the
    nodes without rows apart from the targets, not only on `zero_nodes`, so
    the tests also check that the zero set holds them all. Given `tol` in
    place of `eps` and `stop_node`, it stops once U-L is below tol at every
    node, as `max_reach_exact` needs."""
    R, starts, nw = node_grouped(q)
    has_rows = np.zeros(q.num_nodes, dtype=bool)
    has_rows[nw] = True
    L = np.zeros(q.num_nodes)
    L[q.target_nodes] = 1.0
    U = np.ones(q.num_nodes)
    U[q.zero_nodes] = 0.0
    U[q.target_nodes] = 1.0
    U[~has_rows & ~q.target_nodes] = 0.0

    def done():
        if stop_node is not None and eps is not None:
            return U[stop_node] - L[stop_node] < eps
        return np.max(U - L) < tol

    sweeps = 0
    while not done():
        if sweeps >= max_sweeps:
            raise MdpError("interval iteration exceeded sweep budget")
        Lr = R.dot(L)
        Ur = R.dot(U)
        L = L.copy()
        U = U.copy()
        L[nw] = np.maximum(L[nw], np.maximum.reduceat(Lr, starts))
        U[nw] = np.minimum(U[nw], np.maximum.reduceat(Ur, starts))
        sweeps += 1
    return L, U, sweeps


def sweeps_by_split(P: sp.csr_matrix, is_target: np.ndarray, states: np.ndarray):
    """`core._sweeps(P, is_target, states, ones)`: A over `states` from the
    re-indexed rows, then its strict upper part and the diagonal of
    off-location masses less its strict lower part, as scipy splits them."""
    m = len(states)
    rows = P[states]
    owner = np.repeat(np.arange(m), np.diff(rows.indptr))
    pos = np.full(P.shape[0], -1)
    pos[states] = np.arange(m)
    col = pos[rows.indices]
    hit, keep = is_target[rows.indices], col >= 0
    b = np.bincount(owner[hit], weights=rows.data[hit], minlength=m)
    A = sp.csr_matrix(
        (rows.data[keep], col[keep],
         np.concatenate(([0], np.cumsum(np.bincount(owner[keep], minlength=m))))),
        shape=(m, m))
    off = col != owner
    off = np.bincount(owner[off], weights=rows.data[off], minlength=m)
    X = np.asfortranarray(np.column_stack((b, np.ones(m))))
    yield X
    upper = sp.triu(A, 1, format="csr")
    lu = spla.splu((sp.diags(off) - sp.tril(A, -1)).tocsc(),
                   permc_spec="NATURAL", diag_pivot_thresh=0)
    rhs = np.empty_like(X)
    while True:
        for j in range(2):
            np.add(upper @ X[:, j], b, out=rhs[:, j])
        X = lu.solve(rhs)
        yield X


def encode_set_subsets(bdd: Bdd, items) -> int:
    """`Bdd.encode_set` as a recursion over tuples of the strings, split
    by filtering at each node, with a memo on (depth, subset)."""
    strings = sorted(set(items))
    for s in strings:
        if len(s) != bdd.n_bits:
            raise ValueError("bit string width does not match the layout")
    memo: Dict[Tuple[int, Tuple[Tuple[int, ...], ...]], int] = {}

    def build(depth: int, subset: Tuple[Tuple[int, ...], ...]) -> int:
        if not subset:
            return bdd.FALSE
        if depth == bdd.n_bits:
            return bdd.TRUE
        key = (depth, subset)
        got = memo.get(key)
        if got is not None:
            return got
        zeros = tuple(s for s in subset if s[depth] == 0)
        ones = tuple(s for s in subset if s[depth] == 1)
        nid = bdd.node(depth, build(depth + 1, zeros), build(depth + 1, ones))
        memo[key] = nid
        return nid

    return build(0, tuple(strings))


def _is_sink(mdp: Mdp, s: int) -> bool:
    dm = as_tuples(mdp)
    return all(a.succs == (s,) for a in dm.actions[s])


def brtdp_dict(mdp: Mdp, eps: float, *, seed: int = 0,
               max_steps: Optional[int] = None,
               max_episodes: int = 100_000) -> ValueApprox:
    """`solver.brtdp` over dict bounds and the `Action` tuples of each state.

    The same episodes, random draws, backups and deflations, with `mecs_dict`
    in place of `mec_decompose`; every float is added in the same order.
    """
    dm = as_tuples(mdp)
    if eps <= 0:
        raise ValueError("eps must be positive")
    target = dm.target
    L: Dict[int, float] = {}
    U: Dict[int, float] = {}
    explored = set()
    rng = random.Random(derive_seed(seed, 0))
    backups = deflations = 0

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
        nonlocal backups
        backups += 1
        if s in target:
            return
        if _is_sink(mdp, s):
            L[s] = 0.0
            U[s] = 0.0
            return
        L[s] = max(lval(s), max(pair_l(s, a) for a in dm.actions[s]))
        U[s] = min(uval(s), max(pair_u(s, a) for a in dm.actions[s]))

    def deflate():
        nonlocal deflations
        deflations += 1
        for mec in mecs_dict(mdp, restrict=explored):
            if mec.states & target:
                continue
            best = 0.0
            found = False
            for s in mec.states:
                internal = set(mec.actions.get(s, ()))
                for i, a in enumerate(dm.actions[s]):
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
        cap = max_steps if max_steps is not None else 2 * len(explored) + 10
        path = [s0]
        s = s0
        hit_cap = False
        while True:
            if s in target or _is_sink(mdp, s):
                break
            if len(path) > cap:
                hit_cap = True
                break
            acts = dm.actions[s]
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
        if hit_cap:
            deflate()
            for v in reversed(path):
                backup(v)

    pair_lower = np.zeros(len(mdp.row_state))
    state_lower = mdp.is_target.astype(np.float64)
    state_upper = np.ones(mdp.n_states)
    for s in sorted(explored):
        vals = [pair_l(s, a) for a in dm.actions[s]]
        pair_lower[mdp.row_start[s]:mdp.row_start[s + 1]] = vals
        if s not in target:
            state_lower[s] = max(vals)
            state_upper[s] = min(uval(s), max(pair_u(s, a) for a in dm.actions[s]))

    gap = uval(s0) - lval(s0)
    return ValueApprox(
        pair_lower=pair_lower, state_lower=state_lower, state_upper=state_upper,
        epsilon=eps, explored=np.array(sorted(explored), dtype=np.int64),
        gap=gap, engine="brtdp", mecs=mec_arrays(mdp, mecs_dict(mdp, restrict=explored)),
        episodes=episodes, backups=backups, deflations=deflations)


def tables_dict(mdp: Mdp, Ls: np.ndarray, Us: np.ndarray):
    """`value_iteration`'s pair and state tables, one generator sum per pair."""
    dm = as_tuples(mdp)
    pair_lower: Dict[Tuple[int, int], float] = {}
    state_lower: Dict[int, float] = {}
    state_upper: Dict[int, float] = {}
    for s in range(mdp.n_states):
        best_l = 0.0
        best_u = 0.0
        for i, a in enumerate(dm.actions[s]):
            lv = 0.0
            uv = 0.0
            for t, p in zip(a.succs, a.probs):
                lv += p * Ls[t]
                uv += p * Us[t]
            pair_lower[(s, i)] = lv
            best_l = max(best_l, lv)
            best_u = max(best_u, uv)
        state_lower[s] = best_l
        state_upper[s] = best_u
    return pair_lower, state_lower, state_upper


def extract_dict(mdp: Mdp, pair_lower: Dict[Tuple[int, int], float], explored,
                 mecs: List[Mec], *, tie_tol: float = 1e-9,
                 exit_union: bool = False) -> LiberalStrategy:
    """`strategy.extract_liberal` over a pair dict and a list of MECs."""
    dm = as_tuples(mdp)
    member: Dict[int, int] = {}
    for k, mec in enumerate(mecs):
        for s in mec.states:
            member[s] = k

    choice: Dict[int, FrozenSet[int]] = {}

    def pl(s: int, i: int) -> float:
        return pair_lower.get((s, i), 0.0)

    for s in sorted(explored):
        if s in member:
            continue
        vals = [pl(s, i) for i in range(len(dm.actions[s]))]
        best = max(vals)
        choice[s] = frozenset(i for i, v in enumerate(vals) if v >= best - tie_tol)

    for k, mec in enumerate(mecs):
        if mec.states & dm.target:
            continue
        states = sorted(mec.states & set(explored))
        if not states:
            continue
        external: List[Tuple[int, int]] = []
        best_val = 0.0
        for s in states:
            internal = set(mec.actions.get(s, ()))
            for i in range(len(dm.actions[s])):
                if i in internal:
                    continue
                external.append((s, i))
                best_val = max(best_val, pl(s, i))
        positive = any(pl(s, i) > tie_tol
                       for s in states for i in range(len(dm.actions[s])))
        if positive and not external:
            raise MdpError(
                f"end component {k} ({sorted(mec.states)[:8]}) carries positive "
                "value but has no exiting action; bounds are not usable")
        exits: Dict[int, List[int]] = {}
        for s, i in external:
            if pl(s, i) >= best_val - tie_tol:
                exits.setdefault(s, []).append(i)
        for s in states:
            internal = tuple(mec.actions.get(s, ()))
            if exit_union:
                picked = set(internal) | set(exits.get(s, ()))
            elif s in exits:
                picked = set(exits[s])
            else:
                picked = set(internal)
            choice[s] = frozenset(picked)
    return strategy_from_choice(mdp, choice)


# --------------------------------------------------------------------------
# The model as Python tuples: the interpreted breadth-first build, the
# tuple-to-array conversion, validation and flat export that the compiled
# build and the array-backed Mdp replaced.

class DictModel(NamedTuple):
    var_decls: Tuple[Tuple[str, int, int], ...]
    states: Tuple[Tuple[int, ...], ...]
    actions: Tuple[Tuple[Action, ...], ...]  # Act(s) per state, targets absorbing
    initial: int
    target: FrozenSet[int]
    module_count: int = 1


_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_expr(e: Expr, env: Dict[str, int]):
    """Interpret an expression over a valuation dict."""
    if isinstance(e, (IntLit, BoolLit)):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        return -eval_expr(e.arg, env)
    if isinstance(e, Arith):
        a, b = eval_expr(e.left, env), eval_expr(e.right, env)
        return a + b if e.op == "+" else a - b if e.op == "-" else a * b
    if isinstance(e, MinMax):
        vals = [eval_expr(a, env) for a in e.args]
        return min(vals) if e.op == "min" else max(vals)
    if isinstance(e, Cmp):
        return _CMP[e.op](eval_expr(e.left, env), eval_expr(e.right, env))
    if isinstance(e, Not):
        return not eval_expr(e.arg, env)
    if isinstance(e, And):
        return eval_expr(e.left, env) and eval_expr(e.right, env)
    return eval_expr(e.left, env) or eval_expr(e.right, env)


def make_absorbing(actions, target) -> tuple:
    """Replace Act(s) of every target state with the single tau self-loop."""
    out = list(actions)
    for t in target:
        out[t] = (Action(ActionAttr(TAU, 0), (t,), (1.0,)),)
    return tuple(out)


def build_dict(ast: ModelAst, *, state_cap: int = 1_000_000,
               unmerged: Optional[List[int]] = None) -> DictModel:
    """Breadth-first exploration that interprets every guard and update.

    When `unmerged` is given, the branch count of each action before
    repeated successors are merged is appended to it."""
    decls = ast.var_decls()
    names = [d.name for d in decls]
    bounds = {d.name: (d.lo, d.hi) for d in decls}
    init_vec = tuple(d.init for d in decls)

    # label -> ordered list of (module_index, commands); module indices are 1-based
    participants: Dict[str, List[Tuple[int, List]]] = {}
    solo: List[Tuple[int, object]] = []
    for mi, mod in enumerate(ast.modules, start=1):
        for cmd in mod.commands:
            if cmd.label is None:
                solo.append((mi, cmd))
            else:
                slot = participants.setdefault(cmd.label, [])
                if slot and slot[-1][0] == mi:
                    slot[-1][1].append(cmd)
                else:
                    slot.append((mi, [cmd]))
    labels_in_order = []
    for mod in ast.modules:
        for cmd in mod.commands:
            if cmd.label is not None and cmd.label not in labels_in_order:
                labels_in_order.append(cmd.label)

    index: Dict[Tuple[int, ...], int] = {init_vec: 0}
    states: List[Tuple[int, ...]] = [init_vec]
    actions: List[Tuple[Action, ...]] = [()]
    target: List[int] = []
    queue = deque([0])

    def resolve(env, updates, cmd, vec):
        done = []
        for tgt, rhs in updates:
            v = eval_expr(rhs, env)
            lo, hi = bounds[tgt]
            if not (lo <= v <= hi):
                raise ModelError(
                    f"update drives {tgt} to {v}, outside [{lo}..{hi}], in state "
                    f"{dict(zip(names, vec))}", cmd.line)
            done.append((names.index(tgt), v))
        return done

    def apply(vec, resolved):
        out = list(vec)
        for pos, v in resolved:
            out[pos] = v
        return tuple(out)

    def intern(vec) -> int:
        got = index.get(vec)
        if got is not None:
            return got
        if len(states) >= state_cap:
            raise ModelError(f"state cap exceeded ({state_cap} states explored)")
        index[vec] = len(states)
        states.append(vec)
        actions.append(())
        queue.append(len(states) - 1)
        return len(states) - 1

    while queue:
        s = queue.popleft()
        vec = states[s]
        env = dict(zip(names, vec))
        if eval_expr(ast.target, env):
            target.append(s)
            continue
        acts: List[Action] = []

        def add_action(attr, branches):
            # branches: list of (Fraction prob, vec); merge mass per successor
            if unmerged is not None:
                unmerged.append(len(branches))
            mass: Dict[int, float] = {}
            order: List[int] = []
            for p, nvec in branches:
                t = intern(nvec)
                if t not in mass:
                    mass[t] = 0.0
                    order.append(t)
                mass[t] += float(p)
            acts.append(Action(attr, tuple(order), tuple(mass[t] for t in order)))

        for mi, cmd in solo:
            if eval_expr(cmd.guard, env):
                branches = [(alt.prob, apply(vec, resolve(env, alt.updates, cmd, vec)))
                            for alt in cmd.alts]
                add_action(ActionAttr(cmd.name, mi), branches)

        for label in labels_in_order:
            parts_of = participants[label]
            owner = parts_of[0][0] if len(parts_of) == 1 else 0
            groups = []
            for _, cmds in parts_of:
                enabled = [c for c in cmds if eval_expr(c.guard, env)]
                if not enabled:
                    break
                groups.append(enabled)
            else:
                combos = [[]]
                for grp in groups:
                    combos = [pre + [c] for pre in combos for c in grp]
                for combo in combos:
                    parts = [[(alt.prob, resolve(env, alt.updates, cmd, vec))
                              for alt in cmd.alts] for cmd in combo]
                    branches = [(1, ())]
                    for alts in parts:
                        branches = [(p * q, ups + tuple(r))
                                    for p, ups in branches for q, r in alts]
                    add_action(ActionAttr(label, owner),
                               [(p, apply(vec, ups)) for p, ups in branches])

        if not acts:
            raise ModelError(f"deadlock: no enabled command in state {dict(zip(names, vec))}")
        actions[s] = tuple(acts)

    model = DictModel(tuple((d.name, d.lo, d.hi) for d in decls), tuple(states),
                      make_absorbing(actions, target), 0, frozenset(target),
                      len(ast.modules))
    validate_dict(model)
    return model


def validate_dict(model: DictModel, tol: float = 1e-9) -> DictModel:
    """The per-state structural checks, raising for the first offending state."""
    n = len(model.states)
    if not (0 <= model.initial < n):
        raise MdpError("initial state out of range")
    width = len(model.var_decls)
    for s, vec in enumerate(model.states):
        if len(vec) != width:
            raise MdpError(f"state {s}: vector width {len(vec)} != {width}")
        for (name, lo, hi), v in zip(model.var_decls, vec):
            if not (lo <= v <= hi):
                raise MdpError(f"state {s}: {name}={v} outside [{lo}..{hi}]")
        acts = model.actions[s]
        if not acts:
            raise MdpError(f"state {s} has no enabled action (deadlock)")
        for a in acts:
            if len(a.succs) != len(a.probs) or not a.succs:
                raise MdpError(f"state {s}: malformed distribution")
            total = 0.0
            for p in a.probs:
                total += p
            if abs(total - 1.0) > tol:
                raise MdpError(
                    f"state {s}, action {a.attr.name}: probabilities sum to {total}")
            if any(p <= 0 for p in a.probs):
                raise MdpError(f"state {s}: non-positive branch probability")
            if len(set(a.succs)) != len(a.succs):
                raise MdpError(f"state {s}: duplicate successor in distribution")
            if any(not (0 <= t < n) for t in a.succs):
                raise MdpError(f"state {s}: successor out of range")
        if s in model.target:
            if len(acts) != 1 or acts[0].succs != (s,):
                raise MdpError(f"target state {s} is not absorbing")
    return model


def mdp_dict(model: DictModel) -> Mdp:
    """A tuple model as row-grouped arrays, its action names sorted."""
    n, width = len(model.states), len(model.var_decls)
    all_actions = [a for acts in model.actions for a in acts]
    names = tuple(sorted({a.attr.name for a in all_actions}))
    name_id = {name: k for k, name in enumerate(names)}
    counts = np.array([len(acts) for acts in model.actions], dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(np.array(
        [len(a.succs) for a in all_actions], dtype=np.int64))))
    is_target = np.zeros(n, dtype=bool)
    is_target[sorted(model.target)] = True
    return Mdp(
        var_decls=model.var_decls,
        row_start=np.concatenate(([0], np.cumsum(counts))),
        row_state=np.repeat(np.arange(n), counts),
        branches=sp.csr_matrix(
            (np.array([p for a in all_actions for p in a.probs], dtype=np.float64),
             np.array([t for a in all_actions for t in a.succs], dtype=np.int64),
             indptr), shape=(len(all_actions), n)),
        action_id=np.array([name_id[a.attr.name] for a in all_actions], dtype=np.int64),
        module=np.array([a.attr.module for a in all_actions], dtype=np.int64),
        valuation=np.array(model.states, dtype=np.int64).reshape(n, width),
        is_target=is_target,
        action_names=names,
        initial=model.initial,
        module_count=model.module_count,
    )


_TUPLES: "weakref.WeakKeyDictionary[Mdp, DictModel]" = weakref.WeakKeyDictionary()


def as_tuples(mdp: Mdp) -> DictModel:
    """The model as Python tuples, read from its arrays once and kept: the
    valuation of each state, the `Action` tuples of each state in row order,
    and the target set. `mdp_dict` is its inverse."""
    got = _TUPLES.get(mdp)
    if got is None:
        ptr, start = mdp.branches.indptr.tolist(), mdp.row_start.tolist()
        succ, prob = mdp.branches.indices.tolist(), mdp.branches.data.tolist()
        rows = [Action(ActionAttr(mdp.action_names[a], m), tuple(succ[ptr[r]:ptr[r + 1]]),
                       tuple(prob[ptr[r]:ptr[r + 1]]))
                for r, (a, m) in enumerate(zip(mdp.action_id.tolist(), mdp.module.tolist()))]
        got = _TUPLES[mdp] = DictModel(
            mdp.var_decls, tuple(map(tuple, mdp.valuation.tolist())),
            tuple(tuple(rows[a:b]) for a, b in zip(start, start[1:])), mdp.initial,
            frozenset(np.flatnonzero(mdp.is_target).tolist()), mdp.module_count)
    return got


def mdp_of(var_decls, states, actions, initial, target, module_count: int = 1) -> Mdp:
    """An Mdp from explicit Act(s) tuples; call `validate` to check it."""
    return mdp_dict(DictModel(tuple(var_decls), tuple(states), tuple(actions), initial,
                              frozenset(target), module_count))


def export_dict(model: DictModel) -> str:
    """The flat explicit text of a tuple model."""
    out = ["vars " + " ".join(f"{n}:{lo}..{hi}" for n, lo, hi in model.var_decls)]
    for i, vec in enumerate(model.states):
        out.append(f"state {i} " + " ".join(str(v) for v in vec))
    for s, acts in enumerate(model.actions):
        for a in acts:
            pairs = " ".join(f"{p!r} {t}" for t, p in zip(a.succs, a.probs))
            out.append(f"act {s} {a.attr.name} {a.attr.module} {pairs}")
    out.append(f"init {model.initial}")
    if model.target:
        out.append("target " + " ".join(str(t) for t in sorted(model.target)))
    return "\n".join(out) + "\n"
