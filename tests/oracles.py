"""Slow reference implementations used to cross-check the real engines.

Everything here trades efficiency for being obviously right: optimal values
by enumerating all deterministic memoryless strategies, end components by
checking every state subset, strategy values on acyclic models by exact
rational path summation. Only usable on tiny models; the tests freeze the
numbers these produce.

The per-state loops at the end (`induce_rows`, `reach_rows`,
`evaluate_rows`, `induce_by_classify`, `simulate_rows`, `learn_masks`,
`tarjan`, `mecs_dict`, `quotient_dict`, `tables_dict`, `extract_dict`) are
the plain-Python forms of the array code in `core`, `solver`, `strategy`,
`importance` and `dtree`. They add in the same order, so the tests compare
against them with `==`. `build_dict` is the interpreted build, over
`eval_expr`, that the compiled one in `build` replaced; with `view_dict`,
`validate_dict` and `export_dict` it keeps a model as Python tuples.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import product
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mdpdistill.core import (_MASK64, TAU, Action, ActionAttr, LiberalStrategy,
                             MarkovChain, Mdp, Mec, MdpError, Quotient, SparseView,
                             derive_seed, induce_chain, reach_exact, reachable)
from mdpdistill.dtree import (COORD_ACTION, DTree, Leaf, Node, Pred, Split,
                              _prune, _upper_z)
from mdpdistill.expr import (And, Arith, BoolLit, Cmp, Expr, IntLit, MinMax, Neg, Not,
                             Var)
from mdpdistill.importance import Domain, RunStats, TrainingSet
from mdpdistill.lang import ModelAst, ModelError


def brute_val(mdp: Mdp, limit: int = 12) -> np.ndarray:
    """Optimal reachability values by trying every deterministic strategy."""
    n = mdp.n_states
    if n > limit:
        raise MdpError(f"brute force capped at {limit} states")
    best = np.zeros(n)
    ranges = [range(len(mdp.actions[s])) for s in range(n)]
    for pick in product(*ranges):
        rows = []
        for s in range(n):
            a = mdp.actions[s][pick[s]]
            rows.append((a.succs, a.probs))
        chain = MarkovChain(n, tuple(rows), mdp.initial)
        np.maximum(best, reach_exact(chain, mdp.target), out=best)
    return best


def brute_mecs(mdp: Mdp, limit: int = 15) -> List[Tuple[FrozenSet[int], Dict[int, Tuple[int, ...]]]]:
    """Maximal end components by checking every non-empty state subset."""
    n = mdp.n_states
    if n > limit:
        raise MdpError(f"brute force capped at {limit} states")

    def staying(T: FrozenSet[int], s: int) -> Tuple[int, ...]:
        return tuple(i for i, a in enumerate(mdp.actions[s])
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
                    for t in mdp.actions[s][i].succs:
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
    chain = induce_chain(mdp, strategy)
    memo: Dict[int, Fraction] = {}
    on_path: set = set()

    def value(s: int) -> Fraction:
        if s in mdp.target:
            return Fraction(1)
        succs, probs = chain.rows[s]
        if succs == (s,):
            return Fraction(0)
        if s in memo:
            return memo[s]
        if s in on_path:
            raise MdpError("induced chain has a proper cycle; oracle misused")
        on_path.add(s)
        # rebuild branch probabilities as exact rationals
        idxs = strategy.actions_at(mdp, s)
        w = Fraction(1, len(idxs))
        total = Fraction(0)
        for i in idxs:
            a = mdp.actions[s][i]
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
    chain = induce_chain(mdp, strategy)
    n = chain.n
    dist = np.zeros((n, 2))
    dist[mdp.initial, 1 if s == mdp.initial else 0] = 1.0
    absorbed = [t for t in range(n) if chain.rows[t][0] == (t,)]
    for _ in range(horizon):
        nxt = np.zeros_like(dist)
        for u in range(n):
            for flag in (0, 1):
                p = dist[u, flag]
                if p == 0.0:
                    continue
                if u in mdp.target or chain.rows[u][0] == (u,):
                    nxt[u, flag] += p
                    continue
                for v, q in zip(*chain.rows[u]):
                    nxt[v, 1 if (flag or v == s) else flag] += p * q
        dist = nxt
    hit_and_seen = sum(dist[t, 1] for t in mdp.target)
    hit = sum(dist[t, 0] + dist[t, 1] for t in mdp.target)
    settled = sum(dist[t, 0] + dist[t, 1] for t in absorbed)
    slack = 1.0 - settled
    if hit <= 0.0:
        raise MdpError("no mass reached the target within the horizon")
    return hit_and_seen / hit, slack



# --------------------------------------------------------------------------
# Per-state reference loops for the accept probe.

Rows = Tuple[Tuple[Tuple[int, ...], Tuple[float, ...]], ...]


def induce_rows(mdp: Mdp, strategy: LiberalStrategy) -> Rows:
    """Induced chain as (succs, probs) per state, summed in a dict per state."""
    rows = []
    for s in range(mdp.n_states):
        idxs = strategy.actions_at(mdp, s)
        if not idxs:
            raise MdpError(f"strategy defines an empty action set at state {s}")
        w = 1.0 / len(idxs)
        mass: Dict[int, float] = {}
        for i in idxs:
            a = mdp.actions[s][i]
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
    """Reachability values of a chain given as rows, by one direct solve."""
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
        for t, p in zip(*rows[s]):
            if t in targets:
                b[pos[s]] += p
            elif t in pos:
                ind.append(pos[t])
                data.append(p)
        indptr.append(len(ind))
    A = sp.csr_matrix((data, ind, indptr), shape=(m, m))
    x = np.clip(spla.spsolve(sp.eye(m, format="csc") - A.tocsc(), b), 0.0, 1.0)
    for s in unknown:
        vals[s] = x[pos[s]]
    return vals


def evaluate_rows(mdp: Mdp, strategy: LiberalStrategy) -> float:
    """Strategy value from the initial state, solved on the reachable states."""
    rows = induce_rows(mdp, strategy)
    seen = _search([succs for succs, _ in rows], [mdp.initial])
    reach = [s for s in range(mdp.n_states) if seen[s]]
    pos = {s: k for k, s in enumerate(reach)}
    sub = tuple((tuple(pos[t] for t in rows[s][0]), rows[s][1]) for s in reach)
    vals = reach_rows(sub, [pos[s] for s in reach if s in mdp.target])
    return float(vals[pos[mdp.initial]])


def induce_by_classify(mdp: Mdp, tree) -> Tuple[Dict[int, FrozenSet[int]], List[int]]:
    """`choice` and fallback states of a tree, one `classify` call per action."""
    choice = {}
    fallback: List[int] = []
    for s in range(mdp.n_states):
        if s in mdp.target:
            continue
        keep = frozenset(i for i, a in enumerate(mdp.actions[s])
                         if tree.classify(mdp.states[s], a.attr))
        if keep:
            choice[s] = keep
        else:
            fallback.append(s)
    return choice, fallback


def simulate_rows(mdp: Mdp, strategy: LiberalStrategy, runs: int, *, seed: int = 0,
                  max_steps: int = 1_000_000, first_run: int = 0) -> RunStats:
    """`importance.simulate`, one run after another with a visit dict per run."""
    chain = induce_chain(mdp, strategy)
    can = list(reachable(chain.P.T, mdp.target))
    stats = RunStats(mdp.n_states, total_runs=runs)
    cond_count = [0] * mdp.n_states
    cond_mult = [0] * mdp.n_states
    all_count = [0] * mdp.n_states
    all_mult = [0] * mdp.n_states
    rows, target, initial = chain.rows, mdp.target, mdp.initial
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


def learn_masks(ts: TrainingSet, *, min_leaf: float = 1.0, confidence: float = 0.25,
                prune: bool = True) -> DTree:
    """`dtree.learn`, one boolean mask per candidate split."""
    if not ts.rows:
        return DTree(Leaf(True), ts.domain)
    domain = ts.domain
    nv = domain.n_vars
    m = len(ts.rows)
    X = np.array([r.x for r in ts.rows], dtype=np.int64).reshape(m, nv)
    act = np.array([domain.action_index(r.attr.name) if r.attr is not None else -1
                    for r in ts.rows], dtype=np.int64)
    mod = np.array([r.attr.module if r.attr is not None else -1
                    for r in ts.rows], dtype=np.int64)
    y = np.array([r.good for r in ts.rows], dtype=bool)
    w = np.array([r.weight for r in ts.rows], dtype=np.float64)

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
                return Split(p, grow(idx[mask]), grow(idx[~mask]), total, err)
            return Leaf(majority, total, err)
        _, _, p, mask = best
        return Split(p, grow(idx[mask]), grow(idx[~mask]), total, err)

    root = grow(np.arange(m))
    if prune:
        root, _ = _prune(root, _upper_z(confidence))
    return DTree(root, domain)


# --------------------------------------------------------------------------
# Per-state reference loops for the solver: MECs, quotient, pair tables and
# extraction, as dicts over `mdp.actions`.

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


def mecs_dict(mdp: Mdp, restrict: Optional[FrozenSet[int]] = None) -> List[Mec]:
    """`core.mec_decompose` as a work list of candidate state sets."""
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
                keep = [i for i, a in enumerate(mdp.actions[s])
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
                nbrs.update(mdp.actions[s][i].succs)
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
                    if not any(all(t == s for t in mdp.actions[s][i].succs) for i in acts[s]):
                        continue
                work.append(sub)
    mecs.sort(key=lambda m: min(m.states))
    return mecs


def quotient_dict(mdp: Mdp, mecs: List[Mec]) -> Quotient:
    """`core.build_quotient` with a successor dict per row."""
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
    for t in mdp.target:
        target_nodes[node_of[t]] = True

    rows_by_node: List[List[Tuple[Tuple[int, ...], Tuple[float, ...]]]] = [[] for _ in range(q)]
    for s in range(n):
        in_mec = s in mec_of
        mec = mecs[mec_of[s]] if in_mec else None
        for i, a in enumerate(mdp.actions[s]):
            if in_mec and all(t in mec.states for t in a.succs):
                continue
            mass: Dict[int, float] = {}
            for t, p in zip(a.succs, a.probs):
                u = int(node_of[t])
                mass[u] = mass.get(u, 0.0) + p
            succs = tuple(sorted(mass))
            rows_by_node[node_of[s]].append((succs, tuple(mass[u] for u in succs)))

    data, ind, indptr = [], [], [0]
    starts, owners = [], []
    row_count = 0
    for u in range(q):
        if target_nodes[u] or not rows_by_node[u]:
            continue
        owners.append(u)
        starts.append(row_count)
        for succs, probs in rows_by_node[u]:
            ind.extend(succs)
            data.extend(probs)
            indptr.append(len(ind))
            row_count += 1
    R = sp.csr_matrix((data, ind, indptr), shape=(row_count, q))
    has_rows = np.zeros(q, dtype=bool)
    has_rows[owners] = True
    frozen = np.zeros(q)
    frozen[target_nodes] = 1.0
    pred: List[List[int]] = [[] for _ in range(q)]
    for u, start, stop in zip(owners, starts, starts[1:] + [row_count]):
        for r in range(start, stop):
            for t in ind[indptr[r]:indptr[r + 1]]:
                pred[t].append(u)
    reach = _search(pred, np.flatnonzero(target_nodes).tolist())
    return Quotient(
        num_nodes=q, node_of=node_of, R=R,
        row_starts=np.array(starts, dtype=np.int64),
        nodes_with_rows=np.array(owners, dtype=np.int64),
        frozen_value=frozen, has_rows=has_rows, target_nodes=target_nodes,
        zero_nodes=~np.array(reach, dtype=bool))


def tables_dict(mdp: Mdp, Ls: np.ndarray, Us: np.ndarray):
    """`value_iteration`'s pair and state tables, one generator sum per pair."""
    pair_lower: Dict[Tuple[int, int], float] = {}
    state_lower: Dict[int, float] = {}
    state_upper: Dict[int, float] = {}
    for s in range(mdp.n_states):
        best_l = 0.0
        best_u = 0.0
        for i, a in enumerate(mdp.actions[s]):
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
        vals = [pl(s, i) for i in range(len(mdp.actions[s]))]
        best = max(vals)
        choice[s] = frozenset(i for i, v in enumerate(vals) if v >= best - tie_tol)

    for k, mec in enumerate(mecs):
        if mec.states & mdp.target:
            continue
        states = sorted(mec.states & set(explored))
        if not states:
            continue
        external: List[Tuple[int, int]] = []
        best_val = 0.0
        for s in states:
            internal = set(mec.actions.get(s, ()))
            for i in range(len(mdp.actions[s])):
                if i in internal:
                    continue
                external.append((s, i))
                best_val = max(best_val, pl(s, i))
        positive = any(pl(s, i) > tie_tol
                       for s in states for i in range(len(mdp.actions[s])))
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
    return LiberalStrategy(choice)


# --------------------------------------------------------------------------
# The model as Python tuples: the interpreted breadth-first build, the
# tuple-to-array conversion, validation and flat export that the compiled
# build and the SparseView-backed Mdp replaced.

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


def build_dict(ast: ModelAst, *, state_cap: int = 1_000_000) -> DictModel:
    """Breadth-first exploration that interprets every guard and update."""
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


def view_dict(model: DictModel) -> Tuple[SparseView, Tuple[str, ...]]:
    """The row-grouped arrays of a tuple model, and its sorted action names."""
    n, width = len(model.states), len(model.var_decls)
    all_actions = [a for acts in model.actions for a in acts]
    names = tuple(sorted({a.attr.name for a in all_actions}))
    name_id = {name: k for k, name in enumerate(names)}
    counts = np.array([len(acts) for acts in model.actions], dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(np.array(
        [len(a.succs) for a in all_actions], dtype=np.int64))))
    is_target = np.zeros(n, dtype=bool)
    is_target[sorted(model.target)] = True
    view = SparseView(
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
    )
    return view, names


def mdp_of(var_decls, states, actions, initial, target, module_count: int = 1) -> Mdp:
    """An Mdp from explicit Act(s) tuples; call `validate` to check it."""
    view, names = view_dict(DictModel(tuple(var_decls), tuple(states), tuple(actions),
                                      initial, frozenset(target), module_count))
    return Mdp(tuple(var_decls), view, names, initial, module_count)


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
