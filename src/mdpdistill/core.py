"""MDP/Markov-chain types, MEC decomposition and exact reachability.

States are integer vectors over declared variables, stored by index. Actions
carry an attribute (name, module); module 0 marks synchronizing actions.
Target states are absorbing by construction (single self-loop), which every
constructor here enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

TAU = "tau"  # attribute name of the self-loop placed on absorbing target states

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, stream: int) -> int:
    """Mix a base seed with a stream index (splitmix64 finalizer).

    Gives every simulation run its own well-separated generator seed, so
    batches can be split or reordered without changing per-run outcomes.
    """
    z = (seed * 0x9E3779B97F4A7C15 + stream + 1) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class MdpError(Exception):
    """Structural problem in an MDP or Markov chain."""


class ActionAttr(NamedTuple):
    name: str
    module: int


class Action(NamedTuple):
    attr: ActionAttr
    succs: Tuple[int, ...]
    probs: Tuple[float, ...]


@dataclass
class Mdp:
    """Explicit MDP over vector-valued states with an absorbing target set."""

    var_decls: Tuple[Tuple[str, int, int], ...]  # (name, lo, hi) per coordinate
    states: Tuple[Tuple[int, ...], ...]
    actions: Tuple[Tuple[Action, ...], ...]  # Act(s) per state, declaration order
    initial: int
    target: FrozenSet[int]
    module_count: int = 1

    def __post_init__(self):
        self.target = frozenset(self.target)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def action_names(self) -> Tuple[str, ...]:
        names = {a.attr.name for acts in self.actions for a in acts}
        return tuple(sorted(names))

    def validate(self, tol: float = 1e-9):
        n = self.n_states
        if not (0 <= self.initial < n):
            raise MdpError("initial state out of range")
        width = len(self.var_decls)
        for s, vec in enumerate(self.states):
            if len(vec) != width:
                raise MdpError(f"state {s}: vector width {len(vec)} != {width}")
            for (name, lo, hi), v in zip(self.var_decls, vec):
                if not (lo <= v <= hi):
                    raise MdpError(f"state {s}: {name}={v} outside [{lo}..{hi}]")
            acts = self.actions[s]
            if not acts:
                raise MdpError(f"state {s} has no enabled action (deadlock)")
            for a in acts:
                if len(a.succs) != len(a.probs) or not a.succs:
                    raise MdpError(f"state {s}: malformed distribution")
                if abs(sum(a.probs) - 1.0) > tol:
                    raise MdpError(
                        f"state {s}, action {a.attr.name}: probabilities sum to {sum(a.probs)}")
                if any(p <= 0 for p in a.probs):
                    raise MdpError(f"state {s}: non-positive branch probability")
                if len(set(a.succs)) != len(a.succs):
                    raise MdpError(f"state {s}: duplicate successor in distribution")
                if any(not (0 <= t < n) for t in a.succs):
                    raise MdpError(f"state {s}: successor out of range")
            if s in self.target:
                if len(acts) != 1 or acts[0].succs != (s,):
                    raise MdpError(f"target state {s} is not absorbing")
        return self

    def predecessors(self) -> List[List[int]]:
        """preds[t] = states with some action giving positive mass to t."""
        return reverse_edges([sorted({t for a in acts for t in a.succs})
                              for acts in self.actions])


def make_absorbing(actions, target) -> tuple:
    """Replace Act(s) of every target state with the single tau self-loop."""
    out = list(actions)
    for t in target:
        out[t] = (Action(ActionAttr(TAU, 0), (t,), (1.0,)),)
    return tuple(out)


@dataclass
class MarkovChain:
    """Finite Markov chain; locations coincide with MDP state indices."""

    n: int
    rows: Tuple[Tuple[Tuple[int, ...], Tuple[float, ...]], ...]  # (succs, probs) per location
    init: int


@dataclass
class Mec:
    """Maximal end component: states plus, per state, its internal actions."""

    states: FrozenSet[int]
    actions: Dict[int, Tuple[int, ...]]  # state -> indices into mdp.actions[s]

    def __post_init__(self):
        self.states = frozenset(self.states)


@dataclass
class LiberalStrategy:
    """Partial map state -> non-empty set of action indices; absent = don't-care.

    Don't-care states are read as the uniform distribution over Act(s).
    """

    choice: Dict[int, FrozenSet[int]] = field(default_factory=dict)

    def is_defined(self, s: int) -> bool:
        return s in self.choice

    def actions_at(self, mdp: Mdp, s: int) -> Tuple[int, ...]:
        got = self.choice.get(s)
        if got is None:
            return tuple(range(len(mdp.actions[s])))
        return tuple(sorted(got))

    def good_pairs(self, mdp: Mdp) -> List[Tuple[int, ActionAttr]]:
        """Distinct (state, attribute) pairs selected at defined states."""
        out = []
        for s in sorted(self.choice):
            attrs = sorted({mdp.actions[s][i].attr for i in self.choice[s]})
            out.extend((s, attr) for attr in attrs)
        return out


# --------------------------------------------------------------------------
# Graph search. Graphs are successor lists indexed by node; search backward
# by searching the reversed edges.

def reachable(succ: Sequence[Sequence[int]], sources) -> np.ndarray:
    """Boolean mask of the nodes reachable from `sources`, sources included."""
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
    return np.array(seen, dtype=bool)


def reverse_edges(succ: Sequence[Sequence[int]]) -> List[List[int]]:
    """pred[v] lists every u with an edge u -> v, in increasing u."""
    pred: List[List[int]] = [[] for _ in succ]
    for u, vs in enumerate(succ):
        for v in vs:
            pred[v].append(u)
    return pred


# --------------------------------------------------------------------------
# Strongly connected components (iterative Tarjan; grid-sized graphs blow the
# recursion limit otherwise).

def strongly_connected_components(n: int, succ: Sequence[Sequence[int]]) -> List[List[int]]:
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


def mec_decompose(mdp: Mdp, restrict: Optional[FrozenSet[int]] = None) -> List[Mec]:
    """Maximal end components, sorted by smallest member state.

    Standard fixpoint: restrict to candidate state sets, drop actions leaving
    the candidate, drop states left with no action, split along SCCs of the
    remaining graph, repeat.  `restrict` limits the search to a state subset
    (actions touching outside states count as leaving).
    """
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
        comps = strongly_connected_components(len(order), succ)
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


def induce_chain(mdp: Mdp, strategy: LiberalStrategy) -> MarkovChain:
    """Markov chain of the uniform randomization over the selected actions."""
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
    return MarkovChain(mdp.n_states, tuple(rows), mdp.initial)


def reach_exact(chain: MarkovChain, targets, *, direct_cutoff: int = 50000,
                tol: float = 1e-12) -> np.ndarray:
    """Exact reachability probabilities Pr_l[<> targets] for every location.

    Zero set by graph search, then a sparse linear solve on the remaining
    locations (direct below `direct_cutoff` unknowns, else Jacobi iteration
    to residual < tol; convergence is geometric since every non-zero-set
    location almost surely enters targets-or-zero-set).
    """
    n = chain.n
    targets = set(targets)
    vals = np.zeros(n)
    for t in targets:
        vals[t] = 1.0
    if not targets:
        return vals
    mask = reachable(reverse_edges([succs for succs, _ in chain.rows]), targets)
    unknown = [s for s in range(n) if mask[s] and s not in targets]
    if not unknown:
        return vals
    pos = {s: k for k, s in enumerate(unknown)}
    m = len(unknown)
    data, ind, indptr = [], [], [0]
    b = np.zeros(m)
    for s in unknown:
        succs, probs = chain.rows[s]
        for t, p in zip(succs, probs):
            if t in targets:
                b[pos[s]] += p
            elif t in pos:
                ind.append(pos[t])
                data.append(p)
        indptr.append(len(ind))
    A = sp.csr_matrix((data, ind, indptr), shape=(m, m))
    if m <= direct_cutoff:
        x = spla.spsolve(sp.eye(m, format="csc") - A.tocsc(), b)
    else:
        x = b.copy()
        for _ in range(10_000_000):
            nxt = A.dot(x) + b
            if np.max(np.abs(nxt - x)) < tol:
                x = nxt
                break
            x = nxt
        else:
            raise MdpError("reachability iteration failed to converge")
    x = np.clip(x, 0.0, 1.0)
    for s in unknown:
        vals[s] = x[pos[s]]
    return vals


# --------------------------------------------------------------------------
# MEC quotient and interval iteration (shared by the exact oracle and the
# value-iteration engine).

@dataclass
class Quotient:
    num_nodes: int
    node_of: np.ndarray  # state -> node
    R: sp.csr_matrix  # action rows x nodes, grouped by owner node
    row_starts: np.ndarray  # group start offsets into the rows, per node with rows
    nodes_with_rows: np.ndarray
    frozen_value: np.ndarray  # value of nodes without rows (targets 1, traps 0)
    has_rows: np.ndarray
    target_nodes: np.ndarray  # bool mask
    zero_nodes: np.ndarray  # bool mask: no path to a target node


def build_quotient(mdp: Mdp, mecs: List[Mec]) -> Quotient:
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

    # external rows per node (internal MEC actions vanish in the quotient)
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

    # nodes that cannot reach a target node under any action get upper bound 0
    succ = [[v for succs, _ in rows for v in succs] for rows in rows_by_node]
    reach_mask = reachable(reverse_edges(succ), np.flatnonzero(target_nodes))

    return Quotient(
        num_nodes=q,
        node_of=node_of,
        R=R,
        row_starts=np.array(starts, dtype=np.int64),
        nodes_with_rows=np.array(owners, dtype=np.int64),
        frozen_value=frozen,
        has_rows=has_rows,
        target_nodes=target_nodes,
        zero_nodes=~reach_mask,
    )


def interval_iterate(q: Quotient, *, eps: Optional[float] = None,
                     stop_node: Optional[int] = None, tol: Optional[float] = None,
                     max_sweeps: int = 5_000_000) -> Tuple[np.ndarray, np.ndarray, int]:
    """Synchronous lower/upper Bellman sweeps on the (EC-free) quotient.

    Stops when U-L at `stop_node` drops below eps, or globally below tol.
    Returns (L, U, sweeps).
    """
    L = q.frozen_value.copy()
    U = np.ones(q.num_nodes)
    U[q.zero_nodes] = 0.0
    U[q.target_nodes] = 1.0
    U[~q.has_rows & ~q.target_nodes] = 0.0

    def done():
        if stop_node is not None and eps is not None:
            return U[stop_node] - L[stop_node] < eps
        return np.max(U - L) < tol

    sweeps = 0
    nw = q.nodes_with_rows
    while not done():
        if sweeps >= max_sweeps:
            raise MdpError("interval iteration exceeded sweep budget")
        Lr = q.R.dot(L)
        Ur = q.R.dot(U)
        L = L.copy()
        U = U.copy()
        L[nw] = np.maximum(L[nw], np.maximum.reduceat(Lr, q.row_starts))
        U[nw] = np.minimum(U[nw], np.maximum.reduceat(Ur, q.row_starts))
        sweeps += 1
    return L, U, sweeps


def max_reach_exact(mdp: Mdp, *, tol: float = 1e-12) -> np.ndarray:
    """Optimal reachability values Val(s), certified to a U-L gap below tol.

    Interval iteration on the MEC quotient; both bounds converge there since
    collapsing MECs removes every end component.
    """
    if not mdp.target:
        return np.zeros(mdp.n_states)
    mecs = mec_decompose(mdp)
    q = build_quotient(mdp, mecs)
    L, U, _ = interval_iterate(q, tol=tol)
    vals = (L + U) / 2.0
    np.clip(vals, 0.0, 1.0, out=vals)
    return vals[q.node_of]
