"""MDP/Markov-chain types, MEC decomposition and exact reachability.

States are integer vectors over declared variables, stored by index. Actions
carry an attribute (name, module); module 0 marks synchronizing actions.
Target states are absorbing (a single self-loop); the row assembly in
`build` enforces it and `Mdp.validate` checks it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

TAU = "tau"  # attribute name of the self-loop placed on absorbing target states

_MASK64 = (1 << 64) - 1
_INT64 = np.iinfo(np.int64)
GOLDEN64 = 0x9E3779B97F4A7C15  # splitmix64 counter increment


def splitmix64(z):
    """The splitmix64 finalizer of z, a Python int or a numpy uint64 array."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(seed: int, stream):
    """Mix a base seed with a stream index (an int or a uint64 array).

    Gives every simulation run its own well-separated generator seed, so
    batches can be split or reordered without changing per-run outcomes.
    """
    return splitmix64((((seed * GOLDEN64 + 1) & _MASK64) + stream) & _MASK64)


class MdpError(Exception):
    """Structural problem in an MDP or Markov chain."""


class ActionAttr(NamedTuple):
    name: str
    module: int


class Action(NamedTuple):
    attr: ActionAttr
    succs: Tuple[int, ...]
    probs: Tuple[float, ...]


@dataclass(eq=False)
class Mdp:
    """Explicit MDP over vector-valued states with an absorbing target set.

    The model is stored once, as its SparseView. `states`, `actions` and
    `target` are derived from the view on first use.
    """

    var_decls: Tuple[Tuple[str, int, int], ...]  # (name, lo, hi) per coordinate
    sparse: "SparseView"
    action_names: Tuple[str, ...]  # sorted names of the actions that occur
    initial: int
    module_count: int = 1

    @property
    def n_states(self) -> int:
        return len(self.sparse.row_start) - 1

    @cached_property
    def target(self) -> FrozenSet[int]:
        return frozenset(np.flatnonzero(self.sparse.is_target).tolist())

    @cached_property
    def states(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(map(tuple, self.sparse.valuation.tolist()))

    @cached_property
    def actions(self) -> Tuple["StateActions", ...]:
        """Act(s) per state, in declaration order."""
        return tuple(StateActions(self, s) for s in range(self.n_states))

    def validate(self, tol: float = 1e-9):
        """Check the view's structure; report the first offending state.

        Every check runs on whole arrays. The message is then worked out for
        the first state that fails one, in the order: variable ranges,
        deadlock, each action's distribution, absorbing targets.
        """
        v = self.sparse
        n = self.n_states
        if not (0 <= self.initial < n):
            raise MdpError("initial state out of range")
        width = len(self.var_decls)
        if v.valuation.shape != (n, width):
            raise MdpError(f"valuation of shape {v.valuation.shape}, not ({n}, {width})")
        # the valuation is int64, so bounds past that range constrain nothing
        lo = np.array([max(lo, _INT64.min) for _, lo, _ in self.var_decls], dtype=np.int64)
        hi = np.array([min(hi, _INT64.max) for _, _, hi in self.var_decls], dtype=np.int64)
        outside = (v.valuation < lo) | (v.valuation > hi)
        counts = np.diff(v.row_start)
        ptr, succ, prob = v.branches.indptr, v.branches.indices, v.branches.data
        lengths = np.diff(ptr)
        rows = len(lengths)
        entry_row = np.repeat(np.arange(rows), lengths)
        # a mat-vec adds each row left to right, as sum() does; a single
        # column keeps out-of-range successors from being read
        total = sp.csr_matrix((prob, np.zeros_like(succ), ptr), shape=(rows, 1)) @ np.ones(1)
        order, first_of = branch_groups(entry_row, succ)
        row_bad = ((lengths == 0) | (np.abs(total - 1.0) > tol)
                   | _hits(entry_row[prob <= 0], rows)
                   | _hits(entry_row[order[~first_of]], rows)
                   | _hits(entry_row[(succ < 0) | (succ >= n)], rows))
        first = v.row_start[:-1]
        one = np.flatnonzero(counts == 1)
        single = one[lengths[first[one]] == 1]
        absorbing = np.zeros(n, dtype=bool)
        absorbing[single] = succ[ptr[first[single]]] == single
        bad = (outside.any(axis=1) | (counts == 0) | _hits(v.row_state[row_bad], n)
               | (v.is_target & ~absorbing))
        if not bad.any():
            return self
        s = int(np.flatnonzero(bad)[0])
        if outside[s].any():
            j = int(np.flatnonzero(outside[s])[0])
            name, lo, hi = self.var_decls[j]
            raise MdpError(f"state {s}: {name}={v.valuation[s, j]} outside [{lo}..{hi}]")
        if counts[s] == 0:
            raise MdpError(f"state {s} has no enabled action (deadlock)")
        for r in range(v.row_start[s], v.row_start[s + 1]):
            a, b = ptr[r], ptr[r + 1]
            if a == b:
                raise MdpError(f"state {s}: malformed distribution")
            if abs(total[r] - 1.0) > tol:
                raise MdpError(f"state {s}, action {self.action_names[v.action_id[r]]}: "
                               f"probabilities sum to {float(total[r])}")
            if (prob[a:b] <= 0).any():
                raise MdpError(f"state {s}: non-positive branch probability")
            if len(np.unique(succ[a:b])) < b - a:
                raise MdpError(f"state {s}: duplicate successor in distribution")
            if ((succ[a:b] < 0) | (succ[a:b] >= n)).any():
                raise MdpError(f"state {s}: successor out of range")
        raise MdpError(f"target state {s} is not absorbing")



def _hits(items: np.ndarray, size: int) -> np.ndarray:
    """(size,) bool: the indices that occur in `items`."""
    return np.bincount(items, minlength=size) > 0


def branch_groups(entry_row: np.ndarray, succ: np.ndarray):
    """Branches sorted by (row, successor), stably, and the first of each group.

    Returns the sort order and a mask over it that marks where each
    (row, successor) pair starts; a repeated successor keeps branch order.
    """
    order = np.lexsort((succ, entry_row))
    first_of = np.ones(len(order), dtype=bool)
    first_of[1:] = (np.diff(entry_row[order]) != 0) | (np.diff(succ[order]) != 0)
    return order, first_of


class StateActions(Sequence):
    """Act(s) of one state, read from the view of its Mdp.

    The length is read from row_start; the Action tuples are built on first
    access to an item, and kept.
    """

    __slots__ = ("_mdp", "_s", "_built")

    def __init__(self, mdp: Mdp, s: int):
        self._mdp = mdp
        self._s = s
        self._built = None

    def __len__(self) -> int:
        start = self._mdp.sparse.row_start
        return int(start[self._s + 1] - start[self._s])

    def _acts(self) -> Tuple[Action, ...]:
        if self._built is None:
            mdp, v = self._mdp, self._mdp.sparse
            ptr = v.branches.indptr
            self._built = tuple(
                Action(ActionAttr(mdp.action_names[v.action_id[r]], int(v.module[r])),
                       tuple(v.branches.indices[ptr[r]:ptr[r + 1]].tolist()),
                       tuple(v.branches.data[ptr[r]:ptr[r + 1]].tolist()))
                for r in range(v.row_start[self._s], v.row_start[self._s + 1]))
        return self._built

    def __getitem__(self, i):
        return self._acts()[i]

    def __iter__(self):
        return iter(self._acts())

    def __eq__(self, other) -> bool:
        return isinstance(other, (tuple, StateActions)) and tuple(self) == tuple(other)

    __hash__ = None

    def __repr__(self) -> str:
        return repr(self._acts())


@dataclass(frozen=True)
class SparseView:
    """An Mdp as arrays, in the sparse row-grouped layout of PRISM and Storm.

    Action rows are numbered state by state in declaration order, so the
    rows of state s are row_start[s]:row_start[s + 1] and local action i of
    s is row row_start[s] + i.
    """

    row_start: np.ndarray  # (states + 1,) offset of each state's first row
    row_state: np.ndarray  # (rows,) owning state of each row
    branches: sp.csr_matrix  # rows x states, successors in declaration order
    action_id: np.ndarray  # (rows,) index into Mdp.action_names
    module: np.ndarray  # (rows,) owning module
    valuation: np.ndarray  # states x variables
    is_target: np.ndarray  # (states,) bool


def distinct_attrs(mdp: Mdp, states: np.ndarray, good: np.ndarray):
    """The distinct (state, action id, module) triples of the rows of `states`.

    `states` is a mask over states and `good` one over rows. Returns four
    arrays sorted by state, then action name, then module; the last tells
    whether a `good` row carries the triple. Action ids rank the names, so
    sorting ids sorts names.
    """
    v = mdp.sparse
    rows = np.flatnonzero(states[v.row_state])
    rows = rows[np.lexsort((v.module[rows], v.action_id[rows], v.row_state[rows]))]
    keys = np.stack((v.row_state[rows], v.action_id[rows], v.module[rows]))
    starts = np.flatnonzero(np.concatenate(([True], (np.diff(keys, axis=1) != 0).any(axis=0))))
    if not len(rows):
        return keys[0], keys[1], keys[2], np.zeros(0, dtype=bool)
    return (keys[0, starts], keys[1, starts], keys[2, starts],
            np.logical_or.reduceat(good[rows], starts))


class MarkovChain:
    """Finite Markov chain; locations coincide with MDP state indices.

    `P` holds the transitions as a CSR matrix, locations x locations. Build
    a chain from `rows`, one (succs, probs) pair per location, or from `P`;
    `rows` is derived from `P` on first use, in the order of its entries.
    """

    def __init__(self, n: int, rows=None, init: int = 0, *,
                 P: Optional[sp.csr_matrix] = None):
        self.n = n
        self.init = init
        if P is None:
            lengths = np.fromiter((len(succs) for succs, _ in rows), np.int64, n)
            nnz = int(lengths.sum())
            P = sp.csr_matrix(
                (np.fromiter(chain.from_iterable(p for _, p in rows), np.float64, nnz),
                 np.fromiter(chain.from_iterable(s for s, _ in rows), np.int64, nnz),
                 np.concatenate(([0], np.cumsum(lengths)))), shape=(n, n))
        self.P = P

    @cached_property
    def rows(self) -> Tuple[Tuple[Tuple[int, ...], Tuple[float, ...]], ...]:
        ptr = self.P.indptr.tolist()
        ind, data = self.P.indices.tolist(), self.P.data.tolist()
        return tuple((tuple(ind[a:b]), tuple(data[a:b])) for a, b in zip(ptr, ptr[1:]))


@dataclass
class Mec:
    """Maximal end component: states plus, per state, its internal actions."""

    states: FrozenSet[int]
    actions: Dict[int, Tuple[int, ...]]  # state -> indices into mdp.actions[s]

    def __post_init__(self):
        self.states = frozenset(self.states)


class LiberalStrategy:
    """Partial map state -> non-empty set of action indices; absent = don't-care.

    Don't-care states are read as the uniform distribution over Act(s). The
    map is held as the `choice` dict, or as masks over the action rows and
    states of one model's SparseView (`from_rows`); either form is derived
    from the other once, on first use, so the map must not change after it.
    """

    def __init__(self, choice: Optional[Dict[int, FrozenSet[int]]] = None):
        self._choice = {} if choice is None else choice
        self._rows = None  # (mdp, row mask, defined-state mask)

    @classmethod
    def from_rows(cls, mdp: Mdp, selected: np.ndarray,
                  defined: np.ndarray) -> "LiberalStrategy":
        """Defined at the states in `defined`, choosing their `selected` rows."""
        out = cls()
        out._choice = None
        out._rows = (mdp, selected | ~defined[mdp.sparse.row_state], defined)
        return out

    @property
    def choice(self) -> Dict[int, FrozenSet[int]]:
        if self._choice is None:
            mdp, mask, defined = self._rows
            v = mdp.sparse
            rows = np.flatnonzero(mask & defined[v.row_state])
            owner = v.row_state[rows]
            picked: Dict[int, List[int]] = {}
            for s, i in zip(owner.tolist(), (rows - v.row_start[owner]).tolist()):
                picked.setdefault(s, []).append(i)
            self._choice = {s: frozenset(acts) for s, acts in picked.items()}
        return self._choice

    def row_mask(self, mdp: Mdp) -> np.ndarray:
        """Rows of `mdp.sparse` in play: the chosen ones, all rows of open states."""
        if self._rows is None or self._rows[0] is not mdp:
            v = mdp.sparse
            choice = self.choice
            states = np.fromiter(choice, np.int64, len(choice))
            sizes = np.fromiter(map(len, choice.values()), np.int64, len(choice))
            local = np.fromiter(chain.from_iterable(choice.values()), np.int64,
                                int(sizes.sum()))
            owner = np.repeat(states, sizes)
            if np.any((local < 0) | (local >= np.diff(v.row_start)[owner])):
                raise MdpError("strategy chooses an action index out of range")
            defined = np.zeros(mdp.n_states, dtype=bool)
            defined[states] = True
            mask = ~defined[v.row_state]
            mask[v.row_start[owner] + local] = True
            self._rows = (mdp, mask, defined)
        return self._rows[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, LiberalStrategy) and self.choice == other.choice

    def is_defined(self, s: int) -> bool:
        return s in self.choice

    def actions_at(self, mdp: Mdp, s: int) -> Tuple[int, ...]:
        got = self.choice.get(s)
        if got is None:
            return tuple(range(mdp.sparse.row_start[s + 1] - mdp.sparse.row_start[s]))
        return tuple(sorted(got))

    def good_pairs(self, mdp: Mdp) -> List[Tuple[int, ActionAttr]]:
        """Distinct (state, attribute) pairs selected at defined states."""
        self.row_mask(mdp)
        state, name, module, good = distinct_attrs(mdp, self._rows[2], self._rows[1])
        names = mdp.action_names
        return [(s, ActionAttr(names[a], m))
                for s, a, m in zip(state[good].tolist(), name[good].tolist(),
                                   module[good].tolist())]


# --------------------------------------------------------------------------
# Graph search. A graph is a square sparse matrix whose stored entry (u, v)
# is an edge u -> v; search backward by searching its transpose.

def reachable(graph: sp.spmatrix, sources) -> np.ndarray:
    """Boolean mask of the nodes reachable from `sources`, sources included."""
    g = sp.csr_matrix(graph)
    n = g.shape[0]
    src = np.fromiter(sources, np.int64)
    # one extra node with an edge to every source makes a single-source search
    indices = np.concatenate((g.indices, src))
    indptr = np.append(g.indptr, len(indices))
    g = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n + 1, n + 1))
    mask = np.zeros(n + 1, dtype=bool)
    mask[csgraph.breadth_first_order(g, n, return_predecessors=False)] = True
    return mask[:n]


def strong_components(graph: sp.csr_matrix) -> np.ndarray:
    """Strongly connected component of each node, numbered by smallest member."""
    _, labels = csgraph.connected_components(graph, directed=True, connection="strong")
    first = np.unique(labels, return_index=True)[1]
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[labels]


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The concatenation of arange(a, b) over the pairs of starts and stops."""
    lengths = stops - starts
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


@dataclass(frozen=True)
class MecDecomposition:
    """Maximal end components of one model, as arrays over its SparseView.

    MECs are numbered by their smallest member state. A row is internal when
    its state lies in a MEC and every successor lies in the same MEC; these
    are the actions that keep a run inside the component.
    """

    mec_of: np.ndarray  # (states,) MEC id of each state, -1 outside every MEC
    internal: np.ndarray  # (rows,) bool
    count: int

    def touching(self, states: np.ndarray) -> np.ndarray:
        """(count,) bool: the MECs holding one of the states in the mask."""
        return np.bincount(self.mec_of[states & (self.mec_of >= 0)],
                           minlength=self.count) > 0

    def to_list(self, mdp: Mdp) -> List[Mec]:
        """The MECs as `Mec` objects, in id order."""
        v = mdp.sparse
        members: List[List[int]] = [[] for _ in range(self.count)]
        for s in np.flatnonzero(self.mec_of >= 0).tolist():
            members[self.mec_of[s]].append(s)
        rows = np.flatnonzero(self.internal)
        owner = v.row_state[rows]
        acts: Dict[int, List[int]] = {}
        for s, i in zip(owner.tolist(), (rows - v.row_start[owner]).tolist()):
            acts.setdefault(s, []).append(i)
        return [Mec(frozenset(m), {s: tuple(acts[s]) for s in m}) for m in members]


def mec_decompose(mdp: Mdp, restrict=None) -> MecDecomposition:
    """Maximal end components, by the fixpoint of de Alfaro (1997).

    Every state starts in one candidate. Each round keeps the rows whose
    successors all share their state's candidate, drops states left with no
    such row, and splits the candidates into the strongly connected
    components of the kept rows; it stops when a round changes nothing. A
    singleton without a self-looping row loses its rows in the next round.
    `restrict` limits the search to a set of states (rows reaching outside
    it count as leaving), and the work to their rows.
    """
    v = mdp.sparse
    if restrict is None:
        states = np.arange(mdp.n_states)
    else:
        states = np.unique(np.fromiter(restrict, np.int64))
    m = len(states)
    rows = _ranges(v.row_start[states], v.row_start[states + 1])
    owner = np.repeat(np.arange(m), v.row_start[states + 1] - v.row_start[states])
    ptr = v.branches.indptr
    entry_row = np.repeat(np.arange(len(rows)), ptr[rows + 1] - ptr[rows])
    entry_owner = owner[entry_row]
    local = np.full(mdp.n_states, m)  # m stands for every state outside `states`
    local[states] = np.arange(m)
    col = local[v.branches.indices[_ranges(ptr[rows], ptr[rows + 1])]]
    cand = np.zeros(m, dtype=np.int64)
    while True:
        padded = np.append(cand, -2)  # the outside never matches a candidate
        leaving = padded[col] != cand[entry_owner]
        keep = (cand[owner] >= 0) & (np.bincount(entry_row[leaving], minlength=len(rows)) == 0)
        alive = np.bincount(owner[keep], minlength=m) > 0
        kept = keep[entry_row]
        # rows and their entries are in state order, so the kept entries form CSR rows
        graph = sp.csr_matrix(
            (np.ones(int(kept.sum()), dtype=bool), col[kept],
             np.concatenate(([0], np.cumsum(np.bincount(entry_owner[kept], minlength=m))))),
            shape=(m, m))
        new = np.where(alive, strong_components(graph), -1)
        if np.array_equal(new, cand):
            break
        cand = new
    ids = np.unique(cand[cand >= 0])
    mec_of = np.full(mdp.n_states, -1, dtype=np.int64)
    mec_of[states] = np.where(cand >= 0, np.searchsorted(ids, cand), -1)
    internal = np.zeros(len(v.row_state), dtype=bool)
    internal[rows] = keep
    return MecDecomposition(mec_of, internal, len(ids))


def induce_chain(mdp: Mdp, strategy: LiberalStrategy) -> MarkovChain:
    """Markov chain of the uniform randomization over the selected actions.

    One sparse product: row s of the selection matrix weighs each selected
    row of s by w = 1/|choice|, so entry (s, t) sums w*p over the selected
    rows in row order, the order a per-state accumulation would use.
    """
    v = mdp.sparse
    rows = np.flatnonzero(strategy.row_mask(mdp))
    owner = v.row_state[rows]
    counts = np.bincount(owner, minlength=mdp.n_states)
    empty = np.flatnonzero(counts == 0)
    if len(empty):
        raise MdpError(f"strategy defines an empty action set at state {empty[0]}")
    select = sp.csr_matrix((1.0 / counts[owner], rows, np.concatenate(([0], np.cumsum(counts)))),
                           shape=(mdp.n_states, len(v.row_state)))
    P = select @ v.branches
    P.sort_indices()
    return MarkovChain(mdp.n_states, init=mdp.initial, P=P)


def reach_exact(chain: MarkovChain, targets, *, direct_cutoff: int = 50000,
                tol: float = 1e-12) -> np.ndarray:
    """Exact reachability probabilities Pr_l[<> targets] for every location.

    Zero set by graph search, then a sparse linear solve on the remaining
    locations (direct below `direct_cutoff` unknowns, else Jacobi iteration
    to residual < tol; convergence is geometric since every non-zero-set
    location almost surely enters targets-or-zero-set). Each location's
    target mass is summed in the order of its row in `chain.P`.
    """
    is_target = np.zeros(chain.n, dtype=bool)
    is_target[np.fromiter(targets, np.int64)] = True
    vals = is_target.astype(np.float64)
    if not is_target.any():
        return vals
    unknown = reachable(chain.P.T, np.flatnonzero(is_target)) & ~is_target
    m = int(unknown.sum())
    if not m:
        return vals
    rows = chain.P[np.flatnonzero(unknown)]
    owner = np.repeat(np.arange(m), np.diff(rows.indptr))
    hit, keep = is_target[rows.indices], unknown[rows.indices]
    b = np.bincount(owner[hit], weights=rows.data[hit], minlength=m)
    pos = np.cumsum(unknown) - 1
    A = sp.csr_matrix(
        (rows.data[keep], pos[rows.indices[keep]],
         np.concatenate(([0], np.cumsum(np.bincount(owner[keep], minlength=m))))),
        shape=(m, m))
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
    vals[unknown] = np.clip(x, 0.0, 1.0)
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


def build_quotient(mdp: Mdp, mecs: MecDecomposition) -> Quotient:
    """Collapse every MEC into one node; its internal rows vanish.

    Nodes are numbered in order of their smallest state. The rows of R are
    the external rows grouped by owner node, in state and action order
    within a node; branches into one node are added in declaration order.
    """
    v = mdp.sparse
    n = mdp.n_states
    members = np.flatnonzero(mecs.mec_of >= 0)
    # MECs are numbered by smallest member, so their first members come in id order
    first = members[np.unique(mecs.mec_of[members], return_index=True)[1]]
    rep = np.arange(n)
    rep[members] = first[mecs.mec_of[members]]
    head = rep == np.arange(n)
    node_of = (np.cumsum(head) - 1)[rep]
    q = int(head.sum())

    target_nodes = np.zeros(q, dtype=bool)
    target_nodes[node_of[v.is_target]] = True

    row_node = node_of[v.row_state]
    sel = np.flatnonzero(~mecs.internal & ~target_nodes[row_node])
    sel = sel[np.argsort(row_node[sel], kind="stable")]
    ptr = v.branches.indptr
    entries = _ranges(ptr[sel], ptr[sel + 1])
    row = np.repeat(np.arange(len(sel)), ptr[sel + 1] - ptr[sel])
    key = row * q + node_of[v.branches.indices[entries]]
    order = np.argsort(key, kind="stable")
    key = key[order]
    first_of_group = np.ones(len(key), dtype=bool)
    first_of_group[1:] = key[1:] != key[:-1]
    group_key = key[first_of_group]
    # bincount adds the branches of each (row, node) group in the stable order
    R = sp.csr_matrix(
        (np.bincount(np.cumsum(first_of_group) - 1, weights=v.branches.data[entries[order]]),
         group_key % q,
         np.concatenate(([0], np.cumsum(np.bincount(group_key // q, minlength=len(sel)))))),
        shape=(len(sel), q))
    owners, starts = np.unique(row_node[sel], return_index=True)
    has_rows = np.zeros(q, dtype=bool)
    has_rows[owners] = True

    frozen = np.zeros(q)
    frozen[target_nodes] = 1.0

    # nodes that cannot reach a target node under any action get upper bound 0;
    # rows of target nodes are left out of R, which a backward search from
    # the targets never needs
    edges = sp.csr_matrix((R.data, (np.repeat(row_node[sel], np.diff(R.indptr)), R.indices)),
                          shape=(q, q))
    reach_mask = reachable(edges.T, np.flatnonzero(target_nodes))

    return Quotient(
        num_nodes=q,
        node_of=node_of,
        R=R,
        row_starts=starts.astype(np.int64),
        nodes_with_rows=owners.astype(np.int64),
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
