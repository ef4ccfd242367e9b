"""MDP and strategy types, MEC decomposition and exact reachability.

States are integer vectors over declared variables, stored by index. Actions
carry an attribute (name, module); module 0 marks synchronizing actions.
Target states are absorbing (a single self-loop); the row assembly in
`build` enforces it and `Mdp.validate` checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, NamedTuple, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

TAU = "tau"  # attribute name of the self-loop placed on absorbing target states
ROW_SUM_TOL = 1e-9  # how far an action's probabilities may sum from 1

_MASK64 = (1 << 64) - 1
_INT64 = np.iinfo(np.int64)
GOLDEN64 = 0x9E3779B97F4A7C15  # splitmix64 counter increment


def splitmix64(z):
    """The splitmix64 finalizer of z, a Python int below 2**64 or a numpy
    uint64 array, which it leaves as it is. uint64 steps wrap modulo 2**64
    by themselves, so no step needs a mask."""
    u = np.array(z, dtype=np.uint64, copy=None, ndmin=1)
    a = u >> 30
    a ^= u
    a *= 0xBF58476D1CE4E5B9
    a ^= a >> 27
    a *= 0x94D049BB133111EB
    a ^= a >> 31
    return a if isinstance(z, np.ndarray) else int(a[0])


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


@dataclass(frozen=True, eq=False)
class Mdp:
    """Explicit MDP over vector-valued states with an absorbing target set,
    stored as arrays in the sparse row-grouped layout of PRISM and Storm.

    Action rows are numbered state by state in declaration order, so the
    rows of state s are row_start[s]:row_start[s + 1] and local action i of
    s is row row_start[s] + i.
    """

    var_decls: Tuple[Tuple[str, int, int], ...]  # (name, lo, hi) per coordinate
    row_start: np.ndarray  # (states + 1,) offset of each state's first row
    row_state: np.ndarray  # (rows,) owning state of each row
    branches: sp.csr_matrix  # rows x states, successors in declaration order
    action_id: np.ndarray  # (rows,) index into action_names
    module: np.ndarray  # (rows,) owning module
    valuation: np.ndarray  # states x variables
    is_target: np.ndarray  # (states,) bool
    action_names: Tuple[str, ...]  # sorted names of the actions that occur
    initial: int
    module_count: int = 1

    @property
    def n_states(self) -> int:
        return len(self.row_start) - 1

    @cached_property
    def row_valuation(self) -> np.ndarray:
        """The valuation of each action row's state, variables x rows."""
        return np.ascontiguousarray(self.valuation.T[:, self.row_state])

    @cached_property
    def actions(self) -> Tuple[range, ...]:
        """The range of action rows of each state."""
        start = self.row_start.tolist()
        return tuple(map(range, start[:-1], start[1:]))

    def validate(self):
        """Check the arrays' structure; report the first offending state.

        Every check runs on whole arrays. The message is then worked out for
        the first state that fails one, in the order: variable ranges,
        deadlock, each action's distribution, absorbing targets.
        """
        n = self.n_states
        if not (0 <= self.initial < n):
            raise MdpError("initial state out of range")
        width = len(self.var_decls)
        if self.valuation.shape != (n, width):
            raise MdpError(f"valuation of shape {self.valuation.shape}, not ({n}, {width})")
        # the valuation is int64, so bounds past that range constrain nothing
        lo = np.array([max(lo, _INT64.min) for _, lo, _ in self.var_decls], dtype=np.int64)
        hi = np.array([min(hi, _INT64.max) for _, _, hi in self.var_decls], dtype=np.int64)
        outside = (self.valuation < lo) | (self.valuation > hi)
        counts = np.diff(self.row_start)
        ptr, succ, prob = self.branches.indptr, self.branches.indices, self.branches.data
        lengths = np.diff(ptr)
        rows = len(lengths)
        entry_row = np.repeat(np.arange(rows), lengths)
        # a mat-vec adds each row left to right, as sum() does; a single
        # column keeps out-of-range successors from being read
        total = sp.csr_matrix((prob, np.zeros_like(succ), ptr), shape=(rows, 1)) @ np.ones(1)
        # clipped, out-of-range successors (bad rows anyway) cannot overflow the key
        order, first_of = branch_groups(entry_row, np.clip(succ, 0, n - 1), n)
        # written so that a NaN probability fails both checks
        row_bad = ((lengths == 0) | ~(np.abs(total - 1.0) <= ROW_SUM_TOL)
                   | _hits(entry_row[~(prob > 0)], rows)
                   | _hits(entry_row[order[~first_of]], rows)
                   | _hits(entry_row[(succ < 0) | (succ >= n)], rows))
        first = self.row_start[:-1]
        one = np.flatnonzero(counts == 1)
        single = one[lengths[first[one]] == 1]
        absorbing = np.zeros(n, dtype=bool)
        absorbing[single] = succ[ptr[first[single]]] == single
        bad = (outside.any(axis=1) | (counts == 0) | _hits(self.row_state[row_bad], n)
               | (self.is_target & ~absorbing))
        if not bad.any():
            return self
        s = int(np.flatnonzero(bad)[0])
        if outside[s].any():
            j = int(np.flatnonzero(outside[s])[0])
            name, lo, hi = self.var_decls[j]
            raise MdpError(f"state {s}: {name}={self.valuation[s, j]} outside [{lo}..{hi}]")
        if counts[s] == 0:
            raise MdpError(f"state {s} has no enabled action (deadlock)")
        for r in range(self.row_start[s], self.row_start[s + 1]):
            a, b = ptr[r], ptr[r + 1]
            if a == b:
                raise MdpError(f"state {s}: malformed distribution")
            if not abs(total[r] - 1.0) <= ROW_SUM_TOL:
                raise MdpError(f"state {s}, action {self.action_names[self.action_id[r]]}: "
                               f"probabilities sum to {float(total[r])}")
            if not (prob[a:b] > 0).all():
                raise MdpError(f"state {s}: non-positive branch probability")
            if len(np.unique(succ[a:b])) < b - a:
                raise MdpError(f"state {s}: duplicate successor in distribution")
            if ((succ[a:b] < 0) | (succ[a:b] >= n)).any():
                raise MdpError(f"state {s}: successor out of range")
        raise MdpError(f"target state {s} is not absorbing")



def _hits(items: np.ndarray, size: int) -> np.ndarray:
    """(size,) bool: the indices that occur in `items`."""
    return np.bincount(items, minlength=size) > 0


def branch_groups(entry_row: np.ndarray, succ: np.ndarray, n: int):
    """Branches sorted by (row, successor), stably, and the first of each group.

    Successors lie in [0, n). Returns the sort order, in which a repeated
    successor keeps branch order, and a mask over it that marks where each
    (row, successor) pair starts.
    """
    key = entry_row * n + succ
    order = np.argsort(key, kind="stable")
    first_of = np.ones(len(order), dtype=bool)
    first_of[1:] = np.diff(key[order]) != 0
    return order, first_of


def distinct_attrs(mdp: Mdp, states: np.ndarray, good: np.ndarray):
    """The distinct (state, action id, module) triples of the rows of `states`.

    `states` is a mask over states and `good` one over rows. Returns four
    arrays sorted by state, then action name, then module; the last tells
    whether a `good` row carries the triple. Action ids rank the names, so
    sorting ids sorts names.
    """
    rows = np.flatnonzero(states[mdp.row_state])
    rows = rows[np.lexsort((mdp.module[rows], mdp.action_id[rows], mdp.row_state[rows]))]
    keys = np.stack((mdp.row_state[rows], mdp.action_id[rows], mdp.module[rows]))
    starts = np.flatnonzero(np.concatenate(([True], (np.diff(keys, axis=1) != 0).any(axis=0))))
    if not len(rows):
        return keys[0], keys[1], keys[2], np.zeros(0, dtype=bool)
    return (keys[0, starts], keys[1, starts], keys[2, starts],
            np.logical_or.reduceat(good[rows], starts))


class LiberalStrategy:
    """Partial map state -> non-empty set of action indices of one model;
    absent = don't-care.

    Don't-care states are read as the uniform distribution over Act(s). The
    map is stored as two masks over the model's arrays: `defined`, the
    states it covers, and `rows`, the action rows in play, which are the
    chosen rows of defined states and every row of an open state.
    """

    def __init__(self, mdp: Mdp, selected: np.ndarray, defined: np.ndarray):
        """Defined at the states in `defined`, choosing their `selected` rows."""
        self.mdp = mdp
        self.rows = selected | ~defined[mdp.row_state]
        self.defined = defined

    def good_pairs(self) -> List[Tuple[int, ActionAttr]]:
        """Distinct (state, attribute) pairs selected at defined states."""
        state, name, module, good = distinct_attrs(self.mdp, self.defined, self.rows)
        names = self.mdp.action_names
        return [(s, ActionAttr(names[a], m))
                for s, a, m in zip(state[good].tolist(), name[good].tolist(),
                                   module[good].tolist())]


# --------------------------------------------------------------------------
# Graph search. A graph is a square sparse matrix whose stored entry (u, v)
# is an edge u -> v; search backward by searching its transpose.

def breadth_first(graph: sp.spmatrix, sources) -> np.ndarray:
    """The nodes reachable from `sources` in breadth-first order: the
    sources, then the rest by their distance from the sources."""
    g = sp.csr_matrix(graph)
    n = g.shape[0]
    src = np.fromiter(sources, np.int64)
    # one extra node with an edge to every source makes a single-source search
    indices = np.concatenate((g.indices, src))
    indptr = np.append(g.indptr, len(indices))
    g = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n + 1, n + 1))
    return csgraph.breadth_first_order(g, n, return_predecessors=False)[1:]


def reachable(graph: sp.spmatrix, sources) -> np.ndarray:
    """Boolean mask of the nodes reachable from `sources`, sources included."""
    mask = np.zeros(graph.shape[0], dtype=bool)
    mask[breadth_first(graph, sources)] = True
    return mask


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
    """Maximal end components of one model, as arrays over its states and rows.

    MECs are numbered by their smallest member state. A row is internal when
    its state lies in a MEC and every successor lies in the same MEC; these
    are the actions that keep a run inside the component. A target is
    absorbing, so a MEC holding one is that target alone.
    """

    mec_of: np.ndarray  # (states,) MEC id of each state, -1 outside every MEC
    internal: np.ndarray  # (rows,) bool
    count: int


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
    if restrict is None:
        states = np.arange(mdp.n_states)
    else:
        states = np.unique(np.fromiter(restrict, np.int64))
    m = len(states)
    rows = _ranges(mdp.row_start[states], mdp.row_start[states + 1])
    owner = np.repeat(np.arange(m), mdp.row_start[states + 1] - mdp.row_start[states])
    ptr = mdp.branches.indptr
    entry_row = np.repeat(np.arange(len(rows)), ptr[rows + 1] - ptr[rows])
    entry_owner = owner[entry_row]
    local = np.full(mdp.n_states, m)  # m stands for every state outside `states`
    local[states] = np.arange(m)
    col = local[mdp.branches.indices[_ranges(ptr[rows], ptr[rows + 1])]]
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
    internal = np.zeros(len(mdp.row_state), dtype=bool)
    internal[rows] = keep
    return MecDecomposition(mec_of, internal, len(ids))


def induce_chain(strategy: LiberalStrategy) -> sp.csr_matrix:
    """Transition matrix of the uniform randomization over the selected
    actions of `strategy.mdp`, states x states, with each row's entries sorted.

    One sparse product: row s of the selection matrix weighs each selected
    row of s by w = 1/|choice|, so entry (s, t) sums w*p over the selected
    rows in row order, the order a per-state accumulation would use.
    """
    mdp, n = strategy.mdp, strategy.mdp.n_states
    rows = np.flatnonzero(strategy.rows)
    owner = mdp.row_state[rows]
    counts = np.bincount(owner, minlength=n)
    empty = np.flatnonzero(counts == 0)
    if len(empty):
        raise MdpError(f"strategy defines an empty action set at state {empty[0]}")
    select = sp.csr_matrix((1.0 / counts[owner], rows, np.concatenate(([0], np.cumsum(counts)))),
                           shape=(n, len(mdp.row_state)))
    P = select @ mdp.branches
    P.sort_indices()
    return P


def _unknowns(P: sp.csr_matrix, targets) -> Tuple[np.ndarray, np.ndarray]:
    """The target mask, and the locations with a path to a target, targets
    left out, nearest first.

    Everything else has value 0: the zero set of the reachability problem.
    """
    is_target = np.zeros(P.shape[0], dtype=bool)
    is_target[np.fromiter(targets, np.int64)] = True
    order = breadth_first(P.T, np.flatnonzero(is_target))
    return is_target, order[~is_target[order]]


def _equations(P: sp.csr_matrix, is_target: np.ndarray, states: np.ndarray):
    """x = A x + b over `states`, in their order, in one pass: A's entries as
    (row, column, value), column -1 off `states`, b, and each row's mass off
    its own location.

    b sums each row's target mass in the order of its row in P. The mass
    off the diagonal is added up from the other entries, so a self-loop
    close to 1 does not cancel it away.
    """
    m = len(states)
    ptr = P.indptr
    entries = _ranges(ptr[states], ptr[states + 1])
    row = np.repeat(np.arange(m), ptr[states + 1] - ptr[states])
    succ, p = P.indices[entries], P.data[entries]
    pos = np.full(P.shape[0], -1)
    pos[states] = np.arange(m)
    col = pos[succ]
    hit = is_target[succ]
    # adding the diagonal's 0.0 leaves each row's sum as it is
    return (row, col, p, np.bincount(row[hit], weights=p[hit], minlength=m),
            np.bincount(row, weights=np.where(col != row, p, 0.0), minlength=m))


def _system(row, col, p, off, keep) -> sp.csc_matrix:
    """diag(off) - A, A the entries of `_equations` in `keep`. Every unknown
    reaches a target, so off > 0 and the rows are diagonally dominant: an
    M-matrix, whose pivots stay positive under any symmetric permutation."""
    m, diag = len(off), np.arange(len(off))
    return sp.csc_matrix((np.concatenate((off, -p[keep])), (
        np.concatenate((diag, row[keep])), np.concatenate((diag, col[keep])))), shape=(m, m))


def _sweeps(P: sp.csr_matrix, is_target: np.ndarray, states: np.ndarray,
            upper: np.ndarray) -> Iterator[np.ndarray]:
    """Gauss–Seidel interval iteration on the unknowns `states`, nearest the
    targets first (Baier et al., CAV 2017).

    Yields an (m, 2) array of lower and upper bounds [L, U] over `states`:
    the start bounds L = b (one step into a target) and U = min(1, upper),
    given sound upper bounds per location of P, then the bounds after each
    sweep. A sweep updates the states in order, each from the values already
    updated this sweep, and solves every self-loop exactly: one product with
    the strict upper part, then one triangular solve with the lower part,
    self-loops included. A sweep maps a bound to a bound, and both converge
    to the values, since every unknown leaves the unknowns almost surely.
    """
    row, col, p, b, off = _equations(P, is_target, states)
    m = len(states)
    # column-major, the layout the solve reads and returns
    X = np.asfortranarray(np.column_stack((b, np.minimum(upper[states], 1.0))))
    yield X
    above = col > row
    # from COO, each row's entries come out by column, the order a product adds them
    ahead = sp.csr_matrix((p[above], (row[above], col[above])), shape=(m, m))
    # triangular with a positive diagonal: no fill and no pivoting
    lu = spla.splu(_system(row, col, p, off, (col >= 0) & (col < row)),
                   permc_spec="NATURAL", diag_pivot_thresh=0)
    rhs = np.empty_like(X)
    while True:
        for j in range(2):
            np.add(ahead @ X[:, j], b, out=rhs[:, j])
        X = lu.solve(rhs)
        yield X


def reach_bounds(P: sp.csr_matrix, targets, at: int, upper) -> Iterator[Tuple[float, float]]:
    """Sound bounds (lower, upper) on Pr_at[<> targets] in the chain P.

    The first pair holds before any sweep, from sound upper bounds `upper`
    per location (ones, or an engine's on the optimum); each further pair
    follows one more Gauss–Seidel sweep (see `_sweeps`), and both bounds
    converge to the value. At a target or in the zero set the one pair is exact.
    """
    is_target, states = _unknowns(P, targets)
    i = np.flatnonzero(states == at)
    if not len(i):
        yield float(is_target[at]), float(is_target[at])
        return
    for X in _sweeps(P, is_target, states, upper):
        yield float(X[i[0], 0]), float(X[i[0], 1])


ITERATE_SWEEPS = 5_000_000  # sweep budget of interval_iterate


def reach_exact(P: sp.csr_matrix, targets) -> np.ndarray:
    """Exact reachability probabilities Pr_l[<> targets] in the chain with
    transition matrix P, for every location.

    Zero set by graph search, then one sparse direct solve on the remaining
    locations. It factors the matrix `_system` makes, which renormalises
    each row, in SuperLU's minimum-degree order on Aᵀ + A, without pivoting.
    Each location's target mass is summed in the order of its row in P.
    Rows of targets are never read.
    """
    is_target, states = _unknowns(P, targets)
    vals = is_target.astype(np.float64)
    if not len(states):
        return vals
    states = np.sort(states)
    row, col, p, b, off = _equations(P, is_target, states)
    x = spla.splu(_system(row, col, p, off, (col >= 0) & (col != row)),
                  permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                  options=dict(SymmetricMode=True)).solve(b)
    vals[states] = np.clip(x, 0.0, 1.0)
    return vals


# --------------------------------------------------------------------------
# MEC quotient and interval iteration (shared by the exact oracle and the
# value-iteration engine).

@dataclass
class Quotient:
    """The MEC quotient of a model, its action rows laid out slot-major.

    Nodes are numbered in sweep order: the nodes with rows first, by
    descending row count, then the rest; ties go by smallest state. Rows
    bounds[j]:bounds[j + 1] of R hold the j-th row of each node with more
    than j rows, which is a prefix of the numbering.
    """

    num_nodes: int
    node_of: np.ndarray  # state -> node
    R: sp.csr_matrix  # action rows x nodes, slot-major
    bounds: np.ndarray  # offsets of the slot blocks into the rows of R
    target_nodes: np.ndarray  # bool mask; target nodes have no rows
    zero_nodes: np.ndarray  # bool mask: no path to a target node


def build_quotient(mdp: Mdp, mecs: MecDecomposition) -> Quotient:
    """Collapse every MEC into one node; its internal rows vanish.

    The rows of R are the external rows, a node's rows in state and action
    order across its slots; branches into one node are added in declaration
    order. A row keeps its nodes in order of smallest state (see `Quotient`).
    """
    n = mdp.n_states
    members = np.flatnonzero(mecs.mec_of >= 0)
    # MECs are numbered by smallest member, so their first members come in id order
    first = members[np.unique(mecs.mec_of[members], return_index=True)[1]]
    rep = np.arange(n)
    rep[members] = first[mecs.mec_of[members]]
    head = rep == np.arange(n)
    node_of = (np.cumsum(head) - 1)[rep]  # by smallest state until renumbered
    q = int(head.sum())

    target_nodes = np.zeros(q, dtype=bool)
    target_nodes[node_of[mdp.is_target]] = True

    row_node = node_of[mdp.row_state]
    sel = np.flatnonzero(~mecs.internal & ~target_nodes[row_node])
    sel = sel[np.argsort(row_node[sel], kind="stable")]
    owners, starts, counts = np.unique(row_node[sel], return_index=True, return_counts=True)
    by_count = np.argsort(-counts, kind="stable")
    width = int(counts.max(initial=0))
    # nodes with more than j rows, for each slot j
    sizes = np.searchsorted(-counts[by_count], -np.arange(width), side="left")
    sel = sel[starts[by_count][_ranges(np.zeros(width, dtype=np.int64), sizes)]
              + np.repeat(np.arange(width), sizes)]
    ptr = mdp.branches.indptr
    entries = _ranges(ptr[sel], ptr[sel + 1])
    row = np.repeat(np.arange(len(sel)), ptr[sel + 1] - ptr[sel])
    col = node_of[mdp.branches.indices[entries]]
    order, first_of = branch_groups(row, col, q)
    lead = order[first_of]  # the first branch of each (row, node) group
    sweep = np.concatenate((owners[by_count],
                            np.setdiff1d(np.arange(q), owners, assume_unique=True)))
    new = np.empty_like(sweep)
    new[sweep] = np.arange(q)
    # bincount adds the branches of each (row, node) group in the stable order
    R = sp.csr_matrix(
        (np.bincount(np.cumsum(first_of) - 1, weights=mdp.branches.data[entries[order]]),
         new[col[lead]],
         np.concatenate(([0], np.cumsum(np.bincount(row[lead], minlength=len(sel)))))),
        shape=(len(sel), q))
    # nodes that cannot reach a target node get upper bound 0, among them every
    # node without rows but the targets; rows of target nodes are left out
    # of R, which a backward search from the targets never needs
    edges = sp.csr_matrix(
        (R.data, (np.repeat(new[row_node[sel]], np.diff(R.indptr)), R.indices)), shape=(q, q))
    target_nodes = target_nodes[sweep]
    reach_mask = reachable(edges.T, np.flatnonzero(target_nodes))

    return Quotient(
        num_nodes=q,
        node_of=new[node_of],
        R=R,
        bounds=np.append(0, np.cumsum(sizes)),
        target_nodes=target_nodes,
        zero_nodes=~reach_mask,
    )


def interval_iterate(q: Quotient, *, eps: float,
                     stop_node: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """Synchronous lower/upper Bellman sweeps on the (EC-free) quotient.

    Stops when U-L at `stop_node` drops below eps, and raises MdpError after
    ITERATE_SWEEPS sweeps; a NaN gap never stops it. Returns (L, U, sweeps)
    over the nodes. It reads `q` as `build_quotient` left it: the nodes
    with rows come first, so each update is a write to a prefix.
    """
    R, bounds = q.R, q.bounds
    # a node without rows keeps its start bounds, 1 at a target and 0 elsewhere
    L = q.target_nodes.astype(np.float64)
    U = (~q.zero_nodes).astype(np.float64)
    k = int(bounds[1]) if len(bounds) > 1 else 0  # the nodes with rows

    def best(values: np.ndarray) -> np.ndarray:
        """Largest row value of each node with rows."""
        rows = R.dot(values)
        out = rows[:k]
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            np.maximum(out[:hi - lo], rows[lo:hi], out=out[:hi - lo])
        return out

    sweeps = 0
    while not (U[stop_node] - L[stop_node] < eps):
        if sweeps >= ITERATE_SWEEPS:
            raise MdpError("interval iteration exceeded sweep budget")
        np.maximum(L[:k], best(L), out=L[:k])
        np.minimum(U[:k], best(U), out=U[:k])
        sweeps += 1
    return L, U, sweeps
