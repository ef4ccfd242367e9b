"""Estimating how much each state matters to a strategy by simulation.

A state is important if the runs that actually reach the target pass
through it. The default measure is the probability of visiting the state
conditioned on reaching the target; variants use unconditional visits or
expected visit counts instead. Weights feed two downstream decisions: which
states enter the training set at all, and how often a row is repeated so
the tree learner pays proportional attention.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .core import (GOLDEN64, LiberalStrategy, Mdp, MdpError, derive_seed,
                   distinct_attrs, induce_chain, reachable, splitmix64)

VARIANTS = ("DP", "DE", "AP", "AE")


@dataclass
class RunStats:
    """Visit counts from a batch of simulated runs.

    Per state: runs that visited it / total visits, once over runs that
    reached the target and once over all runs. `truncated_runs` counts the
    runs cut off at the step cap, `max_steps` (`MAX_STEPS` when they were
    walked), before they reached the target or a state that cannot reach it.
    """

    n_states: int
    total_runs: int = 0
    target_runs: int = 0
    truncated_runs: int = 0
    visited_cond_count: np.ndarray = field(default=None)
    visited_cond_mult: np.ndarray = field(default=None)
    visited_all_count: np.ndarray = field(default=None)
    visited_all_mult: np.ndarray = field(default=None)
    max_steps: Optional[int] = None

    def __post_init__(self):
        for f in fields(self)[4:8]:  # the visit arrays
            if getattr(self, f.name) is None:
                setattr(self, f.name, np.zeros(self.n_states, dtype=np.int64))

    def merge(self, other: "RunStats") -> "RunStats":
        """The stats of both batches together, as `simulate` adds up its
        blocks. Both must count the same states under the same step cap."""
        if other.n_states != self.n_states:
            raise ValueError("cannot merge stats over different state spaces")
        if other.max_steps != self.max_steps:
            raise ValueError("cannot merge stats walked under different step caps")
        return RunStats(self.n_states, *(getattr(self, f.name) + getattr(other, f.name)
                                         for f in fields(self)[1:8]), self.max_steps)


MAX_STEPS = 1_000_000  # steps a simulated run takes at most
_BLOCK = 2048  # runs walked in lockstep at a time
_PENDING = 1 << 18  # visit keys held before they are sorted and counted


def simulate(strategy: LiberalStrategy, runs: int, *, seed: int = 0) -> RunStats:
    """Sample runs of the chain induced in `strategy.mdp` from the initial state.

    A run ends on reaching the target, on entering a state from which the
    chain cannot reach the target anymore, or after `MAX_STEPS` steps (read
    at the call). Runs are walked in lockstep, `_BLOCK` at a time, and the
    blocks are merged. Each run draws from its own splitmix64 stream keyed
    by (seed, run index), so the stats do not depend on the block size.
    """
    mdp = strategy.mdp
    P = induce_chain(strategy)
    n = mdp.n_states
    is_target = mdp.is_target
    live = reachable(P.T, np.flatnonzero(is_target)) & ~is_target  # a run at s moves on
    # running sums along each row, added left to right as `acc += p` would
    cum, rows, width = P.data.copy(), np.flatnonzero(np.diff(P.indptr) > 1), 1
    while len(rows):
        at = P.indptr[rows] + width
        cum[at] += cum[at - 1]
        width += 1
        rows = rows[P.indptr[rows + 1] - P.indptr[rows] > width]
    # column j: each row's j-th running sum, or 2.0 past its last-but-one;
    # no more entries than the chain has branches
    last = np.diff(P.indptr) - 1
    table = np.full((min(width - 1, P.nnz // n), n), 2.0)
    for j, col in enumerate(table):
        has = np.flatnonzero(last > j)
        col[has] = cum[P.indptr[has] + j]
    wide = last > len(table)
    wide = wide if wide.any() else None
    rounds = (width - 1 - len(table)).bit_length()

    ptr, succ = P.indptr.astype(np.intp), P.indices.astype(np.intp)  # gathers index by intp

    def pick(s, x):
        """The successor of a run at s that drew x in [0, 1): the first one
        whose running sum exceeds x, or the last one. Its place in the row
        is the count of the row's sums in `table` that are at most x. A run
        past all of them on a wider row finds the rest by binary search
        over the row's slice of `cum`."""
        at = ptr[s]
        for col in table:
            at += col[s] <= x
        if wide is not None:
            far = np.flatnonzero(wide[s])
            far = far[at[far] - ptr[s[far]] == len(table)]
            lo, hi, xf = at[far], ptr[s[far] + 1] - 1, x[far]
            for _ in range(rounds):
                mid = (lo + hi) >> 1
                right = (cum[mid] <= xf) & (mid < hi)
                lo, hi = np.where(right, mid + 1, lo), np.where(right, hi, mid)
            at[far] = lo
        return succ[at]

    stats = RunStats(n, max_steps=MAX_STEPS)
    for lo in range(0, runs, _BLOCK):
        stats = stats.merge(_walk(mdp, live, pick, seed, lo, min(_BLOCK, runs - lo)))
    return stats


def _walk(mdp, live, pick, seed, first, runs) -> RunStats:
    """Runs first..first+runs-1, every run still going moved once per step.
    Visit keys (run * n_states + state) are held in one buffer and sorted
    once it is full or the runs have ended."""
    n = mdp.n_states
    key, s = np.arange(runs) * n, np.full(runs, mdp.initial)
    ctr = derive_seed(seed, np.arange(first, first + runs, dtype=np.uint64))
    held, tally = np.empty(max(_PENDING, runs), np.int64), None
    held[:runs], count = key + s, runs
    for _ in range(MAX_STEPS):
        go = live[s]
        if not go.all():
            key, s, ctr = key[go], s[go], ctr[go]
            if not len(s):
                break
        ctr += GOLDEN64
        z = splitmix64(ctr)
        z >>= 11
        s = pick(s, z * 2.0 ** -53)
        if count + len(s) > len(held):
            tally, count = _fold(tally, held[:count]), 0
        np.add(key, s, out=held[count:count + len(s)])
        count += len(s)
    truncated = int(np.count_nonzero(live[s]))
    keys, mult = _fold(tally, held[:count])
    run, state = np.divmod(keys, n)
    hit = np.bincount(run[mdp.is_target[state]], minlength=runs) > 0
    cond = hit[run]

    def counts(at, weights=None):
        return np.bincount(at, weights, minlength=n).astype(np.int64)

    return RunStats(n, runs, int(np.count_nonzero(hit)), truncated,
                    counts(state[cond]), counts(state[cond], mult[cond]),
                    counts(state), counts(state, mult), MAX_STEPS)


def _fold(tally, fresh):
    """Sort the visit keys (run * n_states + state) in `fresh` in place and
    add their run lengths to `tally`, a pair (distinct keys, counts)."""
    fresh.sort()
    start = _starts(fresh)
    keys, mult = fresh[start], np.diff(start, append=len(fresh))
    if tally is not None:
        keys, mult = np.concatenate((tally[0], keys)), np.concatenate((tally[1], mult))
        order = np.argsort(keys)
        keys, mult = keys[order], mult[order]
        start = _starts(keys)
        keys, mult = keys[start], np.add.reduceat(mult, start)
    return keys, mult


def _starts(keys):
    """Where each run of equal values in the sorted `keys` starts."""
    edge = np.empty(len(keys), bool)
    edge[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:])
    return np.flatnonzero(edge)


@dataclass
class ImportanceResult:
    weights: np.ndarray
    clipped_states: int = 0


def importance_of(stats: RunStats, variant: str = "DP") -> ImportanceResult:
    """Turn visit counts into per-state weights in [0, 1].

    DP: P[visit | target reached]       DE: E[visits | target reached]
    AP: P[visit]                        AE: E[visits]
    Expected-count variants can exceed 1 on loopy chains; they get clipped
    so downstream repeat counts stay bounded, and the number of clipped
    states is reported.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown importance variant {variant!r}")
    if variant in ("DP", "DE"):
        if stats.target_runs == 0:
            raise MdpError(
                "no simulated run reached the target; conditional importance "
                "is undefined (try more runs or a larger step cap)")
        num = (stats.visited_cond_count if variant == "DP"
               else stats.visited_cond_mult)
        den = stats.target_runs
    else:
        if stats.total_runs == 0:
            raise MdpError("no runs simulated")
        num = (stats.visited_all_count if variant == "AP"
               else stats.visited_all_mult)
        den = stats.total_runs
    w = num / float(den)
    clipped = int(np.count_nonzero(w > 1.0))
    np.clip(w, 0.0, 1.0, out=w)
    return ImportanceResult(w, clipped)


# --------------------------------------------------------------------------
# Training data for the tree learner.

@dataclass(frozen=True)
class Domain:
    """Feature space shared by the tree and the binary encoding.

    Coordinates are the state variables in declaration order, then the
    action name (categorical over the names occurring in the model), then
    the owning module index (0 for synchronized and placeholder actions).
    """

    var_decls: Tuple[Tuple[str, int, int], ...]
    action_names: Tuple[str, ...]
    module_count: int

    @property
    def n_vars(self) -> int:
        return len(self.var_decls)

    def action_index(self, name: str) -> int:
        return self.action_names.index(name)

    @staticmethod
    def of(mdp: Mdp) -> "Domain":
        return Domain(mdp.var_decls, mdp.action_names, mdp.module_count)


@dataclass
class TrainingSet:
    """Labelled examples for the tree learner, one per row of `rows`.

    A row holds a state's valuation, then the index in `domain.action_names`
    and the module of one attribute of its actions, or -1, -1 for a row
    without an attribute.
    `good` labels each row and `weight` is its integer repeat count.
    """

    domain: Domain
    rows: np.ndarray  # (examples, n_vars + 2) int64
    good: np.ndarray  # (examples,) bool
    weight: np.ndarray  # (examples,) int64
    # split tables of tree nodes keyed on the bytes of their row indices,
    # filled by `dtree.learn`; valid while the arrays are unchanged
    node_tables: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def total_weight(self) -> int:
        return int(self.weight.sum())

    @cached_property
    def value_bins(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each coordinate's distinct values in turn, ascending, the
        coordinate of each, and the index of each row's value in each."""
        found = [np.unique(col, return_inverse=True) for col in self.rows.T]
        sizes = [len(values) for values, _ in found]
        return (np.concatenate([values for values, _ in found]),
                np.repeat(np.arange(len(sizes)), sizes),
                np.column_stack([at for _, at in found]) + np.cumsum([0] + sizes[:-1]))


def build_training_set(strategy: LiberalStrategy, weights: np.ndarray,
                       *, mode: str = "repeat", runs: int = 1,
                       delta: float = 0.0) -> TrainingSet:
    """Labelled (state, action attribute) examples for each weighted state of `strategy.mdp`.

    States with weight at most `delta` are left out entirely. At a kept
    state every distinct attribute among its actions yields one row, good
    iff some selected action carries it; a state the strategy leaves open
    makes all its attributes good. In `repeat` mode a row for state s is
    repeated max(1, round(runs * weight)) times, in `once` mode exactly
    once.
    """
    if mode not in ("repeat", "once"):
        raise ValueError(f"unknown training mode {mode!r}")
    mdp = strategy.mdp
    weights = np.asarray(weights, dtype=np.float64)
    kept = ~mdp.is_target & ~(weights <= delta)
    state, action, module, good = distinct_attrs(mdp, kept, strategy.rows)
    if mode == "once":
        repeat = np.ones(len(state), dtype=np.int64)
    else:
        repeat = np.maximum(1, (runs * weights[state] + 0.5).astype(np.int64))
    return TrainingSet(Domain.of(mdp), np.column_stack((mdp.valuation[state], action, module)),
                       good, repeat)
