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
from typing import List, Optional, Tuple

import numpy as np

from .core import (GOLDEN64, ActionAttr, LiberalStrategy, MarkovChain, Mdp, MdpError,
                   derive_seed, distinct_attrs, induce_chain, reach_exact, reachable,
                   splitmix64)

VARIANTS = ("DP", "DE", "AP", "AE")


@dataclass
class RunStats:
    """Visit counts from a batch of simulated runs.

    Per state: runs that visited it / total visits, once over runs that
    reached the target and once over all runs. `truncated_runs` counts the
    runs cut off at the step cap before they reached the target or a state
    that cannot reach it. Adding two RunStats gives the stats of the merged
    batch, so the result does not depend on how a batch was split.
    """

    n_states: int
    total_runs: int = 0
    target_runs: int = 0
    truncated_runs: int = 0
    visited_cond_count: np.ndarray = field(default=None)
    visited_cond_mult: np.ndarray = field(default=None)
    visited_all_count: np.ndarray = field(default=None)
    visited_all_mult: np.ndarray = field(default=None)

    def __post_init__(self):
        for f in fields(self)[4:]:  # the visit arrays
            if getattr(self, f.name) is None:
                setattr(self, f.name, np.zeros(self.n_states, dtype=np.int64))

    def merge(self, other: "RunStats") -> "RunStats":
        if other.n_states != self.n_states:
            raise ValueError("cannot merge stats over different state spaces")
        return RunStats(self.n_states, *(getattr(self, f.name) + getattr(other, f.name)
                                         for f in fields(self)[1:]))


_BLOCK = 2048  # runs walked in lockstep at a time
_PENDING = 256  # steps whose visits are held before they are tallied


def simulate(mdp: Mdp, strategy: LiberalStrategy, runs: int, *, seed: int = 0,
             max_steps: int = 1_000_000, first_run: int = 0) -> RunStats:
    """Sample runs of the induced chain from the initial state.

    A run ends on reaching the target, on entering a state from which the
    chain cannot reach the target anymore, or at the step cap. Each run
    draws from its own splitmix64 stream keyed by (seed, run index), so
    stats are identical however the batch is split across calls. Runs are
    walked in lockstep, `_BLOCK` at a time, and the blocks are merged.
    """
    P = induce_chain(mdp, strategy).P
    live = reachable(P.T, mdp.target) & ~mdp.sparse.is_target  # a run at s moves on
    # running sums along each row, added left to right as `acc += p` would
    cum, rows, width = P.data.copy(), np.flatnonzero(np.diff(P.indptr) > 1), 1
    while len(rows):
        at = P.indptr[rows] + width
        cum[at] += cum[at - 1]
        width += 1
        rows = rows[P.indptr[rows + 1] - P.indptr[rows] > width]
    stats = RunStats(mdp.n_states)
    for lo in range(0, runs, _BLOCK):
        stats = stats.merge(_walk(mdp, P, cum, width, live, seed, first_run + lo,
                                  min(_BLOCK, runs - lo), max_steps))
    return stats


def _walk(mdp, P, cum, width, live, seed, first, n, max_steps) -> RunStats:
    """Runs first..first+n-1, every run still going moved once per step:
    a run at s draws x in [0, 1) and moves to the first successor whose
    running sum exceeds x, or to the last one. A binary search over the
    row's slice of `cum`, at most `width` long, finds it."""
    run, s = np.arange(n), np.full(n, mdp.initial)
    ctr = derive_seed(seed, np.arange(first, first + n, dtype=np.uint64))
    tally, pending = (np.zeros(0, np.int64), np.zeros(0)), [run * mdp.n_states + s]
    for _ in range(max_steps):
        go = live[s]
        if not go.all():
            run, s, ctr = run[go], s[go], ctr[go]
            if not len(run):
                break
        ctr += GOLDEN64
        x = (splitmix64(ctr) >> 11) * 2.0 ** -53
        lo, hi = P.indptr[s], P.indptr[s + 1] - 1
        for _ in range((width - 1).bit_length()):
            mid = (lo + hi) >> 1
            right = (cum[mid] <= x) & (mid < hi)
            lo, hi = np.where(right, mid + 1, lo), np.where(right, hi, mid)
        s = P.indices[lo]
        pending.append(run * mdp.n_states + s)
        if len(pending) > _PENDING:
            tally, pending = _tally(tally, pending), []
    truncated = int(np.count_nonzero(live[s]))
    keys, mult = _tally(tally, pending)
    run, state = np.divmod(keys, mdp.n_states)
    hit = np.bincount(run[mdp.sparse.is_target[state]], minlength=n) > 0
    cond = hit[run]

    def counts(at, weights=None):
        return np.bincount(at, weights, minlength=mdp.n_states).astype(np.int64)

    return RunStats(mdp.n_states, n, int(np.count_nonzero(hit)), truncated,
                    counts(state[cond]), counts(state[cond], mult[cond]),
                    counts(state), counts(state, mult))


def _tally(tally, pending):
    """Merge visit keys (run * n_states + state) into (distinct keys, counts)."""
    keys, mult = tally
    fresh = np.concatenate(pending) if pending else keys[:0]
    keys, inv = np.unique(np.concatenate((keys, fresh)), return_inverse=True)
    return keys, np.bincount(inv, np.concatenate((mult, np.ones(len(fresh)))))


def simulate_batched(mdp: Mdp, strategy: LiberalStrategy, runs: int, *, seed: int = 0,
                     max_steps: int = 1_000_000, threads: int = 1) -> RunStats:
    """simulate() from run 0, the CLI's entry point; `threads` is ignored."""
    return simulate(mdp, strategy, runs, seed=seed, max_steps=max_steps)


@dataclass
class ImportanceResult:
    weights: np.ndarray
    variant: str
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
    return ImportanceResult(w, variant, clipped)


def exact_importance(mdp: Mdp, strategy: LiberalStrategy) -> np.ndarray:
    """P[visit s | target reached] in the induced chain, by linear algebra.

    The visit probability factors at the first visit: reach s, then reach
    the target from s. Both factors are plain reachability problems (the
    first one in the chain with s made absorbing).
    """
    chain = induce_chain(mdp, strategy)
    b = reach_exact(chain, mdp.target)
    if b[mdp.initial] <= 0.0:
        raise MdpError("strategy cannot reach the target; importance undefined")
    imp = np.zeros(mdp.n_states)
    for s in range(mdp.n_states):
        if b[s] == 0.0:
            continue
        rows = list(chain.rows)
        rows[s] = ((s,), (1.0,))
        cut = MarkovChain(chain.n, tuple(rows), chain.init)
        a = reach_exact(cut, [s])
        imp[s] = a[mdp.initial] * b[s] / b[mdp.initial]
    return np.clip(imp, 0.0, 1.0)


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


@dataclass(frozen=True)
class TrainRow:
    x: Tuple[int, ...]
    attr: Optional[ActionAttr]
    good: bool
    weight: int = 1


@dataclass
class TrainingSet:
    domain: Domain
    rows: List[TrainRow]

    @property
    def total_weight(self) -> int:
        return sum(r.weight for r in self.rows)

    @cached_property
    def features(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Feature matrix (variables, action name index, module; -1 without
        an attribute), labels and weights; built once, so `rows` is fixed."""
        d = self.domain
        F = np.array([tuple(r.x) + ((d.action_index(r.attr.name), r.attr.module)
                             if r.attr is not None else (-1, -1)) for r in self.rows],
                     dtype=np.int64).reshape(len(self.rows), d.n_vars + 2)
        y = np.array([r.good for r in self.rows], dtype=bool)
        w = np.array([r.weight for r in self.rows], dtype=np.float64)
        return F, y, w


def build_training_set(mdp: Mdp, strategy: LiberalStrategy, weights: np.ndarray,
                       *, mode: str = "repeat", runs: int = 1,
                       delta: float = 0.0) -> TrainingSet:
    """Labelled (state, action attribute) examples for every weighted state.

    States with weight at most `delta` are left out entirely. At a kept
    state every distinct attribute among its actions yields one row, good
    iff some selected action carries it; a state the strategy leaves open
    makes all its attributes good. In `repeat` mode a row for state s is
    repeated max(1, round(runs * weight)) times, in `once` mode exactly
    once.
    """
    if mode not in ("repeat", "once"):
        raise ValueError(f"unknown training mode {mode!r}")
    v = mdp.sparse
    kept = ~v.is_target & ~(np.asarray(weights) <= delta)
    state, action, module, good = distinct_attrs(mdp, kept, strategy.row_mask(mdp))
    names, vals = mdp.action_names, v.valuation
    rows: List[TrainRow] = []
    last = -1
    for s, a, m, g in zip(state.tolist(), action.tolist(), module.tolist(), good.tolist()):
        if s != last:
            x = tuple(vals[s].tolist())
            repeat = 1 if mode == "once" else max(1, int(runs * float(weights[s]) + 0.5))
            last = s
        rows.append(TrainRow(x, ActionAttr(names[a], m), g, repeat))
    return TrainingSet(Domain.of(mdp), rows)
