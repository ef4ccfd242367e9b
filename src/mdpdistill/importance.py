"""Estimating how much each state matters to a strategy by simulation.

A state is important if the runs that actually reach the target pass
through it. The default measure is the probability of visiting the state
conditioned on reaching the target; variants use unconditional visits or
expected visit counts instead. Weights feed two downstream decisions: which
states enter the training set at all, and how often a row is repeated so
the tree learner pays proportional attention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import (ActionAttr, LiberalStrategy, Mdp, MdpError, _MASK64,
                   derive_seed, induce_chain, reachable)

VARIANTS = ("DP", "DE", "AP", "AE")


@dataclass
class RunStats:
    """Visit counts from a batch of simulated runs.

    Per state: runs that visited it / total visits, once over runs that
    reached the target and once over all runs. Adding two RunStats gives
    the stats of the merged batch, so batches can be farmed out and the
    result does not depend on how they were split.
    """

    n_states: int
    total_runs: int = 0
    target_runs: int = 0
    visited_cond_count: np.ndarray = field(default=None)
    visited_cond_mult: np.ndarray = field(default=None)
    visited_all_count: np.ndarray = field(default=None)
    visited_all_mult: np.ndarray = field(default=None)

    def __post_init__(self):
        for name in ("visited_cond_count", "visited_cond_mult",
                     "visited_all_count", "visited_all_mult"):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(self.n_states, dtype=np.int64))

    def merge(self, other: "RunStats") -> "RunStats":
        if other.n_states != self.n_states:
            raise ValueError("cannot merge stats over different state spaces")
        return RunStats(
            self.n_states,
            self.total_runs + other.total_runs,
            self.target_runs + other.target_runs,
            self.visited_cond_count + other.visited_cond_count,
            self.visited_cond_mult + other.visited_cond_mult,
            self.visited_all_count + other.visited_all_count,
            self.visited_all_mult + other.visited_all_mult)


def simulate(mdp: Mdp, strategy: LiberalStrategy, runs: int, *, seed: int = 0,
             max_steps: int = 1_000_000, first_run: int = 0) -> RunStats:
    """Sample runs of the induced chain from the initial state.

    A run ends on reaching the target, on entering a state from which the
    chain cannot reach the target anymore, or at the step cap. Each run
    draws from its own splitmix64 stream keyed by (seed, run index), so
    stats are identical however the batch is split across calls.
    """
    chain = induce_chain(mdp, strategy)
    can = list(reachable(chain.P.T, mdp.target))
    stats = RunStats(mdp.n_states, total_runs=runs)
    # plain-int counters; numpy scalar writes per run are too slow here
    cond_count = [0] * mdp.n_states
    cond_mult = [0] * mdp.n_states
    all_count = [0] * mdp.n_states
    all_mult = [0] * mdp.n_states
    rows, target, initial = chain.rows, mdp.target, mdp.initial
    mask, norm = _MASK64, 2.0 ** -53
    for r in range(runs):
        # counter-mode splitmix64 keyed by (seed, run index); a fresh
        # random.Random per run costs more than the whole walk
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
            for v, m in visits.items():
                all_count[v] += 1
                all_mult[v] += m
                cond_count[v] += 1
                cond_mult[v] += m
        else:
            for v, m in visits.items():
                all_count[v] += 1
                all_mult[v] += m
    stats.visited_cond_count += np.asarray(cond_count, dtype=np.int64)
    stats.visited_cond_mult += np.asarray(cond_mult, dtype=np.int64)
    stats.visited_all_count += np.asarray(all_count, dtype=np.int64)
    stats.visited_all_mult += np.asarray(all_mult, dtype=np.int64)
    return stats


def simulate_batched(mdp: Mdp, strategy: LiberalStrategy, runs: int, *,
                     seed: int = 0, max_steps: int = 1_000_000,
                     threads: int = 1) -> RunStats:
    """Same result as simulate(), optionally spread over worker threads.

    Each run's generator depends only on (seed, run index), so splitting
    the batch cannot change the merged statistics.
    """
    if threads <= 1 or runs < 2 * threads:
        return simulate(mdp, strategy, runs, seed=seed, max_steps=max_steps)
    from concurrent.futures import ThreadPoolExecutor

    chunk = (runs + threads - 1) // threads
    spans = [(off, min(chunk, runs - off)) for off in range(0, runs, chunk)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(
            lambda span: simulate(mdp, strategy, span[1], seed=seed,
                                  max_steps=max_steps, first_run=span[0]),
            spans))
    out = parts[0]
    for p in parts[1:]:
        out = out.merge(p)
    return out


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
    from .core import MarkovChain, reach_exact

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
    rows: List[TrainRow] = []
    for s in range(mdp.n_states):
        if s in mdp.target or weights[s] <= delta:
            continue
        chosen = set(strategy.actions_at(mdp, s))
        attrs: Dict[ActionAttr, bool] = {}
        for i, a in enumerate(mdp.actions[s]):
            attrs[a.attr] = attrs.get(a.attr, False) or (i in chosen)
        repeat = 1 if mode == "once" else max(1, int(runs * float(weights[s]) + 0.5))
        for attr in sorted(attrs):
            rows.append(TrainRow(mdp.states[s], attr, attrs[attr], repeat))
    return TrainingSet(Domain.of(mdp), rows)
