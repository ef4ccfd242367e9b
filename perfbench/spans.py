"""Spans around the public functions of each pipeline layer, set from outside.

The package modules import each other's functions by name
(`from .core import induce_chain`), so a call is traced only if the name is
replaced in the namespace of the module that makes the call. `HOOKS` lists
each (calling module, name) pair with the span it opens and the counters it
reads from the call's arguments and result.

Spans are kept in memory as {name, start, end, parent} and summarised by
`layer_metrics`: a span's self time is its duration minus the durations of
its direct children, so the self times of all spans add up to the time the
top-level spans cover, and `cli.other_s` is the rest of the command.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


def _count_build(c, args, kw, mdp):
    c["build.states"] += mdp.n_states
    c["build.action_rows"] += sum(len(acts) for acts in mdp.actions)


def _count_solver(c, args, kw, va):
    c["solver.sweeps"] += va.sweeps
    c["solver.episodes"] += va.episodes
    c["solver.explored"] += len(va.explored)
    c["solver.states"] += args[0].n_states
    c["solver.gap"] = va.gap


def _count_quotient(c, args, kw, q):
    c["core.quotient_nodes"] += q.num_nodes
    c["core.quotient_rows"] += q.R.shape[0]


def _count_reachable(c, args, kw, reach):
    c["strategy.reach_states"] += len(reach)
    c["strategy.reach_total"] += args[0].n_states


def _count_reach_exact(c, args, kw, vals):
    # every state solved for has a positive value and is not a target
    c["core.reach_unknowns"] += int((vals > 0).sum()) - len(set(args[1]))


def _count_simulate(c, args, kw, stats):
    c["importance.runs"] += stats.total_runs
    c["importance.target_runs"] += stats.target_runs
    # each run visits its initial state once without taking a step
    c["importance.steps"] += int(stats.visited_all_mult.sum()) - stats.total_runs


def _count_trainset(c, args, kw, ts):
    c["importance.train_rows"] += len(ts.rows)
    c["importance.train_weight"] += ts.total_weight


def _count_fit(c, args, kw, fit):
    c["dtree.probes"] += len(fit.tried)
    c["dtree.accepted"] += sum(1 for _, ok in fit.tried if ok)


def _count_bdd(c, args, kw, store):
    c["bdd.nodes"] += store.size


def _count_bdd_pairs(c, args, kw, root):
    c["bdd.pairs"] += len(args[1])


# (module, attribute, span name or None for counters only, counter hook)
HOOKS = [
    ("cli", "parse_model", "lang.parse", None),
    ("cli", "build_mdp", "build", _count_build),
    ("cli", "value_iteration", "solver", _count_solver),
    ("cli", "brtdp", "solver", _count_solver),
    ("solver", "mec_decompose", "core.mec", None),
    ("solver", "build_quotient", "core.quotient", _count_quotient),
    ("solver", "interval_iterate", "core.iterate", None),
    ("strategy", "extract_liberal", "strategy.extract", None),
    ("strategy", "mec_decompose", "core.mec", None),
    ("strategy", "evaluate", "strategy.evaluate", None),
    ("strategy", "reachable_under", "strategy.reachable", _count_reachable),
    ("strategy", "induce_chain", "core.induce_chain", None),
    ("strategy", "reach_exact", "core.reach_exact", _count_reach_exact),
    ("importance", "induce_chain", "core.induce_chain", None),
    ("cli", "simulate_batched", "importance.simulate", _count_simulate),
    ("cli", "build_training_set", "importance.trainset", _count_trainset),
    ("dtree", "fit_max_leaf", "dtree.fit", _count_fit),
    ("dtree", "learn", "dtree.learn", None),
    ("dtree", "induce_strategy", "dtree.induce", None),
    ("bdd", "store_strategy", "bdd", _count_bdd),
    ("bdd.Bdd", "encode_set", None, _count_bdd_pairs),
]


class Tracer:
    """In-memory spans and counters for one command."""

    def __init__(self):
        self.spans: List[dict] = []
        self.counters: Dict[str, float] = defaultdict(int)
        self._stack: List[int] = []

    def wrap(self, name: Optional[str], fn: Callable, count=None) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kw):
            if name is None:
                result = fn(*args, **kw)
            else:
                span = {"name": name, "start": clock(), "end": None,
                        "parent": self._stack[-1] if self._stack else None}
                self._stack.append(len(self.spans))
                self.spans.append(span)
                try:
                    result = fn(*args, **kw)
                finally:
                    span["end"] = clock()
                    self._stack.pop()
            if count is not None:
                count(self.counters, args, kw, result)
            return result
        return traced


@contextmanager
def patched(modules: Dict[str, object], tracer: Tracer):
    """Route every hooked call through `tracer`; restore the originals after."""
    saved = []
    try:
        for owner, attr, name, count in HOOKS:
            mod_name, _, cls_name = owner.partition(".")
            target = modules[mod_name]
            if cls_name:
                target = getattr(target, cls_name)
            original = getattr(target, attr)
            saved.append((target, attr, original))
            setattr(target, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)


def self_times(spans: List[dict]) -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(float)
    for sp in spans:
        dur = sp["end"] - sp["start"]
        out[sp["name"]] += dur
        if sp["parent"] is not None:
            out[spans[sp["parent"]]["name"]] -= dur
    return out


def layer_metrics(tracer: Tracer, run_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced command that took `run_s` seconds."""
    spans, c = tracer.spans, tracer.counters
    own = self_times(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    for sp in spans:
        total[sp["name"]] += sp["end"] - sp["start"]
        calls[sp["name"]] += 1
    top = sum(sp["end"] - sp["start"] for sp in spans if sp["parent"] is None)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "lang.parse_s": own["lang.parse"],
        "build.s": own["build"],
        "build.states": c["build.states"],
        "build.action_rows": c["build.action_rows"],
        "build.states_per_s": ratio(c["build.states"], total["build"]),
        "solver.s": total["solver"],
        "solver.tables_s": own["solver"],
        "solver.sweeps": c["solver.sweeps"],
        "solver.episodes": c["solver.episodes"],
        "solver.explored": c["solver.explored"],
        "solver.explored_frac": ratio(c["solver.explored"], c["solver.states"]),
        "solver.gap": c["solver.gap"],
        "core.mec_s": own["core.mec"],
        "core.quotient_s": own["core.quotient"],
        "core.quotient_nodes": c["core.quotient_nodes"],
        "core.quotient_rows": c["core.quotient_rows"],
        "core.iterate_s": own["core.iterate"],
        "strategy.extract_s": own["strategy.extract"],
        "strategy.evaluate_s": own["strategy.evaluate"],
        "strategy.evaluate_calls": calls["strategy.evaluate"],
        "strategy.reachable_s": own["strategy.reachable"],
        "strategy.reach_frac": ratio(c["strategy.reach_states"], c["strategy.reach_total"]),
        "core.induce_chain_s": own["core.induce_chain"],
        "core.induce_chain_calls": calls["core.induce_chain"],
        "core.reach_exact_s": own["core.reach_exact"],
        "core.reach_unknowns": c["core.reach_unknowns"],
        "importance.simulate_s": own["importance.simulate"],
        "importance.runs": c["importance.runs"],
        "importance.steps": c["importance.steps"],
        "importance.steps_per_s": ratio(c["importance.steps"], total["importance.simulate"]),
        "importance.target_runs": c["importance.target_runs"],
        "importance.trainset_s": own["importance.trainset"],
        "importance.train_rows": c["importance.train_rows"],
        "importance.train_weight": c["importance.train_weight"],
        "dtree.fit_s": total["dtree.fit"],
        "dtree.search_s": own["dtree.fit"],
        "dtree.probes": c["dtree.probes"],
        "dtree.probe_accept_ratio": ratio(c["dtree.accepted"], c["dtree.probes"]),
        "dtree.learn_s": own["dtree.learn"],
        "dtree.learn_calls": calls["dtree.learn"],
        "dtree.induce_s": own["dtree.induce"],
        "dtree.induce_calls": calls["dtree.induce"],
        "bdd.s": own["bdd"],
        "bdd.pairs": c["bdd.pairs"],
        "bdd.nodes": c["bdd.nodes"],
        "cli.other_s": run_s - top,
        "trace.spans": len(spans),
    }


# Self-time metrics, one per span name. With cli.other_s they partition run_s.
SELF_TIME_METRICS = (
    "lang.parse_s", "build.s", "solver.tables_s", "core.mec_s", "core.quotient_s",
    "core.iterate_s", "strategy.extract_s", "strategy.evaluate_s",
    "strategy.reachable_s", "core.induce_chain_s", "core.reach_exact_s",
    "importance.simulate_s", "importance.trainset_s", "dtree.search_s",
    "dtree.learn_s", "dtree.induce_s", "bdd.s",
)


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a no-op function."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        traced()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)
