"""Turning value bounds into liberal strategies, and measuring the result.

Extraction keeps every action whose pair value ties with the state's best
(within `tie_tol`), so the strategy stays as permissive as the bounds allow.
End components need care: all internal pairs look equally good there, but a
run must eventually leave, so states owning a best exiting pair commit to it
and the remaining member states keep their internal actions, which walk the
run to an exit almost surely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .core import (LiberalStrategy, MarkovChain, Mdp, MdpError, Mec,
                   induce_chain, mec_decompose, reach_exact, reachable)
from .solver import ValueApprox


def extract_liberal(mdp: Mdp, va: ValueApprox, *, mecs: Optional[List[Mec]] = None,
                    tie_tol: float = 1e-9, exit_union: bool = False) -> LiberalStrategy:
    """Liberal strategy over the explored states of a value approximation.

    Non-member states pick all value-maximal actions. For each end component
    (computed within the explored set, matching what the engines deflate):
    with `exit_union` every member state keeps its internal actions plus any
    maximal exits it owns; otherwise only the states owning a maximal exit
    are defined by it, and the rest keep their internal actions.
    """
    explored = va.explored
    if mecs is None:
        if len(explored) == mdp.n_states:
            mecs = mec_decompose(mdp)
        else:
            mecs = mec_decompose(mdp, restrict=explored)
    member: Dict[int, int] = {}
    for k, mec in enumerate(mecs):
        for s in mec.states:
            member[s] = k

    choice: Dict[int, FrozenSet[int]] = {}

    def pl(s: int, i: int) -> float:
        return va.pair_lower.get((s, i), 0.0)

    for s in sorted(explored):
        if s in member:
            continue
        vals = [pl(s, i) for i in range(len(mdp.actions[s]))]
        best = max(vals)
        choice[s] = frozenset(i for i, v in enumerate(vals) if v >= best - tie_tol)

    for k, mec in enumerate(mecs):
        if mec.states & mdp.target:
            # target states are absorbing; leaving them open keeps the
            # placeholder self-loop out of the explicit description
            continue
        states = sorted(mec.states & explored)
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
            if not picked:
                # member state with no internal action can only happen for
                # partially explored components; fall back to value argmax
                vals = [pl(s, i) for i in range(len(mdp.actions[s]))]
                best = max(vals)
                picked = {i for i, v in enumerate(vals) if v >= best - tie_tol}
            choice[s] = frozenset(picked)

    return LiberalStrategy(choice)


def reachable_under(mdp: Mdp, strategy: LiberalStrategy) -> List[int]:
    """States reachable from the initial state in the induced chain."""
    chain = induce_chain(mdp, strategy)
    return np.flatnonzero(reachable(chain.P, [mdp.initial])).tolist()


def evaluate(mdp: Mdp, strategy: LiberalStrategy) -> float:
    """Reachability value of the induced chain from the initial state.

    The linear solve is restricted to the states actually reachable under
    the strategy, so changing choices anywhere else cannot perturb the
    result, not even in the last bit.
    """
    chain = induce_chain(mdp, strategy)
    states = np.flatnonzero(reachable(chain.P, [mdp.initial]))
    sub = MarkovChain(len(states), init=int(np.searchsorted(states, mdp.initial)),
                      P=chain.P[states][:, states])
    vals = reach_exact(sub, np.flatnonzero(mdp.sparse.is_target[states]))
    return float(vals[sub.init])


def truncate(strategy: LiberalStrategy, weights: np.ndarray, delta: float = 0.0,
             mode: str = "keep-all") -> LiberalStrategy:
    """Drop states whose importance does not exceed delta.

    Dropped states become don't-cares. `keep-all` leaves the kept states'
    action sets alone; `keep-argmax` thins each kept state to its first
    listed action, which gives the smallest explicit description that still
    visits only kept states on purpose.
    """
    if mode not in ("keep-all", "keep-argmax"):
        raise ValueError(f"unknown truncation mode {mode!r}")
    kept: Dict[int, FrozenSet[int]] = {}
    for s, acts in strategy.choice.items():
        if weights[s] > delta:
            if mode == "keep-argmax":
                kept[s] = frozenset({min(acts)})
            else:
                kept[s] = acts
    return LiberalStrategy(kept)


def consulted_dont_care(mdp: Mdp, strategy: LiberalStrategy) -> List[int]:
    """Reachable states the strategy leaves open (resolved uniformly)."""
    return [s for s in reachable_under(mdp, strategy)
            if not strategy.is_defined(s) and s not in mdp.target]


def explicit_size(mdp: Mdp, strategy: LiberalStrategy) -> int:
    """Size of the explicit description: distinct (state, attribute) pairs."""
    return len(strategy.good_pairs(mdp))


def dump_tsv(mdp: Mdp, strategy: LiberalStrategy,
             weights: Optional[Sequence[float]] = None) -> str:
    """Tab-separated listing of the decisions at every defined state."""
    names = [n for n, _, _ in mdp.var_decls]
    out = ["\t".join(["state", "valuation", "action", "module", "label", "importance"])]
    for s in sorted(strategy.choice):
        chosen = {mdp.actions[s][i].attr for i in strategy.choice[s]}
        valuation = ",".join(f"{n}={v}" for n, v in zip(names, mdp.states[s]))
        w = "" if weights is None else f"{weights[s]:.9g}"
        for attr in sorted({a.attr for a in mdp.actions[s]}):
            mark = "good" if attr in chosen else "bad"
            out.append("\t".join([str(s), valuation, attr.name, str(attr.module), mark, w]))
    return "\n".join(out) + "\n"
