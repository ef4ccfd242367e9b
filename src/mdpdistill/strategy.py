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
from typing import Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from .core import (LiberalStrategy, MarkovChain, Mdp, MdpError, induce_chain,
                   mec_decompose, reach_exact, reachable)
from .solver import ValueApprox


def extract_liberal(mdp: Mdp, va: ValueApprox, *, tie_tol: float = 1e-9,
                    exit_union: bool = False) -> LiberalStrategy:
    """Liberal strategy over the explored states of a value approximation.

    Non-member states pick all value-maximal actions. For each end component
    (the engine's own when it built them, else computed within the explored
    set, matching what the engines deflate): with `exit_union` every member
    state keeps its internal actions plus any maximal exits it owns;
    otherwise only the states owning a maximal exit are defined by it, and
    the rest keep their internal actions. Target states are absorbing;
    leaving them open keeps the placeholder self-loop out of the explicit
    description.
    """
    v = mdp.sparse
    mecs = va.mecs if va.mecs is not None else mec_decompose(mdp, restrict=va.explored)
    explored = np.zeros(mdp.n_states, dtype=bool)
    explored[va.explored] = True
    pl = va.pair_lower
    owner = v.row_state

    free = explored & (mecs.mec_of < 0)
    best = np.maximum.reduceat(pl, v.row_start[:-1])
    selected = free[owner] & (pl >= best[owner] - tie_tol)

    member = explored & (mecs.mec_of >= 0)
    member[member] = ~mecs.touching(v.is_target)[mecs.mec_of[member]]
    in_mec = member[owner]
    k_of = mecs.mec_of[owner]
    external = in_mec & ~mecs.internal
    best_exit = np.zeros(mecs.count)
    np.maximum.at(best_exit, k_of[external], pl[external])
    positive = np.bincount(k_of[in_mec & (pl > tie_tol)], minlength=mecs.count) > 0
    stuck = np.flatnonzero(positive & (np.bincount(k_of[external], minlength=mecs.count) == 0))
    if len(stuck):
        k = int(stuck[0])
        raise MdpError(
            f"end component {k} ({np.flatnonzero(mecs.mec_of == k)[:8].tolist()}) carries "
            "positive value but has no exiting action; bounds are not usable")
    exits = external.copy()
    exits[external] = pl[external] >= best_exit[k_of[external]] - tie_tol
    internal = in_mec & mecs.internal
    if exit_union:
        selected |= internal | exits
    else:
        owns_exit = np.bincount(owner[exits], minlength=mdp.n_states) > 0
        selected |= np.where(owns_exit[owner], exits, internal)
    return LiberalStrategy.from_rows(mdp, selected, free | member)


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
