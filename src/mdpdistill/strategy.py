"""Turning value bounds into liberal strategies, and measuring the result.

Extraction keeps every action whose pair value ties with the state's best
(within TIE_TOL), so the strategy stays as permissive as the bounds allow.
End components need care: all internal pairs look equally good there, but a
run must eventually leave, so states owning a best exiting pair commit to it
and the remaining member states keep their internal actions, which walk the
run to an exit almost surely.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Optional, Sequence

import numpy as np

# `mec_decompose` is not called here; the benchmark's span table hooks this name
from .core import (LiberalStrategy, Mdp, MdpError, distinct_attrs, induce_chain,
                   mec_decompose, reach_bounds, reach_exact, reachable)
from .solver import ValueApprox

TIE_TOL = 1e-9  # how far below the best a pair value still ties with it


def extract_liberal(mdp: Mdp, va: ValueApprox, *, exit_union: bool = False) -> LiberalStrategy:
    """Liberal strategy over the explored states of a value approximation.

    Non-member states pick all value-maximal actions. For each end component
    within the explored set (`va.mecs`, the ones the engine built): with
    `exit_union` every member state keeps its internal actions plus any
    maximal exits it owns; otherwise only the states owning a maximal exit
    are defined by it, and the rest keep their internal actions. Target
    states are absorbing; leaving them open keeps the placeholder self-loop
    out of the explicit description.
    """
    mecs = va.mecs
    explored = np.zeros(mdp.n_states, dtype=bool)
    explored[va.explored] = True
    pl = va.pair_lower
    owner = mdp.row_state

    free = explored & (mecs.mec_of < 0)
    best = np.maximum.reduceat(pl, mdp.row_start[:-1])
    selected = free[owner] & (pl >= best[owner] - TIE_TOL)

    member = explored & (mecs.mec_of >= 0) & ~mdp.is_target
    in_mec = member[owner]
    k_of = mecs.mec_of[owner]
    external = in_mec & ~mecs.internal
    best_exit = np.zeros(mecs.count)
    np.maximum.at(best_exit, k_of[external], pl[external])
    positive = np.bincount(k_of[in_mec & (pl > TIE_TOL)], minlength=mecs.count) > 0
    stuck = np.flatnonzero(positive & (np.bincount(k_of[external], minlength=mecs.count) == 0))
    if len(stuck):
        k = int(stuck[0])
        raise MdpError(
            f"end component {k} ({np.flatnonzero(mecs.mec_of == k)[:8].tolist()}) carries "
            "positive value but has no exiting action; bounds are not usable")
    exits = external.copy()
    exits[external] = pl[external] >= best_exit[k_of[external]] - TIE_TOL
    internal = in_mec & mecs.internal
    if exit_union:
        selected |= internal | exits
    else:
        owns_exit = np.bincount(owner[exits], minlength=mdp.n_states) > 0
        selected |= np.where(owns_exit[owner], exits, internal)
    return LiberalStrategy(mdp, selected, free | member)


def reachable_under(mdp: Mdp, strategy: LiberalStrategy) -> List[int]:
    """States reachable from the initial state in the induced chain."""
    return np.flatnonzero(reachable(induce_chain(strategy), [mdp.initial])).tolist()


def restricted_chain(strategy: LiberalStrategy):
    """The chain induced in `strategy.mdp` on the states reachable from the
    initial state, the targets' and initial state's positions there, the states."""
    mdp = strategy.mdp
    P = induce_chain(strategy)
    states = np.flatnonzero(reachable(P, [mdp.initial]))
    return (P[states][:, states], np.flatnonzero(mdp.is_target[states]),
            int(np.searchsorted(states, mdp.initial)), states)


def chain_value(chain) -> float:
    """Reachability value of a `restricted_chain`'s initial state, solved exactly."""
    P, targets, init, _ = chain
    return float(reach_exact(P, targets)[init])


def evaluate(strategy: LiberalStrategy) -> float:
    """Reachability value from the initial state of the chain induced in `strategy.mdp`.

    The linear solve is restricted to the states actually reachable under
    the strategy, so changing choices anywhere else cannot perturb the
    result, not even in the last bit.
    """
    return chain_value(restricted_chain(strategy))


def within_budget(value: float, reference: float, budget: float) -> bool:
    """The value lost against `reference`, relative to it, is at most `budget`."""
    return reference <= 0.0 or (reference - value) / reference <= budget


DECIDE_SWEEPS = 100  # bound sweeps before a decision falls back to the exact value


def decide(chain, upper: np.ndarray, reference: float, budget: float) -> bool:
    """`within_budget(chain_value(chain), reference, budget)`, from bounds
    where they suffice.

    Gauss–Seidel bounds at the initial state (`reach_bounds`) accept once
    the lower bound less a margin is within budget, and reject once the
    upper bound plus the margin is not. The upper bound starts at `upper`,
    an engine's bound on the optimum per state, as no strategy beats the
    optimum. The margin, 1e-9 of the reference, lies far above the error of
    the exact solve, so the verdict is the one the exact value gives. If
    the bounds close to within the margin undecided, or after DECIDE_SWEEPS
    sweeps, the exact value decides, on the same chain.
    """
    P, targets, init, states = chain
    margin = 1e-9 * reference
    for lower, up in islice(reach_bounds(P, targets, init, upper[states]), DECIDE_SWEEPS + 1):
        if within_budget(lower - margin, reference, budget):
            return True
        if not within_budget(up + margin, reference, budget):
            return False
        if up - lower < margin:
            break
    return within_budget(chain_value(chain), reference, budget)


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
    owner = strategy.mdp.row_state
    kept = strategy.defined & (np.asarray(weights) > delta)
    selected = strategy.rows & kept[owner]
    if mode == "keep-argmax":
        rows = np.flatnonzero(selected)
        selected[:] = False
        selected[rows[np.unique(owner[rows], return_index=True)[1]]] = True
    return LiberalStrategy(strategy.mdp, selected, kept)


def explicit_size(strategy: LiberalStrategy) -> int:
    """Size of the explicit description: distinct (state, attribute) pairs."""
    return int(distinct_attrs(strategy.mdp, strategy.defined, strategy.rows)[3].sum())


def dump_tsv(strategy: LiberalStrategy, weights: Optional[Sequence[float]] = None) -> str:
    """Tab-separated listing of the decisions at every defined state of `strategy.mdp`."""
    mdp = strategy.mdp
    names = [n for n, _, _ in mdp.var_decls]
    out = ["\t".join(["state", "valuation", "action", "module", "label", "importance"])]
    state, action, module, good = distinct_attrs(mdp, strategy.defined, strategy.rows)
    vals = mdp.valuation
    last = -1
    for s, a, m, g in zip(state.tolist(), action.tolist(), module.tolist(), good.tolist()):
        if s != last:
            valuation = ",".join(f"{n}={v}" for n, v in zip(names, vals[s].tolist()))
            w = "" if weights is None else f"{weights[s]:.9g}"
            last = s
        out.append("\t".join([str(s), valuation, mdp.action_names[a], str(m),
                              "good" if g else "bad", w]))
    return "\n".join(out) + "\n"
