"""Slow reference implementations used to cross-check the real engines.

Everything here trades efficiency for being obviously right: optimal values
by enumerating all deterministic memoryless strategies, end components by
checking every state subset, strategy values on acyclic models by exact
rational path summation. Only usable on tiny models; the tests freeze the
numbers these produce.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from .core import (LiberalStrategy, MarkovChain, Mdp, MdpError, induce_chain,
                   reach_exact)


def brute_val(mdp: Mdp, limit: int = 12) -> np.ndarray:
    """Optimal reachability values by trying every deterministic strategy."""
    n = mdp.n_states
    if n > limit:
        raise MdpError(f"brute force capped at {limit} states")
    best = np.zeros(n)
    ranges = [range(len(mdp.actions[s])) for s in range(n)]
    for pick in product(*ranges):
        rows = []
        for s in range(n):
            a = mdp.actions[s][pick[s]]
            rows.append((a.succs, a.probs))
        chain = MarkovChain(n, tuple(rows), mdp.initial)
        np.maximum(best, reach_exact(chain, mdp.target), out=best)
    return best


def brute_mecs(mdp: Mdp, limit: int = 15) -> List[Tuple[FrozenSet[int], Dict[int, Tuple[int, ...]]]]:
    """Maximal end components by checking every non-empty state subset."""
    n = mdp.n_states
    if n > limit:
        raise MdpError(f"brute force capped at {limit} states")

    def staying(T: FrozenSet[int], s: int) -> Tuple[int, ...]:
        return tuple(i for i, a in enumerate(mdp.actions[s])
                     if all(t in T for t in a.succs))

    def is_ec(T: FrozenSet[int]) -> bool:
        acts = {s: staying(T, s) for s in T}
        if any(not acts[s] for s in T):
            return False
        # strong connectivity over the kept actions
        for src in T:
            seen = {src}
            queue = [src]
            while queue:
                s = queue.pop()
                for i in acts[s]:
                    for t in mdp.actions[s][i].succs:
                        if t not in seen:
                            seen.add(t)
                            queue.append(t)
            if seen != T:
                return False
        return True

    ecs = []
    states = list(range(n))
    for bits in range(1, 1 << n):
        T = frozenset(states[k] for k in range(n) if bits >> k & 1)
        if is_ec(T):
            ecs.append(T)
    maximal = [T for T in ecs if not any(T < S for S in ecs)]
    maximal.sort(key=min)
    return [(T, {s: staying(T, s) for s in sorted(T)}) for T in maximal]


def acyclic_value(mdp: Mdp, strategy: LiberalStrategy) -> Fraction:
    """Exact value of a strategy when the induced chain has no cycles
    except the absorbing self-loops; pure rational arithmetic."""
    chain = induce_chain(mdp, strategy)
    memo: Dict[int, Fraction] = {}
    on_path: set = set()

    def value(s: int) -> Fraction:
        if s in mdp.target:
            return Fraction(1)
        succs, probs = chain.rows[s]
        if succs == (s,):
            return Fraction(0)
        if s in memo:
            return memo[s]
        if s in on_path:
            raise MdpError("induced chain has a proper cycle; oracle misused")
        on_path.add(s)
        # rebuild branch probabilities as exact rationals
        idxs = strategy.actions_at(mdp, s)
        w = Fraction(1, len(idxs))
        total = Fraction(0)
        for i in idxs:
            a = mdp.actions[s][i]
            for t, p in zip(a.succs, a.probs):
                if t == s:
                    raise MdpError("induced chain has a proper cycle; oracle misused")
                total += w * Fraction(p).limit_denominator(10 ** 12) * value(t)
        on_path.discard(s)
        memo[s] = total
        return total

    return value(mdp.initial)


def horizon_importance(mdp: Mdp, strategy: LiberalStrategy, s: int,
                       horizon: int = 4000) -> Tuple[float, float]:
    """Bounds on P[visit s | reach target] by forward probability pushing.

    Tracks the distribution over (location, s seen yet) for `horizon` steps
    and reads off P[in target and s seen] / P[in target]. Returns the
    estimate and a slack term: the probability mass not yet absorbed in the
    target or the target's complement-forever part, which bounds how far the
    truth can still move. No linear solver involved.
    """
    chain = induce_chain(mdp, strategy)
    n = chain.n
    dist = np.zeros((n, 2))
    dist[mdp.initial, 1 if s == mdp.initial else 0] = 1.0
    absorbed = [t for t in range(n) if chain.rows[t][0] == (t,)]
    for _ in range(horizon):
        nxt = np.zeros_like(dist)
        for u in range(n):
            for flag in (0, 1):
                p = dist[u, flag]
                if p == 0.0:
                    continue
                if u in mdp.target or chain.rows[u][0] == (u,):
                    nxt[u, flag] += p
                    continue
                for v, q in zip(*chain.rows[u]):
                    nxt[v, 1 if (flag or v == s) else flag] += p * q
        dist = nxt
    hit_and_seen = sum(dist[t, 1] for t in mdp.target)
    hit = sum(dist[t, 0] + dist[t, 1] for t in mdp.target)
    settled = sum(dist[t, 0] + dist[t, 1] for t in absorbed)
    slack = 1.0 - settled
    if hit <= 0.0:
        raise MdpError("no mass reached the target within the horizon")
    return hit_and_seen / hit, slack

