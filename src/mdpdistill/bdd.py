"""Reduced ordered BDDs for storing a strategy as a set of bit vectors.

Each (state, action attribute) pair is packed into a fixed-width bit
string: the state variables in declaration order, then the action name
index, then the module index, every field most significant bit first and
just wide enough for its range. One node per prefix of the sorted strings,
hash-consed, gives the canonical reduced diagram for that variable order;
the size metric counts reachable internal nodes, matching how strategy
stores are usually compared.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .core import ActionAttr, LiberalStrategy, Mdp
from .importance import Domain


def _width(count: int) -> int:
    """Bits needed to tell `count` values apart (0 for a single value)."""
    if count <= 1:
        return 0
    return (count - 1).bit_length()


@dataclass(frozen=True)
class BitLayout:
    """How a (state, attribute) pair maps onto BDD variables."""

    fields: Tuple[Tuple[str, int, int], ...]  # (label, base value, width)
    domain: Domain

    @staticmethod
    def of(domain: Domain) -> "BitLayout":
        fields: List[Tuple[str, int, int]] = []
        for name, lo, hi in domain.var_decls:
            fields.append((name, lo, _width(hi - lo + 1)))
        fields.append(("action", 0, _width(len(domain.action_names))))
        fields.append(("module", 0, _width(domain.module_count + 1)))
        return BitLayout(tuple(fields), domain)

    @property
    def n_bits(self) -> int:
        return sum(w for _, _, w in self.fields)

    def encode(self, x: Sequence[int], attr: Optional[ActionAttr]) -> Tuple[int, ...]:
        vals = list(x)
        vals.append(self.domain.action_index(attr.name) if attr else 0)
        vals.append(attr.module if attr else 0)
        bits: List[int] = []
        for (label, base, width), v in zip(self.fields, vals):
            off = v - base
            if not 0 <= off < (1 << width):
                raise ValueError(f"value {v} does not fit field {label}")
            bits.extend((off >> (width - 1 - b)) & 1 for b in range(width))
        return tuple(bits)


class Bdd:
    """Hash-consed ROBDD over a fixed number of bit variables."""

    FALSE = -1
    TRUE = -2

    def __init__(self, n_bits: int):
        self.n_bits = n_bits
        self._nodes: List[Tuple[int, int, int]] = []  # (var, lo, hi)
        self._index: Dict[Tuple[int, int, int], int] = {}

    def node(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        got = self._index.get(key)
        if got is not None:
            return got
        nid = len(self._nodes)
        self._nodes.append(key)
        self._index[key] = nid
        return nid

    def var_of(self, nid: int) -> int:
        return self._nodes[nid][0]

    def children(self, nid: int) -> Tuple[int, int]:
        _, lo, hi = self._nodes[nid]
        return lo, hi

    def encode_set(self, items: Iterable[Tuple[int, ...]]) -> int:
        """Root of the diagram accepting exactly the given bit strings.

        The strings under a node share a prefix, so they are a range of the
        sorted list, those with a 0 at the node's bit first."""
        strings = sorted(set(items))
        for s in strings:
            if len(s) != self.n_bits:
                raise ValueError("bit string width does not match the layout")

        def build(depth: int, lo: int, hi: int) -> int:
            if lo == hi:
                return self.FALSE
            if depth == self.n_bits:
                return self.TRUE
            mid = bisect_left(strings, 1, lo, hi, key=itemgetter(depth))
            return self.node(depth, build(depth + 1, lo, mid), build(depth + 1, mid, hi))

        root = build(0, 0, len(strings))
        del build  # its cell holds build itself: break the cycle
        return root

    def contains(self, root: int, bits: Sequence[int]) -> bool:
        nid = root
        while nid >= 0:
            var, lo, hi = self._nodes[nid]
            nid = hi if bits[var] else lo
        return nid == self.TRUE

    def node_count(self, root: int) -> int:
        """Internal nodes reachable from the root (terminals excluded)."""
        seen = set()
        stack = [root]
        while stack:
            nid = stack.pop()
            if nid < 0 or nid in seen:
                continue
            seen.add(nid)
            _, lo, hi = self._nodes[nid]
            stack.append(lo)
            stack.append(hi)
        return len(seen)


@dataclass
class StrategyStore:
    """A strategy's good pairs as an ROBDD, with the layout used to query it."""

    bdd: Bdd
    root: int
    layout: BitLayout

    def accepts(self, x: Sequence[int], attr: Optional[ActionAttr]) -> bool:
        return self.bdd.contains(self.root, self.layout.encode(x, attr))

    @property
    def size(self) -> int:
        return self.bdd.node_count(self.root)


def store_strategy(mdp: Mdp, strategy: LiberalStrategy) -> StrategyStore:
    """Encode the strategy's distinct (state, attribute) pairs."""
    layout = BitLayout.of(Domain.of(mdp))
    bdd = Bdd(layout.n_bits)
    vals = mdp.sparse.valuation
    items = [layout.encode(vals[s].tolist(), attr) for s, attr in strategy.good_pairs()]
    return StrategyStore(bdd, bdd.encode_set(items), layout)
