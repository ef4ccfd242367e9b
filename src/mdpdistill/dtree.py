"""Binary decision trees over state valuations and action attributes.

Internal nodes test either a threshold on one state variable ([x <= k],
with k the floored midpoint between two observed values) or equality on a
categorical coordinate (action name or owning module). Splits maximize
weighted information gain; exact ties fall to the earliest coordinate,
thresholds before equalities, then the smallest constant, so learning is
deterministic. Pruning replaces a subtree by a leaf when the leaf's
pessimistic error (a normal upper confidence bound on the training error)
does not exceed the subtree's.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from typing import Callable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .core import LiberalStrategy, Mdp
from .importance import Domain, TrainingSet

COORD_ACTION = "action"
COORD_MODULE = "module"


@dataclass(frozen=True)
class Pred:
    """One test: kind 'le' on a variable, or equality on a categorical."""

    kind: str                 # "le" | "action" | "module"
    coord: int = 0            # variable index, used by "le"
    k: Union[int, str] = 0    # threshold, action name, or module index

    def describe(self, domain: Domain) -> str:
        if self.kind == "le":
            return f"{domain.var_decls[self.coord][0]}<={self.k}"
        return f"{self.kind}={self.k}"


@dataclass
class Leaf:
    good: bool
    n: float = 0.0   # training weight that reached the leaf
    e: float = 0.0   # weight of misclassified training rows


@dataclass
class Split:
    pred: Pred
    yes: "Node"
    no: "Node"
    good: bool = False  # label of the majority leaf this node would collapse to
    n: float = 0.0
    e: float = 0.0   # errors if this node were collapsed to a majority leaf


Node = Union[Leaf, Split]


@dataclass
class DTree:
    root: Node
    domain: Domain

    @property
    def size(self) -> int:
        return tree_size(self.root)


def tree_size(node: Node) -> int:
    if isinstance(node, Leaf):
        return 1
    return 1 + tree_size(node.yes) + tree_size(node.no)


def _entropies(wg: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Binary entropy of good/bad weights, elementwise; 0 unless both are
    positive. Uses libm's log2, so each value is the bits a scalar
    `-(pg * math.log2(pg) + pb * math.log2(pb))` gives."""
    out = np.zeros(len(wg))
    both = (wg > 0) & (wb > 0)
    n = wg[both] + wb[both]
    pg, pb = wg[both] / n, wb[both] / n
    log2 = lambda v: np.fromiter(map(math.log2, v.tolist()), np.float64, len(v))
    out[both] = -(pg * log2(pg) + pb * log2(pb))
    return out


class _NodeTable(NamedTuple):
    """What a node's split choice needs, whatever `min_leaf` is: its rows,
    good and bad weight, the choice made per band of `min_leaf`, and, per
    candidate split in tie-break order, the coordinate, constant, lighter
    side's weight, whether the yes side is every row, and the information
    gain; last the distinct lighter weights, which bound the bands."""

    idx: np.ndarray
    wg: float
    wb: float
    choices: dict  # band -> None for a leaf, else the predicate and both sides' tables
    coord: Optional[np.ndarray] = None  # None: a pure node, no candidates
    k: Optional[np.ndarray] = None
    lighter: Optional[np.ndarray] = None
    full: Optional[np.ndarray] = None
    gain: Optional[np.ndarray] = None
    levels: Optional[np.ndarray] = None


def learn(ts: TrainingSet, *, min_leaf: float = 1.0, confidence: float = 0.25,
          prune: bool = True) -> DTree:
    """Grow a tree on the training rows, then optionally prune it.

    `min_leaf` is the minimum total row weight each side of a split must
    keep; raising it is the main lever for trading accuracy against size.
    A node scores all its splits at once from its rows' weights at each
    value of each coordinate, exact as the weights are integers. None of
    that depends on `min_leaf`, so each node's table is kept in
    `ts.node_tables`, with the split chosen per band of leaf sizes between
    two lighter-side weights, where the candidates stay the same.
    """
    domain = ts.domain
    nv = domain.n_vars
    F, y, w = ts.rows, ts.good, ts.weight.astype(np.float64)
    wy = w * y
    tables = ts.node_tables
    values, value_coord, bins = ts.value_bins
    width = bins.shape[1]

    def candidates(idx: np.ndarray, weight: np.ndarray):
        """Coordinate, constant, yes-side weight, good weight and whether that
        side is every row, of each split of rows `idx` (total weight and good
        weight `weight`), in tie-break order, from their sums at each value."""
        at = bins[idx].ravel()
        count = np.bincount(at, minlength=len(values))
        present = np.flatnonzero(count)
        wv = np.stack([np.bincount(at, np.repeat(x[idx], width), len(values))[present]
                       for x in (w, wy)])
        c, v = value_coord[present], values[present]
        # [x <= k], k between a value and the next, keeps the rows up to the
        # value; an equality keeps the value's rows (-1 marks a row without
        # an action attribute)
        le = c < nv
        keep = np.where(le, np.append(c[1:] == c[:-1], False), v >= 0)
        k = np.where(le, (v + np.append(v[1:], 0)) // 2, v)
        # every row holds one value of each coordinate, so the values of the
        # coordinates before c weigh c times the node; integer weights add exactly
        wl = np.where(le, np.cumsum(wv, 1) - c * weight[:, None], wv)[:, keep]
        return c[keep], k[keep], wl[0], wl[1], (~le & (count[present] == len(idx)))[keep]

    def table(idx: np.ndarray) -> _NodeTable:
        key = idx.tobytes()
        t = tables.get(key)
        if t is not None:
            return t
        idx = np.frombuffer(key, idx.dtype)  # the key's bytes, not a second copy
        wg = float(w[idx][y[idx]].sum())
        wb = float(w[idx][~y[idx]].sum())
        if wg == 0.0 or wb == 0.0:
            return tables.setdefault(key, _NodeTable(idx, wg, wb, {}))
        total = wg + wb
        coord, k, wl, wlg, full = candidates(idx, np.array([total, wg]))
        wr = total - wl
        wrg = wg - wlg
        # the node's entropy, then each yes side's, then each no side's
        h = _entropies(np.concatenate(([wg], wlg, wrg)),
                       np.concatenate(([wb], wl - wlg, wr - wrg)))
        gain = h[0] - (wl * h[1:len(wl) + 1] + wr * h[len(wl) + 1:]) / total
        lighter = np.minimum(wl, wr)
        return tables.setdefault(key, _NodeTable(idx, wg, wb, {}, coord, k, lighter, full,
                                                 gain, np.unique(lighter)))

    def choose(t: _NodeTable):
        """The split of node `t` at this `min_leaf`: None for a leaf, else
        its predicate and the tables of its two sides."""
        ok = np.flatnonzero(t.lighter >= min_leaf)
        gain = t.gain[ok]
        best = None
        positive = np.flatnonzero(gain > 1e-12).tolist()
        gain = gain.tolist()
        for i in positive:
            # a later split must win by more than the tolerance
            if best is None or gain[i] > gain[best] + 1e-12:
                best = i
        if best is None:
            # a perfectly balanced boundary zeroes out every gain while the
            # rows stay separable; split anyway so an unrestricted tree
            # always fits its training set
            full = t.full[ok]
            if full.all():
                return None
            best = int(np.argmin(full))
        c, v = int(t.coord[ok[best]]), int(t.k[ok[best]])
        yes = F[t.idx, c] <= v if c < nv else F[t.idx, c] == v
        pred = (Pred("le", c, v) if c < nv else
                Pred(COORD_MODULE, 0, v) if c > nv else
                Pred(COORD_ACTION, 0, domain.action_names[v]))
        return pred, table(t.idx[yes]), table(t.idx[~yes])

    def grow(t: _NodeTable) -> Node:
        total, majority, err = t.wg + t.wb, t.wg >= t.wb, min(t.wg, t.wb)
        if t.gain is None:
            return Leaf(majority, total, err)
        band = bisect_left(t.levels, min_leaf)
        if band not in t.choices:
            t.choices[band] = choose(t)
        if t.choices[band] is None:
            return Leaf(majority, total, err)
        pred, yes, no = t.choices[band]
        return Split(pred, grow(yes), grow(no), majority, total, err)

    root = grow(table(np.arange(len(ts.rows))))
    del grow  # its cell holds grow itself: break the cycle
    if prune:
        root, _ = _prune(root, _upper_z(confidence))
    return DTree(root, domain)


# Cephes `ndtri` (S. L. Moshier), the code scipy.special.ndtri runs: the ratio
# P/Q of polynomials in (y - 1/2)^2 in the middle, and in 1/sqrt(-2 log y) on
# the tails, above and below y = exp(-32); each Q leads with a 1
_NDTRI_MID = ((-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
               1.39312609387279679503E1, -1.23916583867381258016E0),
              (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
               -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
               1.59056225126211695515E1, -1.18331621121330003142E0))
_NDTRI_NEAR = ((4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
                4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
                -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4),
               (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
                1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
                -3.80806407691578277194E-2, -9.33259480895457427372E-4))
_NDTRI_FAR = ((3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
               1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
               3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9),
              (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
               2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
               2.89247864745380683936E-6, 6.79019408009981274425E-9))
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _ndtri(y: float) -> float:
    """The standard normal quantile at y in [0, 1], computed as Cephes does."""
    if y in (0.0, 1.0):
        return math.inf if y else -math.inf
    upper = y > 1.0 - _EXP_M2
    y = 1.0 - y if upper else y
    horner = lambda x, coef: reduce(lambda acc, c: acc * x + c, coef)
    if y > _EXP_M2:
        y -= 0.5
        (p, q), y2 = _NDTRI_MID, y * y
        return (y + y * (y2 * horner(y2, p) / horner(y2, q))) * 2.50662827463100050242
    x = math.sqrt(-2.0 * math.log(y))
    p, q = _NDTRI_NEAR if x < 8.0 else _NDTRI_FAR
    x = x - math.log(x) / x - 1.0 / x * horner(1.0 / x, p) / horner(1.0 / x, q)
    return x if upper else -x


def _upper_z(confidence: float) -> float:
    """Standard normal quantile at 1 - confidence, floored at 0."""
    return max(_ndtri(1.0 - confidence), 0.0)


def _ucb_errors(e: float, n: float, z: float) -> float:
    """Upper confidence bound on the error count at a node of weight n."""
    if n <= 0:
        return 0.0
    f = e / n
    if z == 0.0:
        return e
    z2 = z * z
    ub = (f + z2 / (2 * n) + z * math.sqrt(f * (1 - f) / n + z2 / (4 * n * n)))
    return n * min(1.0, ub / (1 + z2 / n))


def _prune(node: Node, z: float) -> Tuple[Node, float]:
    if isinstance(node, Leaf):
        return node, _ucb_errors(node.e, node.n, z)
    yes, e_yes = _prune(node.yes, z)
    no, e_no = _prune(node.no, z)
    as_subtree = e_yes + e_no
    as_leaf = _ucb_errors(node.e, node.n, z)
    if as_leaf <= as_subtree:
        return Leaf(node.good, node.n, node.e), as_leaf
    return Split(node.pred, yes, no, node.good, node.n, node.e), as_subtree


def induce_strategy(mdp: Mdp, tree: DTree) -> Tuple[LiberalStrategy, np.ndarray]:
    """Read the tree back as a liberal strategy on the whole state space.

    At each non-target state the strategy keeps the actions the tree calls
    good. States where it rejects everything stay open (uniform fallback);
    they are returned, in ascending order, so callers can report how often
    that happened. The tree is walked once over all action rows of `mdp`,
    each split dividing the rows that reach it.
    """
    x = mdp.row_valuation
    name_id = {name: k for k, name in enumerate(mdp.action_names)}
    good = np.zeros(len(mdp.row_state), dtype=bool)
    stack = [(tree.root, np.flatnonzero(~mdp.is_target[mdp.row_state]))]
    while stack:
        node, rows = stack.pop()
        if isinstance(node, Leaf):
            good[rows] = node.good
            continue
        p = node.pred
        if p.kind == "le":
            holds = x[p.coord][rows] <= p.k
        elif p.kind == COORD_ACTION:
            holds = mdp.action_id[rows] == name_id.get(p.k, -1)
        else:
            holds = mdp.module[rows] == p.k
        stack += ((node.no, rows[~holds]), (node.yes, rows[holds]))
    defined = np.bincount(mdp.row_state[good], minlength=mdp.n_states) > 0
    return LiberalStrategy(mdp, good, defined), np.flatnonzero(~defined & ~mdp.is_target)


# --------------------------------------------------------------------------
# Serialization.

def _node_to_obj(node: Node):
    if isinstance(node, Leaf):
        return {"leaf": bool(node.good)}
    p = node.pred
    if p.kind == "le":
        pobj = {"coord": p.coord, "op": "le", "k": int(p.k)}
    else:
        pobj = {"cat": p.kind, "v": p.k}
    return {"p": pobj, "yes": _node_to_obj(node.yes), "no": _node_to_obj(node.no)}


def _node_from_obj(obj) -> Node:
    if "leaf" in obj:
        return Leaf(bool(obj["leaf"]))
    p = obj["p"]
    if "cat" in p:
        pred = Pred(p["cat"], 0, p["v"])
    else:
        pred = Pred("le", int(p["coord"]), int(p["k"]))
    return Split(pred, _node_from_obj(obj["yes"]), _node_from_obj(obj["no"]))


def export_json(tree: DTree) -> str:
    obj = {
        "domain": {
            "vars": [[n, lo, hi] for n, lo, hi in tree.domain.var_decls],
            "actions": list(tree.domain.action_names),
            "modules": tree.domain.module_count,
        },
        "root": _node_to_obj(tree.root),
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def import_json(text: str) -> DTree:
    obj = json.loads(text)
    d = obj["domain"]
    domain = Domain(tuple((n, int(lo), int(hi)) for n, lo, hi in d["vars"]),
                    tuple(d["actions"]), int(d["modules"]))
    return DTree(_node_from_obj(obj["root"]), domain)


def export_dot(tree: DTree) -> str:
    lines = ["digraph dtree {", "  node [shape=box];"]
    counter = [0]

    def walk(node: Node) -> int:
        nid = counter[0]
        counter[0] += 1
        if isinstance(node, Leaf):
            lines.append(f'  n{nid} [label="{"good" if node.good else "bad"}",'
                         f' shape=ellipse];')
            return nid
        label = node.pred.describe(tree.domain).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{nid} [label="{label}"];')
        yid = walk(node.yes)
        nid_no = walk(node.no)
        lines.append(f"  n{nid} -> n{yid};")
        lines.append(f'  n{nid} -> n{nid_no} [style=dashed];')
        return nid

    walk(tree.root)
    del walk  # its cell holds walk itself: break the cycle
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass
class FitResult:
    tree: DTree
    min_leaf: int
    tried: List[Tuple[int, bool]]  # (min_leaf, accepted) of each probe, in order


def fit_max_leaf(ts: TrainingSet, accept: Callable[[DTree], bool], *,
                 confidence: float = 0.25, prune: bool = True) -> FitResult:
    """Largest `min_leaf` whose tree still passes `accept` (smallest tree).

    Tree quality usually degrades monotonically as min_leaf grows, so a
    binary search finds the frontier quickly. Where it is not monotone the
    search still returns a min_leaf whose tree `accept` passed, since only
    accepted probes move the lower end; `accept` must be deterministic. If
    even min_leaf=1 is rejected, that tree is returned, and `tried` holds
    that one rejected probe.
    """
    wg, wb = int(ts.weight[ts.good].sum()), int(ts.weight[~ts.good].sum())
    top = max(1, min(wg, wb) if min(wg, wb) > 0 else max(wg, wb))
    tried: List[Tuple[int, bool]] = []

    def probe(m: int) -> Tuple[DTree, bool]:
        tree = learn(ts, min_leaf=m, confidence=confidence, prune=prune)
        ok = accept(tree)
        tried.append((m, ok))
        return tree, ok

    # each probe lies strictly between the last accepted leaf size and the
    # smallest rejected one, so no leaf size is learned twice
    tree, ok = probe(1)
    if not ok:
        return FitResult(tree, 1, tried)
    lo = 1
    while lo < top:
        mid = (lo + top + 1) // 2
        t, ok = probe(mid)
        if ok:
            lo, tree = mid, t
        else:
            top = mid - 1
    return FitResult(tree, lo, tried)
