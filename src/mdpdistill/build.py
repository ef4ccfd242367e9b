"""State-space exploration for parsed models, plus the flat explicit format.

A validated AST is compiled once into Python (`compile_model`): `walk`
runs the breadth-first search from the initial valuation one state at a
time, and `expand_all` expands many states at once with numpy. The search
hands wide queue segments to `expand_all` and walks the rest, and writes
the rows straight into the model's arrays; the same AST always yields the
same state numbering.
Commands fire in module/declaration order; labelled commands synchronize
across all modules declaring the label (one enabled command per
participating module, all combinations enumerated, attribute (label, 0)).
Unlabelled commands act solo with attribute (module.cmdK, i) for the i-th
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from math import prod
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .core import TAU, Mdp, MdpError, _ranges, branch_groups
from .expr import (_PY_CMP, And, Arith, BoolLit, Cmp, Expr, IntLit, MinMax, Neg, Not,
                   Var, compile_expr, define)
from .lang import ModelAst, ModelError, parse_model, parse_predicate

DEFAULT_STATE_CAP = 1_000_000


@dataclass(frozen=True)
class CompiledModel:
    """A model AST as generated Python over the state slots v0, v1, ...

    `walk(states, index, s, wide, replay, cap, counts, row_kind, succ)`
    expands the queue `states` from state s on, in order. It tests the
    target, then takes each enabled action in declaration order: it checks
    the action's updates, numbers each successor in `index`, appending new
    ones to the queue, and appends the action's kind to `row_kind` and the
    successor ids to `succ`. A kind fixes the name id, the module and the
    branch probabilities (`kinds`). Each state's row count, 0 for a target,
    goes to `counts`. It returns (s, code, value) at the state to go on
    from: with code 0 when the queue is empty, or when `wide` states are
    pending and s >= replay; with a positive code when the state has no
    action or the queue holds more than `cap` states; with -1 - k when
    update k (indexing `updates`) leaves its range, with that value.

    `expand_all(G, T, B, H, *columns)` evaluates the same for m states at
    once with numpy, given one value column per slot. It fills the guard
    matrix G (m x kinds), the successor tensor T (m x all kinds' branches
    x slots), B, which marks the kinds with an update outside its range
    (m x kinds, zeroed by the caller), and the target mask H. Interval
    arithmetic over the declared ranges bounds every subexpression; one
    with a single possible value is written as that literal, so Python
    folds constants of any size. expand_all is None when a declared range,
    an update or a subexpression left to numpy may leave +-2**62, so its
    int64 arithmetic never overflows. It is compiled from its lines `wide`
    on first use, as only a wide queue segment needs it.
    """

    walk: Callable
    wide: Optional[Tuple[str, ...]]  # the body of expand_all, None without one
    slots: int
    names: Tuple[str, ...]  # action names, indexed by name id
    kinds: Tuple[Tuple[int, int, Tuple[float, ...]], ...]  # (name id, module, probabilities)
    updates: Tuple[Tuple[str, int, int, int], ...]  # (variable, lo, hi, line)

    @cached_property
    def expand_all(self) -> Optional[Callable]:
        return None if self.wide is None else define(
            "expand_all", self.slots, self.wide, outputs=("G", "T", "B", "H"), scope=_NUMPY)

    @property
    def source(self) -> str:
        return self.walk.source + (self.expand_all.source if self.expand_all else "")


_SAFE = 2 ** 62
_NUMPY = {"logical_not": np.logical_not, "logical_and": np.logical_and,
          "logical_or": np.logical_or, "minimum": np.minimum, "maximum": np.maximum}


def compile_model(ast: ModelAst) -> CompiledModel:
    """Generate `walk` and `expand_all` for a validated model AST.

    The source holds only slot names, integer literals and operators, never
    text from the model. An update check that the interval bounds prove is
    left out. Each branch probability of an action is the float
    of the exact product of its commands' probabilities, computed here once.
    """
    decls = ast.var_decls()
    slot = {d.name: f"v{i}" for i, d in enumerate(decls)}
    bounds = {d.name: (d.lo, d.hi) for d in decls}
    names: Dict[str, int] = {}
    kinds: List[Tuple[int, int, Tuple[float, ...]]] = []
    updates: List[Tuple[str, int, int, int]] = []
    body: List[str] = []  # the walker's lines for one state that is not a target
    opened = None  # the `if` line the body ends in; g<i> lines precede only combinations
    # the body of expand_all: one numpy operation a line, each into a fresh
    # t<i>, so no line nests however deep the expressions are
    wide: List[str] = []
    safe = all(-_SAFE <= d.lo and d.hi <= _SAFE for d in decls)

    computed: Dict[Expr, Tuple[str, int, int]] = {}

    def op(src: str, lo: int, hi: int, *operands) -> Tuple[str, int, int]:
        # a value the bounds pin down is written as its literal, so constants
        # beyond int64 are folded by Python and never reach numpy
        nonlocal safe
        if lo == hi:
            return repr(lo), lo, hi
        safe = safe and all(-_SAFE <= b <= _SAFE for _, *ends in operands + ((src, lo, hi),)
                                  for b in ends)
        wide.append(f"t{len(wide)} = {src}")
        return f"t{len(wide) - 1}", lo, hi

    def vec(e: Expr) -> Tuple[str, int, int]:
        """The name or literal holding `e` in expand_all, and bounds on its values."""
        if e in computed:
            return computed[e]
        if isinstance(e, (IntLit, BoolLit)):
            got = repr(e.value), int(e.value), int(e.value)
        elif isinstance(e, Var):
            got = (slot[e.name], *bounds[e.name])
        elif isinstance(e, Neg):
            a = vec(e.arg)
            got = op(f"-{a[0]}", -a[2], -a[1], a)
        elif isinstance(e, Arith):
            a, b = vec(e.left), vec(e.right)
            ends = {"+": (a[1] + b[1], a[2] + b[2]), "-": (a[1] - b[2], a[2] - b[1]),
                    "*": (a[1] * b[1], a[1] * b[2], a[2] * b[1], a[2] * b[2])}[e.op]
            got = op(f"{a[0]} {e.op} {b[0]}", min(ends), max(ends), a, b)
        elif isinstance(e, MinMax):
            args = [vec(a) for a in e.args]
            pick = min if e.op == "min" else max
            lo, hi = pick(a[1] for a in args), pick(a[2] for a in args)
            # leave out the arguments that can never be the value
            got, *rest = [a for a in args if (a[1] <= hi if e.op == "min" else a[2] >= lo)]
            for a in rest:
                got = op(f"{e.op}imum({got[0]}, {a[0]})", pick(got[1], a[1]),
                         pick(got[2], a[2]), got, a)
        elif isinstance(e, Cmp):
            a, b = vec(e.left), vec(e.right)
            got = op(f"{a[0]} {_PY_CMP[e.op]} {b[0]}", 0, 1, a, b)
        elif isinstance(e, Not):
            got = op(f"logical_not({vec(e.arg)[0]})", 0, 1)
        else:
            fn = "logical_and" if isinstance(e, And) else "logical_or"
            got = op(f"{fn}({vec(e.left)[0]}, {vec(e.right)[0]})", 0, 1)
        computed[e] = got
        return got

    def action(cmds, name: str, module: int, test: str, guard: str):
        # an `if` on the guards' Python value `test`, shared with the action
        # before when that tested the same, around every command's
        # alternatives in turn, each update checked where it is evaluated
        # unless its bounds prove it in range; then each successor, interned
        # as it is made. `guard` holds the guards' numpy value in expand_all.
        nonlocal safe, opened
        if opened != f"if {test}:":
            opened = f"if {test}:"
            body.append(opened)
        k = len(kinds)
        wide.append(f"G[:, {k!r}] = {guard}")
        alts_of = []
        for cmd in cmds:
            alts = []
            for alt in cmd.alts:
                assigned = {}
                for var, rhs in alt.updates:
                    i = len(updates)
                    lo, hi = bounds[var]
                    updates.append((var, lo, hi, cmd.line))
                    u, ulo, uhi = vec(rhs)
                    checked = ulo < lo or uhi > hi
                    # a literal or a slot in range is used as it stands
                    py = u if not checked and (ulo == uhi or isinstance(rhs, Var)) else f"u{i}"
                    if py != u:
                        body.append(f"    u{i} = {rhs.py(slot)}")
                    if checked:
                        body.extend([f"    if not {lo!r} <= u{i} <= {hi!r}:",
                                     f"        return s, {-1 - i!r}, u{i}"])
                    safe = safe and -_SAFE <= ulo and uhi <= _SAFE
                    if ulo < lo:
                        wide.append(f"B[:, {k!r}] |= {u} < {lo!r}")
                    if uhi > hi:
                        wide.append(f"B[:, {k!r}] |= {u} > {hi!r}")
                    assigned[slot[var]] = (py, u)
                alts.append((alt.prob, assigned))
            alts_of.append(alts)
        branch = sum(len(probs) for _, _, probs in kinds)
        probs = []
        for combo in product(*alts_of):
            p = Fraction(1)
            # each slot's value in walk and in expand_all
            assigned = {v: (v, v) for v in slot.values()}
            for q, a in combo:
                p *= q
                assigned.update(a)
            probs.append(float(p))
            body.extend(["    t = (" + "".join(f"{py}, " for py, _ in assigned.values()) + ")",
                         "    i = get(t, -1)", "    if i < 0:", "        i = index[t] = n",
                         "        add(t)", "        n += 1", "    found(i)"])
            wide.extend(f"T[:, {branch!r}, {i!r}] = {u}"
                        for i, (_, u) in enumerate(assigned.values()))
            branch += 1
        kinds.append((names.setdefault(name, len(names)), module, tuple(probs)))
        body.extend([f"    kind({k!r})", "    r += 1"])

    for mi, mod in enumerate(ast.modules, start=1):
        for cmd in mod.commands:
            if cmd.label is None:
                action([cmd], cmd.name, mi, cmd.guard.py(slot), vec(cmd.guard)[0])
    # label -> [(module index, its commands with the label)], in order of first use
    participants: Dict[str, List[Tuple[int, List]]] = {}
    for mi, mod in enumerate(ast.modules, start=1):
        for cmd in mod.commands:
            if cmd.label is not None:
                groups = participants.setdefault(cmd.label, [])
                if not groups or groups[-1][0] != mi:
                    groups.append((mi, []))
                groups[-1][1].append(cmd)
    guard = 0
    for label, groups in participants.items():
        if len(groups) == 1:
            # a label declared by a single module does not synchronize; its
            # actions belong to that module like unlabelled ones do
            mi, cmds = groups[0]
            for cmd in cmds:
                action([cmd], label, mi, cmd.guard.py(slot), vec(cmd.guard)[0])
            continue
        flags = []
        for _, cmds in groups:
            flags.append([])
            for cmd in cmds:
                body.append(f"g{guard} = {cmd.guard.py(slot)}")
                flags[-1].append((f"g{guard}", vec(cmd.guard)[0], cmd))
                guard += 1
        for combo in product(*flags):
            both = combo[0][1]
            for _, g, _ in combo[1:]:
                both = op(f"logical_and({both}, {g})", 0, 1)[0]
            action([cmd for _, _, cmd in combo], label, 0, " and ".join(g for g, _, _ in combo),
                   both)
    wide.append(f"H[:] = {vec(ast.target)[0]}")
    del vec  # its cell holds vec itself: break the cycle
    walk = [
        "get, add, found, kind, n = index.get, states.append, succ.append, row_kind.append, "
        "len(states)",
        "while s < n:",
        "    if n - s >= wide and s >= replay:",
        "        return s, 0, 0",
        "    (" + "".join(f"{v}, " for v in slot.values()) + ") = states[s]",
        "    r = 0",
        f"    if not ({ast.target.py(slot)}):",
        *("        " + line for line in body),
        "        if not r or n > cap:",
        "            return s, 1, 0",
        "    counts.append(r)",
        "    s += 1",
        "return s, 0, 0"]
    try:
        walk = define("walk", 0, walk, outputs=("states", "index", "s", "wide", "replay", "cap",
                                                "counts", "row_kind", "succ"), scope={"len": len})
    except (SyntaxError, RecursionError):
        raise ModelError("model too deeply nested to compile") from None
    return CompiledModel(walk, tuple(wide) if safe else None, len(decls), tuple(names),
                         tuple(kinds), tuple(updates))


WIDE = 16  # a pending queue segment this long is expanded by `expand_all`
# Once segments are batched, narrower ones are batched too while there has
# been at most one such batch per _HANDBACK states: a batch costs about as
# much as handing that many states back to the per-state loop.
_HANDBACK = 128
_DENSE = 1 << 22  # the most valuations a model may have to be expanded in batches


class _Frontier:
    """Expands wide queue segments with `expand_all`.

    It holds the valuations of the states numbered so far in `vals`, and
    their ids in `table`, a dense array indexed by the packed mixed-radix
    key of a valuation (-1 for a valuation not yet numbered). States found
    one at a time enter both when the next wide segment starts.
    """

    def __init__(self, prog: CompiledModel, decls):
        size = [d.hi - d.lo + 1 for d in decls]
        self.expand_all = prog.expand_all
        self.lo = np.array([d.lo for d in decls], dtype=np.int64)
        self.stride = np.array([prod(size[i + 1:]) for i in range(len(size))], dtype=np.int64)
        self.kind_len = np.array([len(k[2]) for k in prog.kinds], dtype=np.int64)
        self.table = np.full(prod(size), -1, dtype=np.int64)
        self.vals = np.empty((1024, len(size)), dtype=np.int64)
        self.n = 0  # states in vals and table
        self.narrow = 0  # narrow segments batched

    def add(self, vals: np.ndarray):
        """Number the given valuations n, n+1, ..."""
        n, k = self.n, len(vals)
        if n + k > len(self.vals):
            grown = np.empty((2 * (n + k), self.vals.shape[1]), dtype=np.int64)
            grown[:n] = self.vals[:n]
            self.vals = grown
        self.vals[n:n + k] = vals
        self.table[(vals - self.lo) @ self.stride] = np.arange(n, n + k)
        self.n += k

    def run(self, states: list, s: int, state_cap: int, parts):
        """Expand pending segments from state s on in batches, while they hold
        WIDE states or _HANDBACK allows a narrow one, appending each segment's
        per-state row counts, row kinds and successor ids to `parts`.
        Returns the next state to expand, and whether its segment failed as a
        batch; if states remain, `states` then lists all numbered so far."""
        self.add(np.array(states[self.n:], dtype=np.int64).reshape(-1, len(self.lo)))
        batch = ()
        while s < self.n and (self.n - s >= WIDE or self.narrow * _HANDBACK < self.n):
            self.narrow += self.n - s < WIDE
            end = self.n
            batch = self.batch(s, state_cap)
            if batch is None:
                break
            for part, got in zip(parts, batch):
                part.append(got)
            s = end
        if s < self.n:
            states.extend(map(tuple, self.vals[len(states):self.n].tolist()))
        return s, batch is None

    def batch(self, s: int, state_cap: int):
        """Expand the segment from state s to n, numbering new successors in
        order of first occurrence; None when a state of it has an update
        outside its range or a deadlock, or its new states pass the cap."""
        n, k = self.n, len(self.kind_len)
        vals = self.vals[s:n]
        G, B, H = np.empty((n - s, k), bool), np.zeros((n - s, k), bool), np.empty(n - s, bool)
        T = np.empty((n - s, self.kind_len.sum(), len(self.lo)), dtype=np.int64)
        self.expand_all(G, T, B, H, *vals.T)
        G[H] = False
        if (G & B).any() or not (G.any(axis=1) | H).all():
            return None
        # successors in (state, kind, branch) order
        succ = np.take(T.reshape(-1, len(self.lo)),
                       np.flatnonzero(np.repeat(G, self.kind_len, axis=1)), axis=0)
        keys = (succ - self.lo) @ self.stride
        ids = self.table[keys]
        new = np.flatnonzero(ids < 0)
        # the position of each new key's first occurrence, through the table
        at, new_keys = np.arange(len(new)), keys[new]
        self.table[new_keys] = len(new)
        np.minimum.at(self.table, new_keys, at)
        first = self.table[new_keys]
        fresh = first == at
        if n + np.count_nonzero(fresh) > state_cap:
            self.table[new_keys] = -1
            return None
        ids[new] = n + (np.cumsum(fresh) - 1)[first]
        self.add(succ[new[fresh]])
        return G.sum(axis=1), np.nonzero(G)[1], ids


def build_mdp(ast: ModelAst, *, state_cap: int = DEFAULT_STATE_CAP) -> Mdp:
    """Explore the reachable state space of a validated model AST.

    States are numbered in breadth-first discovery order, so the queue is
    the numbering. The generated `walk` expands it one state at a time.
    When it hands back a pending segment of at least WIDE states, that is
    expanded at once by `expand_all`, which numbers its successors as the
    walker would. A segment whose batch holds an error is replayed by the
    walker, which stops at the first offending state and action. Within a
    state, the cap is checked after the successors of the actions before
    an out-of-range update are numbered, and a deadlock last.
    """
    prog = compile_model(ast)
    decls = ast.var_decls()
    init = tuple(d.init for d in decls)
    index = {init: 0}
    states = [init]
    counts: List[int] = []
    row_kind: List[int] = []
    succ: List[int] = []
    parts = ([], [], [])  # the same three as arrays, in numbering order
    cap = max(state_cap, 1)  # the initial state is always numbered
    # the walker hands a segment this wide to the frontier; without batches
    # none is, since it stops once it holds more than `cap` states
    wide = WIDE if decls and prog.wide is not None and \
        prod(d.hi - d.lo + 1 for d in decls) <= _DENSE else cap + 1
    frontier = None  # made when the first wide segment appears
    replay = 0  # states before this one are expanded one at a time

    def flush():
        for part, got in zip(parts, (counts, row_kind, succ)):
            part.append(np.array(got, dtype=np.int64))
            got.clear()

    s = 0
    while True:
        s, error, value = prog.walk(states, index, s, wide, replay, cap, counts, row_kind, succ)
        if error:
            if len(states) > cap:
                raise ModelError(f"state cap exceeded ({state_cap} states explored)")
            where = f"in state {dict(zip((d.name for d in decls), states[s]))}"
            if error > 0:
                raise ModelError(f"deadlock: no enabled command {where}")
            var, lo, hi, line = prog.updates[-1 - error]
            raise ModelError(f"update drives {var} to {value}, outside [{lo}..{hi}], {where}",
                             line)
        if s >= len(states):  # a batch that ends the queue leaves `states` short
            break
        frontier = frontier or _Frontier(prog, decls)
        flush()
        s, failed = frontier.run(states, s, state_cap, parts)
        if failed:
            replay = len(states)
        index.update(zip(states[len(index):], range(len(index), len(states))))
    flush()
    counts, row_kind, succ = (np.concatenate(part) for part in parts)

    if frontier is not None:
        frontier.add(np.array(states[frontier.n:], dtype=np.int64).reshape(-1, len(decls)))
        n = frontier.n
        valuation = frontier.vals[:n].copy()
    else:
        n = len(states)
        try:
            valuation = np.fromiter(chain.from_iterable(states), np.int64,
                                    n * len(decls)).reshape(n, len(decls))
        except OverflowError:
            raise ModelError("a reachable state holds a value outside the 64-bit range") \
                from None
    parts = frontier = None  # let the pieces go before the assembly
    kind_len = np.array([len(k[2]) for k in prog.kinds], dtype=np.int64)
    kind_start = np.concatenate(([0], np.cumsum(kind_len)))
    kind_prob = np.array([p for k in prog.kinds for p in k[2]], dtype=np.float64)
    row_len = kind_len[row_kind]
    prob = kind_prob[_ranges(kind_start[row_kind], kind_start[row_kind + 1])]
    row_len, succ, prob = _merge_repeats(row_len, succ, prob, n)
    mdp = _assemble(
        tuple((d.name, d.lo, d.hi) for d in decls), valuation, 0, len(ast.modules),
        prog.names, np.repeat(np.arange(n), counts),
        np.array([k[0] for k in prog.kinds], dtype=np.int64)[row_kind],
        np.array([k[1] for k in prog.kinds], dtype=np.int64)[row_kind],
        row_len, succ, prob, counts == 0)
    return mdp.validate()


def _merge_repeats(row_len, succ, prob, n):
    """Merge the branches of each row that share a successor, one of n states.

    The merged branch sits where the successor first occurs, and its mass
    is added in branch order, as a per-row dict would add it: bincount adds
    its weights in input order.
    """
    entry_row = np.repeat(np.arange(len(row_len)), row_len)
    order, starts = branch_groups(entry_row, succ, n)
    if starts.all():
        return row_len, succ, prob
    group = np.empty(len(order), dtype=np.int64)
    group[order] = np.cumsum(starts) - 1
    first = np.zeros(len(order), dtype=bool)
    first[order[starts]] = True
    mass = np.bincount(group, weights=prob)
    return (np.bincount(entry_row[first], minlength=len(row_len)), succ[first],
            mass[group[first]])


def _assemble(var_decls, valuation, initial, module_count, names, row_state, row_name,
              row_module, row_len, succ, prob, is_target) -> Mdp:
    """An Mdp that holds the given action rows, grouped by state.

    Rows may come in any state order and keep their relative order within
    a state. `row_name` indexes `names`; the branches of all rows are
    concatenated in `succ` and `prob`. Every target state gets the single
    tau self-loop in place of its rows. Action ids are renumbered to rank
    the names that occur.
    """
    n = len(is_target)
    names = list(names) + ([] if TAU in names else [TAU])
    targets = np.flatnonzero(is_target)
    k = len(targets)
    row_state = np.concatenate((np.asarray(row_state, dtype=np.int64), targets))
    row_name = np.concatenate((np.asarray(row_name, dtype=np.int64),
                               np.full(k, names.index(TAU))))
    row_module = np.concatenate((np.asarray(row_module, dtype=np.int64), np.zeros(k, np.int64)))
    row_len = np.concatenate((np.asarray(row_len, dtype=np.int64), np.ones(k, np.int64)))
    succ = np.concatenate((np.asarray(succ, dtype=np.int64), targets))
    prob = np.concatenate((np.asarray(prob, dtype=np.float64), np.ones(k)))
    # the rows of the other states and the tau rows, stably grouped by state
    tau_row = np.arange(len(row_state)) >= len(row_state) - k
    rows = np.flatnonzero(~is_target[row_state] | tau_row)
    rows = rows[np.argsort(row_state[rows], kind="stable")]
    ptr = np.concatenate(([0], np.cumsum(row_len)))
    entries = _ranges(ptr[rows], ptr[rows + 1])
    used = np.unique(row_name[rows]).tolist()
    ranked = sorted(used, key=names.__getitem__)
    rank = np.zeros(len(names), dtype=np.int64)
    rank[ranked] = np.arange(len(ranked))
    counts = np.bincount(row_state[rows], minlength=n)
    return Mdp(
        var_decls=tuple(var_decls),
        row_start=np.concatenate(([0], np.cumsum(counts))),
        row_state=np.repeat(np.arange(n), counts),
        branches=sp.csr_matrix(
            (prob[entries], succ[entries], np.concatenate(([0], np.cumsum(row_len[rows])))),
            shape=(len(rows), n)),
        action_id=rank[row_name[rows]],
        module=row_module[rows],
        valuation=valuation,
        is_target=is_target,
        action_names=tuple(names[i] for i in ranked),
        initial=initial,
        module_count=module_count,
    )


def retarget(mdp: Mdp, expr: str) -> Mdp:
    """The model with its target set replaced by a predicate over its variables."""
    names = [n for n, _, _ in mdp.var_decls]
    pred = compile_expr(parse_predicate(expr, names), names)
    target = np.fromiter((bool(pred(*vec)) for vec in mdp.valuation.tolist()), bool, mdp.n_states)
    return _assemble(mdp.var_decls, mdp.valuation, mdp.initial, mdp.module_count,
                     mdp.action_names, mdp.row_state, mdp.action_id, mdp.module,
                     np.diff(mdp.branches.indptr), mdp.branches.indices, mdp.branches.data,
                     target).validate()


# --------------------------------------------------------------------------
# Flat explicit format.
#
#   vars <name:lo..hi>*
#   state <id> <val>*
#   act <sid> <name> <module> (<prob> <sid'>)+
#   init <id>
#   target <id>+
#
# '#' starts a comment; tokens are whitespace-separated.

def parse_flat(src: str) -> Mdp:
    var_decls: List[Tuple[str, int, int]] = []
    state_vecs: Dict[int, Tuple[int, ...]] = {}
    act_rows: List[Tuple[int, str, int, List[Tuple[float, int]]]] = []
    init: List[int] = []
    target: List[int] = []

    def err(msg, ln):
        raise ModelError(msg, ln)

    for ln, raw in enumerate(src.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kw = toks[0]
        try:
            if kw == "vars":
                for tok in toks[1:]:
                    name, _, rng = tok.partition(":")
                    lo, _, hi = rng.partition("..")
                    if not name or not rng or not hi:
                        err(f"malformed var token {tok!r}", ln)
                    var_decls.append((name, int(lo), int(hi)))
            elif kw == "state":
                sid = int(toks[1])
                if sid in state_vecs:
                    err(f"duplicate state id {sid}", ln)
                state_vecs[sid] = tuple(int(t) for t in toks[2:])
            elif kw == "act":
                sid = int(toks[1])
                name = toks[2]
                module = int(toks[3])
                if module < 0:
                    err(f"negative module {module}", ln)
                rest = toks[4:]
                if not rest or len(rest) % 2:
                    err("act needs (prob succ) pairs", ln)
                branches = [(float(rest[i]), int(rest[i + 1])) for i in range(0, len(rest), 2)]
                act_rows.append((sid, name, module, branches))
            elif kw == "init":
                init.append(int(toks[1]))
            elif kw == "target":
                target.extend(int(t) for t in toks[1:])
            else:
                err(f"unknown directive {kw!r}", ln)
        except (ValueError, IndexError):
            err(f"malformed {kw!r} line", ln)

    if not var_decls:
        raise ModelError("missing vars line")
    if len(init) != 1:
        raise ModelError("need exactly one init line")
    n = len(state_vecs)
    if sorted(state_vecs) != list(range(n)):
        raise ModelError("state ids must be exactly 0..n-1")
    for sid, vec in state_vecs.items():
        if len(vec) != len(var_decls):
            raise ModelError(f"state {sid}: wrong vector width")
    for sid, _, _, branches in act_rows:
        if sid not in state_vecs:
            raise ModelError(f"act references unknown state {sid}")
        for _, t in branches:
            if t not in state_vecs:
                raise ModelError(f"act at {sid} references unknown state {t}")
    for t in target:
        if t not in state_vecs:
            raise ModelError(f"target references unknown state {t}")

    names: Dict[str, int] = {}
    row_name = [names.setdefault(name, len(names)) for _, name, _, _ in act_rows]
    is_target = np.zeros(n, dtype=bool)
    is_target[target] = True
    modules = [module for sid, _, module, _ in act_rows]
    try:
        valuation = np.array([state_vecs[i] for i in range(n)],
                             dtype=np.int64).reshape(n, len(var_decls))
        modules = np.array(modules, dtype=np.int64)
    except OverflowError:
        raise ModelError("a state value or module lies outside the 64-bit range") from None
    kept = ~is_target[[sid for sid, _, _, _ in act_rows]]
    mdp = _assemble(
        var_decls, valuation, init[0], max(int(modules[kept].max(initial=1)), 1), names,
        [sid for sid, _, _, _ in act_rows], row_name, modules,
        [len(branches) for *_, branches in act_rows],
        [t for *_, branches in act_rows for _, t in branches],
        [p for *_, branches in act_rows for p, _ in branches], is_target)
    try:
        return mdp.validate()
    except MdpError as e:
        raise ModelError(str(e)) from None


def export_flat(mdp: Mdp) -> str:
    out = []
    out.append("vars " + " ".join(f"{n}:{lo}..{hi}" for n, lo, hi in mdp.var_decls))
    for i, vec in enumerate(mdp.valuation.tolist()):
        out.append(f"state {i} " + " ".join(str(x) for x in vec))
    ptr = mdp.branches.indptr.tolist()
    succ, prob = mdp.branches.indices.tolist(), mdp.branches.data.tolist()
    for r, (s, a, m) in enumerate(zip(mdp.row_state.tolist(), mdp.action_id.tolist(),
                                      mdp.module.tolist())):
        pairs = " ".join(f"{p!r} {t}" for t, p in zip(succ[ptr[r]:ptr[r + 1]],
                                                     prob[ptr[r]:ptr[r + 1]]))
        out.append(f"act {s} {mdp.action_names[a]} {m} {pairs}")
    out.append(f"init {mdp.initial}")
    if mdp.is_target.any():
        out.append("target " + " ".join(map(str, np.flatnonzero(mdp.is_target).tolist())))
    return "\n".join(out) + "\n"


def is_flat(text: str) -> bool:
    """True when the first line that is not blank or a comment is a 'vars' directive."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            return line.split()[0] == "vars"
    return False


def load_model(text: str, *, state_cap: int = DEFAULT_STATE_CAP) -> Mdp:
    """Load either format, telling them apart with `is_flat`."""
    if is_flat(text):
        return parse_flat(text)
    return build_mdp(parse_model(text), state_cap=state_cap)
