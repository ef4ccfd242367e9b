"""State-space exploration for parsed models, plus the flat explicit format.

A validated AST is compiled once into Python (`compile_model`): one
`expand` function lists the enabled actions of a state, and `is_target`
tests the target predicate. Breadth-first search from the initial
valuation calls them once per state and writes the rows straight into a
SparseView, so the same AST always yields the same state numbering.
Commands fire in module/declaration order; labelled commands synchronize
across all modules declaring the label (one enabled command per
participating module, all combinations enumerated, attribute (label, 0)).
Unlabelled commands act solo with attribute (module.cmdK, i) for the i-th
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Dict, List, Tuple

import numpy as np
import scipy.sparse as sp

from .core import TAU, Mdp, MdpError, SparseView, _ranges, branch_groups
from .expr import compile_expr, define
from .lang import ModelAst, ModelError, parse_model, parse_predicate

DEFAULT_STATE_CAP = 1_000_000


@dataclass(frozen=True)
class CompiledModel:
    """A model AST as generated Python over the state slots v0, v1, ...

    `expand(*state)` returns the state's enabled actions in declaration
    order as two lists: the kind of each action, and the successor
    valuations of all of them, action after action. A kind fixes the name
    id, the module and the branch probabilities (`kinds`). An update
    leaving its variable's range ends the lists with the kind -1 - k, where
    k indexes `updates`, and the value, so errors surface in the order the
    actions are taken.
    """

    source: str
    expand: Callable
    is_target: Callable
    names: Tuple[str, ...]  # action names, indexed by name id
    kinds: Tuple[Tuple[int, int, Tuple[float, ...]], ...]  # (name id, module, probabilities)
    updates: Tuple[Tuple[str, int, int, int], ...]  # (variable, lo, hi, line)


def compile_model(ast: ModelAst) -> CompiledModel:
    """Generate `expand` and `is_target` for a validated model AST.

    The source holds only slot names, integer literals and operators, never
    text from the model. Each branch probability of an action is the float
    of the exact product of its commands' probabilities, computed here once.
    """
    decls = ast.var_decls()
    slot = {d.name: f"v{i}" for i, d in enumerate(decls)}
    bounds = {d.name: (d.lo, d.hi) for d in decls}
    names: Dict[str, int] = {}
    kinds: List[Tuple[int, int, Tuple[float, ...]]] = []
    updates: List[Tuple[str, int, int, int]] = []
    body = ["kinds = []", "branches = []"]

    def action(cmds, name: str, module: int):
        # the body of an `if` on the guards: every command's alternatives in
        # turn, each update checked where it is evaluated; then one successor
        # per combination of alternatives
        alts_of = []
        for cmd in cmds:
            alts = []
            for alt in cmd.alts:
                assigned = {}
                for var, rhs in alt.updates:
                    k = len(updates)
                    lo, hi = bounds[var]
                    updates.append((var, lo, hi, cmd.line))
                    body.extend([f"    u{k} = {rhs.py(slot)}",
                                 f"    if not {lo!r} <= u{k} <= {hi!r}:",
                                 f"        kinds.append({-1 - k!r})",
                                 f"        branches.append(u{k})",
                                 "        return kinds, branches"])
                    assigned[slot[var]] = f"u{k}"
                alts.append((alt.prob, assigned))
            alts_of.append(alts)
        probs, succs = [], []
        for combo in product(*alts_of):
            p = Fraction(1)
            assigned = {}
            for q, a in combo:
                p *= q
                assigned.update(a)
            probs.append(float(p))
            succs.append("(" + "".join(f"{assigned.get(v, v)}, " for v in slot.values()) + ")")
        kinds.append((names.setdefault(name, len(names)), module, tuple(probs)))
        body.append(f"    kinds.append({len(kinds) - 1!r})")
        body.append(f"    branches += {''.join(t + ', ' for t in succs)}")

    for mi, mod in enumerate(ast.modules, start=1):
        for cmd in mod.commands:
            if cmd.label is None:
                body.append(f"if {cmd.guard.py(slot)}:")
                action([cmd], cmd.name, mi)
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
                body.append(f"if {cmd.guard.py(slot)}:")
                action([cmd], label, mi)
            continue
        flags = []
        for _, cmds in groups:
            flags.append([])
            for cmd in cmds:
                body.append(f"g{guard} = {cmd.guard.py(slot)}")
                flags[-1].append((f"g{guard}", cmd))
                guard += 1
        for combo in product(*flags):
            body.append("if " + " and ".join(g for g, _ in combo) + ":")
            action([cmd for _, cmd in combo], label, 0)
    body.append("return kinds, branches")

    target = [f"return {ast.target.py(slot)}"]
    try:
        expand = define("expand", len(decls), body)
        is_target = define("is_target", len(decls), target)
    except (SyntaxError, RecursionError):
        raise ModelError("model too deeply nested to compile") from None
    return CompiledModel(expand.source + is_target.source, expand, is_target,
                         tuple(names), tuple(kinds), tuple(updates))


def build_mdp(ast: ModelAst, *, state_cap: int = DEFAULT_STATE_CAP) -> Mdp:
    """Explore the reachable state space of a validated model AST."""
    prog = compile_model(ast)
    decls = ast.var_decls()
    expand, is_target = prog.expand, prog.is_target
    init = tuple(d.init for d in decls)
    index = {init: 0}
    intern = index.setdefault
    states = [init]
    targets: List[int] = []
    counts: List[int] = []
    row_kind: List[int] = []
    succ: List[int] = []

    def where(vec) -> str:
        return f"in state {dict(zip((d.name for d in decls), vec))}"

    # states are numbered in discovery order, so the queue is the numbering
    s = 0
    while s < len(states):
        vec = states[s]
        s += 1
        if is_target(*vec):
            targets.append(s - 1)
            counts.append(0)
            continue
        acts, branches = expand(*vec)
        bad = acts.pop() if acts and acts[-1] < 0 else None
        value = branches.pop() if bad is not None else None
        ids = [intern(t, len(index)) for t in branches]
        if len(index) > len(states):
            if len(index) > state_cap:
                raise ModelError(f"state cap exceeded ({state_cap} states explored)")
            for t, i in zip(branches, ids):
                if i == len(states):
                    states.append(t)
        if bad is not None:
            var, lo, hi, line = prog.updates[-1 - bad]
            raise ModelError(f"update drives {var} to {value}, outside [{lo}..{hi}], "
                             f"{where(vec)}", line)
        if not acts:
            raise ModelError(f"deadlock: no enabled command {where(vec)}")
        row_kind.extend(acts)
        succ.extend(ids)
        counts.append(len(acts))

    n = len(states)
    try:
        valuation = np.array(states, dtype=np.int64).reshape(n, len(decls))
    except OverflowError:
        raise ModelError("a reachable state holds a value outside the 64-bit range") from None
    target = np.zeros(n, dtype=bool)
    target[targets] = True
    row_kind = np.array(row_kind, dtype=np.int64)
    kind_len = np.array([len(k[2]) for k in prog.kinds], dtype=np.int64)
    kind_start = np.concatenate(([0], np.cumsum(kind_len)))
    kind_prob = np.array([p for k in prog.kinds for p in k[2]], dtype=np.float64)
    row_len, succ = kind_len[row_kind], np.array(succ, dtype=np.int64)
    prob = kind_prob[_ranges(kind_start[row_kind], kind_start[row_kind + 1])]
    row_len, succ, prob = _merge_repeats(row_len, succ, prob)
    mdp = _assemble(
        tuple((d.name, d.lo, d.hi) for d in decls), valuation, 0, len(ast.modules),
        prog.names, np.repeat(np.arange(n), counts),
        np.array([k[0] for k in prog.kinds], dtype=np.int64)[row_kind],
        np.array([k[1] for k in prog.kinds], dtype=np.int64)[row_kind],
        row_len, succ, prob, target)
    return mdp.validate()


def _merge_repeats(row_len, succ, prob):
    """Merge the branches of each row that share a successor.

    The merged branch sits where the successor first occurs, and its mass
    is added in branch order, as a per-row dict would add it: bincount adds
    its weights in input order.
    """
    entry_row = np.repeat(np.arange(len(row_len)), row_len)
    order, starts = branch_groups(entry_row, succ)
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
    """An Mdp whose view holds the given action rows, grouped by state.

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
    view = SparseView(
        row_start=np.concatenate(([0], np.cumsum(counts))),
        row_state=np.repeat(np.arange(n), counts),
        branches=sp.csr_matrix(
            (prob[entries], succ[entries], np.concatenate(([0], np.cumsum(row_len[rows])))),
            shape=(len(rows), n)),
        action_id=rank[row_name[rows]],
        module=row_module[rows],
        valuation=valuation,
        is_target=is_target,
    )
    return Mdp(tuple(var_decls), view, tuple(names[i] for i in ranked), initial, module_count)


def load_model(src: str, *, state_cap: int = DEFAULT_STATE_CAP) -> Mdp:
    return build_mdp(parse_model(src), state_cap=state_cap)


def retarget(mdp: Mdp, expr: str) -> Mdp:
    """The model with its target set replaced by a predicate over its variables."""
    names = [n for n, _, _ in mdp.var_decls]
    pred = compile_expr(parse_predicate(expr, names), names)
    v = mdp.sparse
    target = np.fromiter((bool(pred(*vec)) for vec in v.valuation.tolist()), bool, mdp.n_states)
    return _assemble(mdp.var_decls, v.valuation, mdp.initial, mdp.module_count,
                     mdp.action_names, v.row_state, v.action_id, v.module,
                     np.diff(v.branches.indptr), v.branches.indices, v.branches.data,
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
    v = mdp.sparse
    out = []
    out.append("vars " + " ".join(f"{n}:{lo}..{hi}" for n, lo, hi in mdp.var_decls))
    for i, vec in enumerate(v.valuation.tolist()):
        out.append(f"state {i} " + " ".join(str(x) for x in vec))
    ptr = v.branches.indptr.tolist()
    succ, prob = v.branches.indices.tolist(), v.branches.data.tolist()
    for r, (s, a, m) in enumerate(zip(v.row_state.tolist(), v.action_id.tolist(),
                                      v.module.tolist())):
        pairs = " ".join(f"{p!r} {t}" for t, p in zip(succ[ptr[r]:ptr[r + 1]],
                                                     prob[ptr[r]:ptr[r + 1]]))
        out.append(f"act {s} {mdp.action_names[a]} {m} {pairs}")
    out.append(f"init {mdp.initial}")
    if mdp.target:
        out.append("target " + " ".join(str(t) for t in sorted(mdp.target)))
    return "\n".join(out) + "\n"


def is_flat(text: str) -> bool:
    """True when the first line that is not blank or a comment is a 'vars' directive."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            return line.split()[0] == "vars"
    return False


def sniff_and_load(text: str, *, state_cap: int = DEFAULT_STATE_CAP) -> Mdp:
    """Load either format, telling them apart with `is_flat`."""
    if is_flat(text):
        return parse_flat(text)
    return load_model(text, state_cap=state_cap)
