"""State-space exploration for parsed models, plus the flat explicit format.

BFS from the initial valuation gives a stable state numbering: the same AST
always yields the same MDP. Commands fire in module/declaration order;
labelled commands synchronize across all modules declaring the label (one
enabled command per participating module, all combinations enumerated,
attribute (label, 0)). Unlabelled commands act solo with attribute
(module.cmdK, i) for the i-th module.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

from .core import Action, ActionAttr, Mdp, MdpError, make_absorbing
from .lang import ModelAst, ModelError, parse_model

DEFAULT_STATE_CAP = 1_000_000


def build_mdp(ast: ModelAst, *, state_cap: int = DEFAULT_STATE_CAP) -> Mdp:
    """Explore the reachable state space of a validated model AST."""
    decls = ast.var_decls()
    names = [d.name for d in decls]
    bounds = {d.name: (d.lo, d.hi) for d in decls}
    init_vec = tuple(d.init for d in decls)

    # label -> ordered list of (module_index, commands); module indices are 1-based
    participants: Dict[str, List[Tuple[int, List]]] = {}
    solo: List[Tuple[int, object]] = []
    for mi, mod in enumerate(ast.modules, start=1):
        for cmd in mod.commands:
            if cmd.label is None:
                solo.append((mi, cmd))
            else:
                slot = participants.setdefault(cmd.label, [])
                if slot and slot[-1][0] == mi:
                    slot[-1][1].append(cmd)
                else:
                    slot.append((mi, [cmd]))
    labels_in_order = []
    seen_labels = set()
    for mod in ast.modules:
        for cmd in mod.commands:
            if cmd.label is not None and cmd.label not in seen_labels:
                seen_labels.add(cmd.label)
                labels_in_order.append(cmd.label)

    index: Dict[Tuple[int, ...], int] = {init_vec: 0}
    states: List[Tuple[int, ...]] = [init_vec]
    actions: List[Tuple[Action, ...]] = []
    target: List[int] = []
    queue = deque([0])

    def env_of(vec):
        return dict(zip(names, vec))

    def resolve(env, updates, cmd, vec):
        # evaluate all right-hand sides against the source state
        done = []
        for tgt, rhs in updates:
            v = rhs.eval(env)
            lo, hi = bounds[tgt]
            if not (lo <= v <= hi):
                raise ModelError(
                    f"update drives {tgt} to {v}, outside [{lo}..{hi}], in state "
                    f"{dict(zip(names, vec))}", cmd.line)
            done.append((names.index(tgt), v))
        return done

    def apply(vec, resolved):
        out = list(vec)
        for pos, v in resolved:
            out[pos] = v
        return tuple(out)

    def intern(vec) -> int:
        got = index.get(vec)
        if got is not None:
            return got
        if len(states) >= state_cap:
            raise ModelError(f"state cap exceeded ({state_cap} states explored)")
        idx = len(states)
        index[vec] = idx
        states.append(vec)
        actions.append(())  # placeholder, filled when dequeued
        queue.append(idx)
        return idx

    actions.append(())
    while queue:
        s = queue.popleft()
        vec = states[s]
        env = env_of(vec)
        if ast.target.eval(env):
            target.append(s)
            actions[s] = ()  # absorbed below
            continue
        acts: List[Action] = []

        def add_action(attr, branches):
            # branches: list of (Fraction prob, vec); merge mass per successor
            mass: Dict[int, float] = {}
            order: List[int] = []
            for p, nvec in branches:
                t = intern(nvec)
                if t not in mass:
                    mass[t] = 0.0
                    order.append(t)
                mass[t] += float(p)
            acts.append(Action(attr, tuple(order), tuple(mass[t] for t in order)))

        for mi, cmd in solo:
            if cmd.guard.eval(env):
                branches = [(alt.prob, apply(vec, resolve(env, alt.updates, cmd, vec)))
                            for alt in cmd.alts]
                add_action(ActionAttr(cmd.name, mi), branches)

        for label in labels_in_order:
            parts_of = participants[label]
            # a label declared by a single module is not synchronizing;
            # its actions belong to that module like unlabelled ones do
            owner = parts_of[0][0] if len(parts_of) == 1 else 0
            groups = []
            blocked = False
            for _, cmds in parts_of:
                enabled = [c for c in cmds if c.guard.eval(env)]
                if not enabled:
                    blocked = True
                    break
                groups.append(enabled)
            if blocked:
                continue
            combos = [[]]
            for grp in groups:
                combos = [pre + [c] for pre in combos for c in grp]
            for combo in combos:
                parts = [(cmd, [(alt.prob, resolve(env, alt.updates, cmd, vec))
                                for alt in cmd.alts]) for cmd in combo]
                branches = [(1, ())]
                for _, alts in parts:
                    branches = [(p * q, ups + tuple(r))
                                for p, ups in branches for q, r in alts]
                add_action(ActionAttr(label, owner),
                           [(p, apply(vec, ups)) for p, ups in branches])

        if not acts:
            raise ModelError(f"deadlock: no enabled command in state {dict(zip(names, vec))}")
        actions[s] = tuple(acts)

    mdp = Mdp(
        var_decls=tuple((d.name, d.lo, d.hi) for d in decls),
        states=tuple(states),
        actions=make_absorbing(actions, target),
        initial=0,
        target=frozenset(target),
        module_count=len(ast.modules),
    )
    return mdp.validate()


def load_model(src: str, *, state_cap: int = DEFAULT_STATE_CAP) -> Mdp:
    return build_mdp(parse_model(src), state_cap=state_cap)


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

    actions: List[List[Action]] = [[] for _ in range(n)]
    for sid, name, module, branches in act_rows:
        if sid not in state_vecs:
            raise ModelError(f"act references unknown state {sid}")
        for _, t in branches:
            if t not in state_vecs:
                raise ModelError(f"act at {sid} references unknown state {t}")
        succs = tuple(t for _, t in branches)
        probs = tuple(p for p, _ in branches)
        actions[sid].append(Action(ActionAttr(name, module), succs, probs))

    module_count = max((a.attr.module for row in actions for a in row), default=1)
    mdp = Mdp(
        var_decls=tuple(var_decls),
        states=tuple(state_vecs[i] for i in range(n)),
        actions=make_absorbing([tuple(row) for row in actions], target),
        initial=init[0],
        target=frozenset(target),
        module_count=max(module_count, 1),
    )
    try:
        return mdp.validate()
    except MdpError as e:
        raise ModelError(str(e)) from None


def export_flat(mdp: Mdp) -> str:
    out = []
    out.append("vars " + " ".join(f"{n}:{lo}..{hi}" for n, lo, hi in mdp.var_decls))
    for i, vec in enumerate(mdp.states):
        out.append(f"state {i} " + " ".join(str(v) for v in vec))
    for s in range(mdp.n_states):
        for a in mdp.actions[s]:
            pairs = " ".join(f"{p!r} {t}" for t, p in zip(a.succs, a.probs))
            out.append(f"act {s} {a.attr.name} {a.attr.module} {pairs}")
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
