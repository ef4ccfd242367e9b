"""Command line front end.

    mdpdistill solve   --model M [--engine vi|brtdp] [--eps E] ...
    mdpdistill distill --model M [--runs N] [--variant IDP] [--min-leaf auto] ...
    mdpdistill compare --model M [--csv out.csv] ...
    mdpdistill export  --model M [--out out.flat]

Models are read in the guarded-command language, or in the flat explicit
format when the file starts with a `vars` directive. Exit status is 0 on
success, 1 when an engine did not converge, a simulated run hit the step
cap, a quality budget was missed or the decision tree grew deeper than the
recursion limit, 2 on bad input.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import bdd, dtree, strategy as strat
from .build import (DEFAULT_STATE_CAP, build_mdp, export_flat, is_flat, parse_flat,
                    retarget)
from .core import Mdp, MdpError
# the benchmark wraps the simulation under this name
from .importance import build_training_set, importance_of, simulate as simulate_batched
from .lang import ModelError, parse_model, parse_predicate
from .solver import brtdp, value_iteration

VARIANTS = {
    "IDP": ("repeat", "DP"), "IDE": ("repeat", "DE"),
    "IAP": ("repeat", "AP"), "IAE": ("repeat", "AE"),
    "OD": ("once", "DP"), "OA": ("once", "AP"),
}


def _load(args) -> Mdp:
    try:
        text = Path(args.model).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ModelError(f"{args.model}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    if is_flat(text):
        mdp = parse_flat(text)
        return retarget(mdp, args.target_expr) if args.target_expr else mdp
    ast = parse_model(text)
    if args.target_expr:
        names = [d.name for d in ast.var_decls()]
        ast.target = parse_predicate(args.target_expr, names, dict(ast.constants))
    return build_mdp(ast, state_cap=args.state_cap)


def _solve(mdp: Mdp, args):
    if args.engine == "vi":
        return value_iteration(mdp, args.eps)
    return brtdp(mdp, args.eps, seed=args.seed)


def _converged(va) -> bool:
    """Whether the engine met its gap; if not, say so on stderr."""
    if not va.converged:
        print(f"error: {va.engine} did not converge (gap {va.gap:.3g})", file=sys.stderr)
    return va.converged


def _runs_ended(stats) -> bool:
    """Whether every simulated run ended before the step cap; if not, say so on stderr."""
    if stats.truncated_runs:
        print(f"error: {stats.truncated_runs} of {stats.total_runs} simulated runs hit "
              f"the step cap of {stats.max_steps} steps", file=sys.stderr)
    return not stats.truncated_runs


def _rel_error(value: float, reference: float) -> float:
    """The value lost against `reference`, relative to it; 0 if none is lost."""
    return 0.0 if reference <= 0 else max(0.0, (reference - value) / reference)


def _kept_budget(met: bool, tree_value: float, rel: float, budget: float) -> bool:
    """Whether the tree kept to the quality budget; if not, say so on stderr."""
    if not met:
        print(f"error: tree value {tree_value:.10g} loses {rel:.3g} of the strategy value, "
              f"over the budget of {budget:g}", file=sys.stderr)
    return met


def _print_kv(pairs):
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        print(f"{k:<{width}}  {v}")


def cmd_solve(args) -> int:
    mdp = _load(args)
    va = _solve(mdp, args)
    sigma = strat.extract_liberal(mdp, va, exit_union=args.exit_union)
    value = strat.evaluate(sigma)
    _print_kv([
        ("states", mdp.n_states),
        ("target states", int(mdp.is_target.sum())),
        ("engine", va.engine),
        ("lower", f"{va.state_lower[mdp.initial]:.10g}"),
        ("upper", f"{va.state_upper[mdp.initial]:.10g}"),
        ("gap", f"{va.gap:.3g}"),
        ("explored", f"{len(va.explored)} ({100.0 * len(va.explored) / mdp.n_states:.1f}%)"),
        ("converged", "yes" if va.converged else "no"),
        ("defined states", int(sigma.defined.sum())),
        ("explicit pairs", strat.explicit_size(sigma)),
        ("strategy value", f"{value:.10g}"),
    ])
    if args.strategy_out:
        Path(args.strategy_out).write_text(strat.dump_tsv(sigma))
    return 0 if _converged(va) else 1


def _pipeline(args):
    """Shared by distill and compare: model through truncated strategy, and
    the untruncated strategy's value, which the tree search is held to."""
    mdp = _load(args)
    va = _solve(mdp, args)
    sigma = strat.extract_liberal(mdp, va, exit_union=args.exit_union)
    stats = simulate_batched(sigma, args.runs, seed=args.seed)
    mode, kind = VARIANTS[args.variant]
    imp = importance_of(stats, kind)
    trunc = strat.truncate(sigma, imp.weights, args.delta, args.truncate_mode)
    ts = build_training_set(sigma, imp.weights, mode=mode, runs=args.runs, delta=args.delta)
    return mdp, va, strat.evaluate(sigma), stats, imp, trunc, ts


def _fit_tree(mdp, va, ts, reference, args):
    """Learn at a fixed leaf size, or search for the largest one in budget.

    Returns the tree, its leaf size, and the value and fallback states of
    the strategy it induces. The search needs only verdicts: each distinct
    tree (same predicates and leaf labels, hence the same JSON) is induced
    once, and each distinct induced strategy decided once, since the value
    depends only on the row mask, which is all that `induce_chain` reads.
    Only the returned tree's value is solved exactly, on its decision's chain.
    """
    induced = {}
    verdicts = {}
    kept = {}

    def induce(t: dtree.DTree):
        key = dtree.export_json(t)
        if key not in induced:
            induced[key] = dtree.induce_strategy(mdp, t)
        return induced[key]

    def accept(t: dtree.DTree) -> bool:
        sigma, _ = induce(t)
        key = sigma.rows.tobytes()
        if key not in verdicts:
            chain = strat.restricted_chain(sigma)
            verdicts[key] = strat.decide(chain, va.state_upper, reference, args.budget)
            if verdicts[key] or not kept:  # the tree returned: the last accepted, or the first
                kept.clear()
                kept[key] = chain
        return verdicts[key]

    if args.min_leaf != "auto":
        tree = dtree.learn(ts, min_leaf=args.min_leaf,
                           confidence=args.confidence, prune=not args.no_prune)
        leaf = args.min_leaf
    else:
        fit = dtree.fit_max_leaf(ts, accept, confidence=args.confidence,
                                 prune=not args.no_prune)
        tree, leaf = fit.tree, fit.min_leaf
    sigma, fallback = induce(tree)
    chain = kept.get(sigma.rows.tobytes()) or strat.restricted_chain(sigma)
    return tree, leaf, strat.chain_value(chain), fallback


def cmd_distill(args) -> int:
    mdp, va, reference, stats, imp, trunc, ts = _pipeline(args)
    tree, used_leaf, tree_value, fallback = _fit_tree(mdp, va, ts, reference, args)
    budget_met = strat.within_budget(tree_value, reference, args.budget)
    rel = _rel_error(tree_value, reference)
    _print_kv([
        ("states", mdp.n_states),
        ("engine", va.engine),
        ("value bound", f"{va.state_lower[mdp.initial]:.10g}"),
        ("strategy value", f"{reference:.10g}"),
        ("kept states", int(trunc.defined.sum())),
        ("training rows", len(ts.rows)),
        ("training weight", ts.total_weight),
        ("clipped weights", imp.clipped_states),
        ("min leaf", used_leaf),
        ("tree size", tree.size),
        ("tree value", f"{tree_value:.10g}"),
        ("rel error", f"{rel:.3g}"),
        ("fallback states", len(fallback)),
        ("budget met", "yes" if budget_met else "no"),
    ])
    if args.out:
        Path(args.out).write_text(dtree.export_json(tree))
    if args.dot:
        Path(args.dot).write_text(dtree.export_dot(tree))
    if args.strategy_out:
        Path(args.strategy_out).write_text(strat.dump_tsv(trunc, imp.weights))
    # a list, not `and`, so that every failed check prints its line
    return 0 if all([_converged(va), _runs_ended(stats),
                     _kept_budget(budget_met, tree_value, rel, args.budget)]) else 1


def cmd_compare(args) -> int:
    mdp, va, strategy_value, stats, imp, trunc, ts = _pipeline(args)
    reference = strat.evaluate(trunc)
    tree, used_leaf, tree_value, _ = _fit_tree(mdp, va, ts, strategy_value, args)
    store = bdd.store_strategy(trunc)
    rows = [
        ("explicit", strat.explicit_size(trunc), reference),
        ("bdd", store.size, reference),
        ("dtree", tree.size, tree_value),
    ]
    print(f"model: {args.model}  states: {mdp.n_states}  "
          f"value: {va.state_lower[mdp.initial]:.6g}  min leaf: {used_leaf}")
    print(f"{'store':<10} {'size':>8} {'value':>14} {'rel error':>10}")
    lines = ["store,size,value,rel_error"]
    for name, size, value in rows:
        rel = _rel_error(value, reference)
        print(f"{name:<10} {size:>8} {value:>14.8g} {rel:>10.3g}")
        lines.append(f"{name},{size},{value!r},{rel!r}")
    if args.csv:
        Path(args.csv).write_text("\n".join(lines) + "\n")
    budget_met = strat.within_budget(tree_value, strategy_value, args.budget)
    tree_rel = _rel_error(tree_value, strategy_value)
    return 0 if all([_converged(va), _runs_ended(stats),
                     _kept_budget(budget_met, tree_value, tree_rel, args.budget)]) else 1


def cmd_export(args) -> int:
    mdp = _load(args)
    text = export_flat(mdp)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _checked(name: str, convert, ok, what: str):
    """An argparse type named `name`: `convert` the text, then refuse a
    value failing `ok` as not `what`. argparse prints the name for text that
    `convert` cannot read."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    parse.__name__ = name
    return parse


_positive_float = _checked("_positive_float", float, lambda v: v > 0, "positive")
_finite = _checked("_finite", float, math.isfinite, "a finite number")
_nonnegative = _checked("_nonnegative", float, lambda v: v >= 0, "a number >= 0")
_confidence = _checked("_confidence", float, lambda v: 0 < v <= 1, "in (0, 1]")
_positive_int = _checked("_positive_int", int, lambda v: v >= 1, "an integer >= 1")


def _min_leaf(text: str):
    return text if text == "auto" else _positive_int(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: its actions and groups refer to
    each other, so each new one would be left to the cyclic collector."""
    top = argparse.ArgumentParser(
        prog="mdpdistill",
        description="learn small decision-tree controllers for MDP reachability")
    sub = top.add_subparsers(dest="command", required=True)

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", required=True, help="model file (guarded or flat)")
    model.add_argument("--target-expr", default=None,
                       help="boolean expression overriding the model's target")
    model.add_argument("--state-cap", type=_positive_int, default=DEFAULT_STATE_CAP)

    solveopts = argparse.ArgumentParser(add_help=False)
    solveopts.add_argument("--eps", type=_positive_float, default=1e-6,
                           help="certified gap at the initial state")
    solveopts.add_argument("--engine", choices=("vi", "brtdp"), default="vi")
    solveopts.add_argument("--seed", type=int, default=0)
    solveopts.add_argument("--exit-union", action="store_true",
                           help="keep internal actions alongside end component exits")

    learnopts = argparse.ArgumentParser(add_help=False)
    learnopts.add_argument("--runs", type=_positive_int, default=10000,
                           help="simulation runs for importance")
    learnopts.add_argument("--threads", type=_positive_int, default=1,
                           help="ignored; results do not depend on it")
    learnopts.add_argument("--variant", choices=tuple(VARIANTS), default="IDP",
                           help="importance variant")
    learnopts.add_argument("--delta", type=_finite, default=0.0,
                           help="drop states with importance at most this")
    learnopts.add_argument("--truncate-mode", choices=("keep-all", "keep-argmax"),
                           default="keep-all")
    learnopts.add_argument("--min-leaf", type=_min_leaf, default="auto",
                           help="minimum leaf weight, or 'auto' to search")
    learnopts.add_argument("--confidence", type=_confidence, default=0.25,
                           help="pruning confidence (lower prunes harder)")
    learnopts.add_argument("--no-prune", action="store_true")
    learnopts.add_argument("--budget", type=_nonnegative, default=0.01,
                           help="relative value loss allowed by --min-leaf auto")

    p = sub.add_parser("solve", parents=[model, solveopts],
                       help="bound the optimal reachability value")
    p.add_argument("--strategy-out", default=None, help="write the strategy as TSV")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("distill", parents=[model, solveopts, learnopts],
                       help="run the full pipeline down to a decision tree")
    p.add_argument("--out", default=None, help="write the tree as JSON")
    p.add_argument("--dot", default=None, help="write the tree as graphviz dot")
    p.add_argument("--strategy-out", default=None,
                   help="write the truncated strategy as TSV")
    p.set_defaults(fn=cmd_distill)

    p = sub.add_parser("compare", parents=[model, solveopts, learnopts],
                       help="compare explicit, BDD and tree representations")
    p.add_argument("--csv", default=None, help="also write the table as CSV")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("export", parents=[model],
                       help="print the model in the flat explicit format")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_export)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ModelError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MdpError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        # the tree code recurses once per level; parsing and building catch their own
        print(f"error: decision tree deeper than the recursion limit of "
              f"{sys.getrecursionlimit()}; a larger --min-leaf makes it shallower",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
