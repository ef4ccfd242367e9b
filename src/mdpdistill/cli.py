"""Command line front end.

    mdpdistill solve   --model M [--engine vi|brtdp] [--eps E] ...
    mdpdistill distill --model M [--runs N] [--variant IDP] [--min-leaf auto] ...
    mdpdistill compare --model M [--csv out.csv] ...
    mdpdistill export  --model M [--out out.flat]

Models are read in the guarded-command language, or in the flat explicit
format when the file starts with a `vars` directive. Exit status is 0 on
success, 1 when an engine did not converge or a quality budget was missed,
2 on bad input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bdd, dtree, strategy as strat
from .build import (DEFAULT_STATE_CAP, build_mdp, export_flat, is_flat, parse_flat,
                    retarget)
from .core import Mdp, MdpError
from .importance import (build_training_set, importance_of, simulate_batched)
from .lang import ModelError, parse_model, parse_predicate
from .solver import brtdp, value_iteration

VARIANTS = {
    "IDP": ("repeat", "DP"), "IDE": ("repeat", "DE"),
    "IAP": ("repeat", "AP"), "IAE": ("repeat", "AE"),
    "OD": ("once", "DP"), "OA": ("once", "AP"),
}


def _load(args) -> Mdp:
    text = Path(args.model).read_text()
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
    return brtdp(mdp, args.eps, seed=args.seed, max_steps=args.max_steps)


def _print_kv(pairs):
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        print(f"{k:<{width}}  {v}")


def cmd_solve(args) -> int:
    mdp = _load(args)
    va = _solve(mdp, args)
    sigma = strat.extract_liberal(mdp, va, exit_union=args.exit_union)
    value = strat.evaluate(mdp, sigma)
    _print_kv([
        ("states", mdp.n_states),
        ("target states", len(mdp.target)),
        ("engine", va.engine),
        ("lower", f"{va.state_lower[mdp.initial]:.10g}"),
        ("upper", f"{va.state_upper[mdp.initial]:.10g}"),
        ("gap", f"{va.gap:.3g}"),
        ("explored", f"{len(va.explored)} ({100.0 * len(va.explored) / mdp.n_states:.1f}%)"),
        ("converged", "yes" if va.converged else "no"),
        ("defined states", len(sigma.choice)),
        ("explicit pairs", strat.explicit_size(mdp, sigma)),
        ("strategy value", f"{value:.10g}"),
    ])
    if args.strategy_out:
        Path(args.strategy_out).write_text(strat.dump_tsv(mdp, sigma))
    return 0 if va.converged else 1


def _pipeline(args):
    """Shared by distill and compare: model through truncated strategy."""
    mdp = _load(args)
    va = _solve(mdp, args)
    sigma = strat.extract_liberal(mdp, va, exit_union=args.exit_union)
    stats = simulate_batched(mdp, sigma, args.runs, seed=args.seed)
    mode, kind = VARIANTS[args.variant]
    imp = importance_of(stats, kind)
    trunc = strat.truncate(sigma, imp.weights, args.delta, args.truncate_mode)
    ts = build_training_set(mdp, sigma, imp.weights, mode=mode,
                            runs=args.runs, delta=args.delta)
    return mdp, va, sigma, imp, trunc, ts


def _within_budget(value: float, reference: float, budget: float) -> bool:
    """The value lost against `reference`, relative to it, is at most `budget`."""
    return reference <= 0.0 or (reference - value) / reference <= budget


def _fit_tree(mdp, ts, reference, args):
    """Learn at a fixed leaf size, or search for the largest one in budget.

    Returns the tree, its leaf size, and the value and fallback states of
    the strategy it induces. Each tree is induced once, and each distinct
    induced strategy evaluated once: the value depends only on the row mask,
    which is all that `induce_chain` reads.
    """
    probed = []
    values = {}

    def probe(t: dtree.DTree) -> float:
        induced, fallback = dtree.induce_strategy(mdp, t)
        key = induced.row_mask(mdp).tobytes()
        if key not in values:
            values[key] = strat.evaluate(mdp, induced)
        probed.append((t, values[key], fallback))
        return values[key]

    if args.min_leaf != "auto":
        tree = dtree.learn(ts, min_leaf=args.min_leaf,
                           confidence=args.confidence, prune=not args.no_prune)
        probe(tree)
        leaf = args.min_leaf
    else:
        fit = dtree.fit_max_leaf(
            ts, lambda t: _within_budget(probe(t), reference, args.budget),
            confidence=args.confidence, prune=not args.no_prune)
        tree, leaf = fit.tree, fit.min_leaf
    _, value, fallback = next(p for p in probed if p[0] is tree)
    return tree, leaf, value, fallback


def cmd_distill(args) -> int:
    if args.variant not in VARIANTS:
        raise ModelError(f"unknown variant {args.variant!r}")
    mdp, va, sigma, imp, trunc, ts = _pipeline(args)
    reference = strat.evaluate(mdp, sigma)
    tree, used_leaf, tree_value, fallback = _fit_tree(mdp, ts, reference, args)
    budget_met = _within_budget(tree_value, reference, args.budget)
    rel = 0.0 if reference <= 0 else max(0.0, (reference - tree_value) / reference)
    _print_kv([
        ("states", mdp.n_states),
        ("engine", va.engine),
        ("value bound", f"{va.state_lower[mdp.initial]:.10g}"),
        ("strategy value", f"{reference:.10g}"),
        ("kept states", len(trunc.choice)),
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
        Path(args.strategy_out).write_text(strat.dump_tsv(mdp, trunc, imp.weights))
    return 0 if budget_met else 1


def cmd_compare(args) -> int:
    if args.variant not in VARIANTS:
        raise ModelError(f"unknown variant {args.variant!r}")
    mdp, va, sigma, imp, trunc, ts = _pipeline(args)
    reference = strat.evaluate(mdp, trunc)
    tree, used_leaf, tree_value, _ = _fit_tree(mdp, ts, strat.evaluate(mdp, sigma), args)
    store = bdd.store_strategy(mdp, trunc)
    rows = [
        ("explicit", strat.explicit_size(mdp, trunc), reference),
        ("bdd", store.size, reference),
        ("dtree", tree.size, tree_value),
    ]
    print(f"model: {args.model}  states: {mdp.n_states}  "
          f"value: {va.state_lower[mdp.initial]:.6g}  min leaf: {used_leaf}")
    print(f"{'store':<10} {'size':>8} {'value':>14} {'rel error':>10}")
    lines = ["store,size,value,rel_error"]
    for name, size, value in rows:
        rel = 0.0 if reference <= 0 else max(0.0, (reference - value) / reference)
        print(f"{name:<10} {size:>8} {value:>14.8g} {rel:>10.3g}")
        lines.append(f"{name},{size},{value!r},{rel!r}")
    if args.csv:
        Path(args.csv).write_text("\n".join(lines) + "\n")
    return 0


def cmd_export(args) -> int:
    mdp = _load(args)
    text = export_flat(mdp)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _min_leaf(text: str):
    return text if text == "auto" else _positive_int(text)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mdpdistill",
        description="learn small decision-tree controllers for MDP reachability")
    sub = top.add_subparsers(dest="command", required=True)

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", required=True, help="model file (guarded or flat)")
    model.add_argument("--target-expr", default=None,
                       help="boolean expression overriding the model's target")
    model.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)

    solveopts = argparse.ArgumentParser(add_help=False)
    solveopts.add_argument("--eps", type=_positive_float, default=1e-6,
                           help="certified gap at the initial state")
    solveopts.add_argument("--engine", choices=("vi", "brtdp"), default="vi")
    solveopts.add_argument("--seed", type=int, default=0)
    solveopts.add_argument("--max-steps", type=int, default=None,
                           help="per-episode step cap for brtdp")
    solveopts.add_argument("--exit-union", action="store_true",
                           help="keep internal actions alongside end component exits")

    learnopts = argparse.ArgumentParser(add_help=False)
    learnopts.add_argument("--runs", type=int, default=10000,
                           help="simulation runs for importance")
    learnopts.add_argument("--threads", type=_positive_int, default=1,
                           help="ignored; results do not depend on it")
    learnopts.add_argument("--variant", default="IDP",
                           help="importance variant: IDP IDE IAP IAE OD OA")
    learnopts.add_argument("--delta", type=float, default=0.0,
                           help="drop states with importance at most this")
    learnopts.add_argument("--truncate-mode", choices=("keep-all", "keep-argmax"),
                           default="keep-all")
    learnopts.add_argument("--min-leaf", type=_min_leaf, default="auto",
                           help="minimum leaf weight, or 'auto' to search")
    learnopts.add_argument("--confidence", type=float, default=0.25,
                           help="pruning confidence (lower prunes harder)")
    learnopts.add_argument("--no-prune", action="store_true")
    learnopts.add_argument("--budget", type=float, default=0.01,
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


if __name__ == "__main__":
    sys.exit(main())
