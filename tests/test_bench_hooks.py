"""The benchmark's layer hooks must name functions the package still has.

`perfbench/spans.py` traces a layer by replacing a function in the namespace
of the module that calls it, and `perfbench/run.py` reads the simulation
stats by replacing `cli.simulate_batched`. A refactor that moves or renames
one of those names, or inlines a hooked call, would silently drop its span,
so check both here. The counters read attributes of the hooked calls'
arguments and results, so `distill`, `compare` and `solve --engine brtdp`
run under the hooks, and the counters they reach must read sensible values.
"""

import contextlib
import importlib
import importlib.util
import io
import re
from importlib import resources
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _hooks():
    return _spans().HOOKS


@pytest.mark.parametrize("owner,attr", [(h[0], h[1]) for h in _hooks()])
def test_hook_resolves(owner, attr):
    mod_name, _, cls_name = owner.partition(".")
    target = importlib.import_module(f"mdpdistill.{mod_name}")
    if cls_name:
        target = getattr(target, cls_name)
    assert callable(getattr(target, attr, None))


def test_run_stats_hook_resolves():
    from mdpdistill import cli
    assert callable(getattr(cli, "simulate_batched", None))


def _traced(argv, out=None):
    """Run one command with every hook patched, its stdout going to `out`;
    its exit status and metrics."""
    from mdpdistill import bdd, cli, dtree, importance, solver, strategy
    spans = _spans()
    modules = {"cli": cli, "solver": solver, "strategy": strategy,
               "importance": importance, "dtree": dtree, "bdd": bdd}
    tracer = spans.Tracer()
    with spans.patched(modules, tracer), contextlib.redirect_stdout(out or io.StringIO()):
        rc = cli.main(argv)
    return rc, tracer, spans.layer_metrics(tracer, 0.0)


def test_distill_opens_every_layer_span():
    model = resources.files("mdpdistill.models").joinpath("fig1.mdp")
    rc, tracer, _ = _traced(["distill", "--model", str(model), "--runs", "500"])
    assert rc == 0
    opened = {span["name"] for span in tracer.spans}
    for name in ("strategy.evaluate", "core.induce_chain", "core.reach_exact",
                 "dtree.induce", "dtree.learn", "importance.simulate"):
        assert name in opened, name


@pytest.mark.parametrize("name", ["fig1", "mutex"])
def test_distill_counters_match_the_model_and_the_output(name):
    # build.action_rows counts the rows of the view; the training-set
    # counters read the sizes distill prints
    from mdpdistill import fixtures
    model = resources.files("mdpdistill.models").joinpath(f"{name}.mdp")
    out = io.StringIO()
    rc, _, metrics = _traced(["distill", "--model", str(model), "--runs", "500"], out)
    assert rc in (0, 1)
    printed = dict(re.split(r"\s{2,}", line, maxsplit=1) for line in out.getvalue().splitlines())
    mdp = fixtures.load(name)
    assert metrics["build.states"] == mdp.n_states
    assert metrics["build.action_rows"] == len(mdp.row_state) > 0
    assert metrics["importance.train_rows"] == int(printed["training rows"]) > 0
    assert metrics["importance.train_weight"] == int(printed["training weight"]) > 0


def test_compare_runs_every_counter_hook():
    from mdpdistill import fixtures
    from mdpdistill.core import build_quotient, mec_decompose
    model = resources.files("mdpdistill.models").joinpath("fig1.mdp")
    rc, tracer, metrics = _traced(["compare", "--model", str(model), "--runs", "500"])
    assert rc == 0
    fig1 = fixtures.load("fig1")
    q = build_quotient(fig1, mec_decompose(fig1))
    assert metrics["core.quotient_nodes"] == q.num_nodes
    assert metrics["core.quotient_rows"] == q.R.shape[0] > 0
    assert metrics["core.reach_unknowns"] > 0
    assert metrics["bdd.nodes"] > 0 and metrics["bdd.pairs"] > 0
    assert metrics["solver.sweeps"] > 0
    opened = {span["name"] for span in tracer.spans}
    for name in ("core.quotient", "bdd", "strategy.evaluate", "core.reach_exact"):
        assert name in opened, name


def test_solve_brtdp_runs_the_solver_hooks():
    model = resources.files("mdpdistill.models").joinpath("fig1.mdp")
    rc, tracer, metrics = _traced(["solve", "--model", str(model), "--engine", "brtdp"])
    assert rc == 0
    assert metrics["solver.episodes"] > 0 and metrics["solver.explored"] > 0
    assert metrics["core.reach_unknowns"] > 0
    assert metrics["core.quotient_rows"] == 0  # brtdp builds no quotient


def test_reachable_under_runs_its_counter_hook():
    # no command calls `strategy.reachable_under`, and its counter reads the
    # model's size from the first argument, so call it under the hooks here
    from mdpdistill import bdd, cli, dtree, fixtures, importance, solver, strategy
    spans = _spans()
    modules = {"cli": cli, "solver": solver, "strategy": strategy,
               "importance": importance, "dtree": dtree, "bdd": bdd}
    fig1 = fixtures.load("fig1")
    sigma = strategy.extract_liberal(fig1, solver.value_iteration(fig1, 1e-6))
    tracer = spans.Tracer()
    with spans.patched(modules, tracer):
        reach = strategy.reachable_under(fig1, sigma)
    metrics = spans.layer_metrics(tracer, 0.0)
    assert "strategy.reachable" in {span["name"] for span in tracer.spans}
    assert metrics["strategy.reach_frac"] == len(reach) / fig1.n_states > 0


def test_capture_hook_sees_one_simulation(monkeypatch):
    # perfbench/run.py reads the RunStats by wrapping cli.simulate_batched
    from mdpdistill import cli
    from mdpdistill.importance import RunStats
    simulate = cli.simulate_batched
    captured = []

    def capture(*a, **kw):
        stats = simulate(*a, **kw)
        captured.append(stats)
        return stats

    monkeypatch.setattr(cli, "simulate_batched", capture)
    model = resources.files("mdpdistill.models").joinpath("fig1.mdp")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["distill", "--model", str(model), "--runs", "700",
                       "--threads", "1"])
    assert rc == 0
    assert len(captured) == 1
    assert isinstance(captured[0], RunStats)
    assert captured[0].total_runs == 700
