"""The benchmark's layer hooks must name functions the package still has.

`perfbench/spans.py` traces a layer by replacing a function in the namespace
of the module that calls it, and `perfbench/run.py` reads the simulation
stats by replacing `cli.simulate_batched`. A refactor that moves or renames
one of those names, or inlines a hooked call, would silently drop its span,
so check both here.
"""

import contextlib
import importlib
import importlib.util
import io
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


def test_distill_opens_every_layer_span():
    from mdpdistill import bdd, cli, dtree, importance, solver, strategy
    spans = _spans()
    modules = {"cli": cli, "solver": solver, "strategy": strategy,
               "importance": importance, "dtree": dtree, "bdd": bdd}
    model = resources.files("mdpdistill.models").joinpath("fig1.mdp")
    tracer = spans.Tracer()
    with spans.patched(modules, tracer), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["distill", "--model", str(model), "--runs", "500"])
    assert rc == 0
    opened = {span["name"] for span in tracer.spans}
    for name in ("strategy.evaluate", "core.induce_chain", "core.reach_exact",
                 "dtree.induce", "dtree.learn", "importance.simulate"):
        assert name in opened, name


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
