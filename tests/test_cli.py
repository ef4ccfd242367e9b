"""End-to-end runs of the command line interface."""

import functools
import gc
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import mdpdistill
from mdpdistill.cli import main
from mdpdistill.solver import brtdp, value_iteration


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    for name in ("fig1.mdp", "mutex.mdp", "sync2.mdp", "fig1.flat"):
        text = resources.files("mdpdistill.models").joinpath(name).read_text()
        (root / name).write_text(text)
    return root


def _value_of(line_map, key):
    return float(line_map[key])


def _kv(out):
    pairs = {}
    for line in out.splitlines():
        if "  " in line:
            k, v = line.split("  ", 1)
            pairs[k.rstrip()] = v.strip()
    return pairs


# -------------------------------------------------------------------- solve

def test_solve_fig1(models, capsys):
    rc = main(["solve", "--model", str(models / "fig1.mdp")])
    out = _kv(capsys.readouterr().out)
    assert rc == 0
    assert out["states"] == "9"
    assert float(out["lower"]) == pytest.approx(0.995, abs=1e-6)
    assert out["converged"] == "yes"
    assert float(out["strategy value"]) == pytest.approx(0.995, abs=1e-9)


def test_solve_flat_input(models, capsys):
    rc = main(["solve", "--model", str(models / "fig1.flat")])
    out = _kv(capsys.readouterr().out)
    assert rc == 0
    assert float(out["lower"]) == pytest.approx(0.995, abs=1e-6)


def test_solve_brtdp_engine(models, capsys):
    rc = main(["solve", "--model", str(models / "mutex.mdp"),
               "--engine", "brtdp", "--seed", "3"])
    out = _kv(capsys.readouterr().out)
    assert rc == 0
    assert out["engine"] == "brtdp"
    assert float(out["lower"]) == pytest.approx(0.91, abs=1e-5)


def test_solve_strategy_out(models, tmp_path, capsys):
    dest = tmp_path / "strat.tsv"
    rc = main(["solve", "--model", str(models / "fig1.mdp"),
               "--strategy-out", str(dest)])
    capsys.readouterr()
    assert rc == 0
    lines = dest.read_text().splitlines()
    assert lines[0].split("\t")[0] == "state"
    assert any(line.split("\t")[2] == "b" and line.split("\t")[4] == "good"
               for line in lines[1:])


def test_solve_target_expr_guarded(models, capsys):
    # guarded models are rebuilt against the new target; it has to keep
    # covering the commandless waiting state at loc=3
    rc = main(["solve", "--model", str(models / "fig1.mdp"),
               "--target-expr", "loc>=3"])
    out = _kv(capsys.readouterr().out)
    assert rc == 0
    # the rebuild explores only up to the new absorbing frontier
    assert out["states"] == "7"
    assert out["target states"] == "5"
    assert float(out["lower"]) == pytest.approx(1.0, abs=1e-9)


def test_retarget_exposing_a_deadlock_is_reported(models, capsys):
    # dropping loc=3 from the target set uncovers a state with no
    # commands; the builder refuses instead of inventing behaviour
    rc = main(["solve", "--model", str(models / "fig1.mdp"),
               "--target-expr", "loc=1 & pos=2"])
    assert rc == 2
    assert "deadlock" in capsys.readouterr().err


def test_solve_target_expr_flat(models, capsys):
    rc = main(["solve", "--model", str(models / "fig1.flat"),
               "--target-expr", "loc=1 & pos=2"])
    out = _kv(capsys.readouterr().out)
    assert rc == 0
    assert float(out["lower"]) == pytest.approx(0.01, abs=1e-9)
    assert out["target states"] == "1"


# ------------------------------------------------------------------ distill

def test_distill_writes_everything(models, tmp_path, capsys):
    tree = tmp_path / "tree.json"
    dot = tmp_path / "tree.dot"
    tsv = tmp_path / "strat.tsv"
    rc = main(["distill", "--model", str(models / "fig1.mdp"),
               "--runs", "4000", "--seed", "7", "--min-leaf", "1",
               "--out", str(tree), "--dot", str(dot),
               "--strategy-out", str(tsv)])
    out, err = capsys.readouterr()
    out = _kv(out)
    assert rc == 0
    assert out["budget met"] == "yes"
    assert err == ""
    assert int(out["tree size"]) == 5
    assert float(out["tree value"]) == pytest.approx(0.995, abs=1e-9)
    obj = json.loads(tree.read_text())
    assert obj["root"]["p"] == {"cat": "action", "v": "a"}
    assert "digraph" in dot.read_text()
    assert tsv.read_text().startswith("state\t")


def test_distill_deterministic(models, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for dest in (a, b):
        rc = main(["distill", "--model", str(models / "fig1.mdp"),
                   "--runs", "2000", "--seed", "5", "--out", str(dest)])
        assert rc == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_distill_threads_equivalent(models, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for dest, threads in ((a, "1"), (b, "4")):
        rc = main(["distill", "--model", str(models / "fig1.mdp"),
                   "--runs", "2000", "--seed", "5", "--threads", threads,
                   "--out", str(dest)])
        assert rc == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_distill_variants_run(models, capsys):
    for variant in ("IDP", "IDE", "IAP", "IAE", "OD", "OA"):
        rc = main(["distill", "--model", str(models / "fig1.mdp"),
                   "--runs", "500", "--seed", "1", "--variant", variant])
        out = _kv(capsys.readouterr().out)
        assert rc == 0, variant
        assert float(out["tree value"]) > 0.9


def test_distill_single_leaf_when_everything_is_good(models, capsys):
    rc = main(["distill", "--model", str(models / "sync2.mdp"),
               "--runs", "500", "--seed", "2"])
    out = _kv(capsys.readouterr().out)
    assert rc == 0
    assert int(out["tree size"]) == 1


def test_distill_impossible_budget(models, capsys):
    # a lossless budget cannot be met once truncation drops a state the
    # controller needs: every tree, min_leaf=1 included, is rejected
    rc = main(["distill", "--model", str(models / "fig1.mdp"),
               "--runs", "500", "--seed", "1", "--budget", "0", "--delta", "0.5"])
    out, err = capsys.readouterr()
    out = _kv(out)
    assert rc == 1
    assert out["budget met"] == "no"
    assert out["min leaf"] == "1"
    assert float(out["rel error"]) > 0
    assert err == (f"error: tree value {out['tree value']} loses {out['rel error']} of the "
                   "strategy value, over the budget of 0\n")


def test_fixed_min_leaf_reports_missed_budget(models, capsys):
    # a leaf size above the whole training weight gives a one-leaf tree
    # that loses half the value; a fixed leaf size must not hide that
    rc = main(["distill", "--model", str(models / "fig1.mdp"),
               "--runs", "2000", "--min-leaf", "100000"])
    out, err = capsys.readouterr()
    out = _kv(out)
    assert float(out["rel error"]) > 0.01
    assert out["budget met"] == "no"
    assert rc == 1
    assert err == (f"error: tree value {out['tree value']} loses {out['rel error']} of the "
                   "strategy value, over the budget of 0.01\n")


@pytest.mark.parametrize("min_leaf", ["auto", "3"])
def test_distill_evaluates_each_tree_once(models, monkeypatch, capsys, min_leaf):
    # two evaluations, the liberal strategy's reference and the returned
    # tree's, and no other exact solve on fig1; one induce per distinct tree
    # (its JSON); and in the search, one budget decision per distinct
    # induced strategy (its row mask), with bounds starting at the engine's
    # upper bounds, each on a chain built for it
    from mdpdistill import cli, dtree, strategy
    calls = {"evaluate": 0, "induce": 0}
    masks, built, decided, solved = [], [], [], []
    learned, induced = [], []
    fits, engines = [], []
    real_evaluate, real_decide = strategy.evaluate, strategy.decide
    real_chain, real_exact = strategy._reachable_chain, strategy.reach_exact
    real_induce = dtree.induce_strategy
    real_fit, real_learn = dtree.fit_max_leaf, dtree.learn
    real_solve = cli._solve

    def evaluate(*a):
        calls["evaluate"] += 1
        return real_evaluate(*a)

    def reachable_chain(sigma):
        built.append((sigma.rows.tobytes(), real_chain(sigma)))
        return built[-1][1]

    def decide(sigma, upper, *a):
        assert upper is engines[0].state_upper
        decided.append(sigma.rows.tobytes())
        return real_decide(sigma, upper, *a)

    def reach_exact(P, targets):
        solved.append(P)
        return real_exact(P, targets)

    def induce(mdp, tree):
        calls["induce"] += 1
        induced.append(dtree.export_json(tree))
        sigma, fallback = real_induce(mdp, tree)
        masks.append(sigma.rows.tobytes())
        return sigma, fallback

    def learn(*a, **kw):
        tree = real_learn(*a, **kw)
        learned.append(dtree.export_json(tree))
        return tree

    def fit(*a, **kw):
        fits.append(real_fit(*a, **kw))
        return fits[-1]

    def solve(*a):
        engines.append(real_solve(*a))
        return engines[-1]

    monkeypatch.setattr(strategy, "evaluate", evaluate)
    monkeypatch.setattr(strategy, "_reachable_chain", reachable_chain)
    monkeypatch.setattr(strategy, "decide", decide)
    monkeypatch.setattr(strategy, "reach_exact", reach_exact)
    monkeypatch.setattr(dtree, "induce_strategy", induce)
    monkeypatch.setattr(dtree, "learn", learn)
    monkeypatch.setattr(dtree, "fit_max_leaf", fit)
    monkeypatch.setattr(cli, "_solve", solve)
    rc = main(["distill", "--model", str(models / "fig1.mdp"),
               "--runs", "2000", "--min-leaf", min_leaf])
    assert rc == 0
    capsys.readouterr()
    probes = len(fits[0].tried) if fits else 1
    assert probes > 1 or min_leaf != "auto"
    assert len(learned) == probes
    assert sorted(induced) == sorted(set(learned))
    assert calls == {"evaluate": 2, "induce": len(set(learned))}
    # the reference's chain comes first and is solved first, and the
    # returned tree's chain comes last and is solved last
    tree = dtree.export_json(fits[0].tree) if fits else learned[0]
    returned = dict(zip(induced, masks))[tree]
    assert solved[0] is built[0][1][0]
    assert built[-1][0] == returned and solved[-1] is built[-1][1][0]
    # no decision here needs the exact value: the two solves are the evaluations
    assert len(solved) == 2
    if min_leaf == "auto":
        assert [k for k, _ in built[1:-1]] == decided
        assert sorted(decided) == sorted(set(masks))
        # on fig1 several probes grow the same tree, so several probes
        # share an induced strategy
        assert len(set(learned)) < probes
        assert len(set(masks)) < probes
    else:
        assert decided == [] and len(built) == 2


def test_distill_exit_union_and_modes(models, capsys):
    rc = main(["distill", "--model", str(models / "mutex.mdp"),
               "--runs", "800", "--seed", "3", "--exit-union",
               "--truncate-mode", "keep-argmax", "--variant", "OA",
               "--no-prune", "--confidence", "0.4", "--delta", "0.01"])
    assert rc == 0
    capsys.readouterr()


# ------------------------------------------------------------------ compare

def test_compare_table_and_csv(models, tmp_path, capsys):
    dest = tmp_path / "cmp.csv"
    rc = main(["compare", "--model", str(models / "fig1.mdp"),
               "--runs", "2000", "--seed", "7", "--min-leaf", "1",
               "--csv", str(dest)])
    out = capsys.readouterr().out
    assert rc == 0
    rows = {line.split(",")[0]: line.split(",")
            for line in dest.read_text().splitlines()[1:]}
    assert set(rows) == {"explicit", "bdd", "dtree"}
    assert int(rows["explicit"][1]) == 2
    assert int(rows["bdd"][1]) == 11
    assert int(rows["dtree"][1]) == 5
    assert float(rows["dtree"][2]) == pytest.approx(0.995, abs=1e-9)
    for name in ("explicit", "bdd", "dtree"):
        assert name in out


@pytest.mark.parametrize("seed", ["0", "3"])
def test_compare_reports_missed_budget(models, capsys, seed):
    # truncating every state leaves a one-leaf tree at half the strategy
    # value; compare holds the tree to the budget as distill does
    rc = main(["compare", "--model", str(models / "fig1.mdp"), "--delta", "2", "--seed", seed])
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].split() == ["dtree", "1", "0.49625", "0"]
    assert rc == 1
    assert err == ("error: tree value 0.49625 loses 0.501 of the strategy value, "
                   "over the budget of 0.01\n")


@pytest.mark.parametrize("command", ["distill", "compare"])
def test_unconverged_engine_exits_one(models, tmp_path, monkeypatch, capsys, command):
    # one episode leaves BRTDP's gap open on fig1; the command still prints
    # and writes its usual output, and the exit status and stderr report it
    from mdpdistill import cli, fixtures
    short = functools.partial(brtdp, max_episodes=1)
    monkeypatch.setattr(cli, "brtdp", short)
    dest = tmp_path / "out"
    rc = main([command, "--model", str(models / "fig1.mdp"), "--engine", "brtdp",
               "--runs", "500", "--seed", "1",
               "--out" if command == "distill" else "--csv", str(dest)])
    out, err = capsys.readouterr()
    gap = short(fixtures.load("fig1"), 1e-6, seed=1).gap
    assert gap >= 1e-6
    assert rc == 1
    assert err == f"error: brtdp did not converge (gap {gap:.3g})\n"
    assert "error:" not in out and dest.read_text()
    if command == "distill":
        # the tree meets its budget, so non-convergence alone sets the status
        assert _kv(out)["budget met"] == "yes"


@pytest.mark.parametrize("command", ["distill", "compare"])
def test_truncated_runs_exit_one(models, tmp_path, monkeypatch, capsys, command):
    # runs cut off at a 4-step cap on mutex; the command still prints and
    # writes its usual output, and the exit status and stderr report the cut
    from mdpdistill import cli, importance
    caught = []

    def capped(*a, **kw):
        caught.append(importance.simulate(*a, **kw))
        return caught[-1]

    monkeypatch.setattr(importance, "MAX_STEPS", 4)
    monkeypatch.setattr(cli, "simulate_batched", capped)
    dest = tmp_path / "out"
    rc = main([command, "--model", str(models / "mutex.mdp"), "--runs", "1000",
               "--seed", "3", "--out" if command == "distill" else "--csv", str(dest)])
    out, err = capsys.readouterr()
    (stats,) = caught
    assert 0 < stats.truncated_runs < stats.total_runs == 1000
    assert rc == 1
    assert err == (f"error: {stats.truncated_runs} of 1000 simulated runs hit "
                   "the step cap of 4 steps\n")
    assert "error:" not in out and dest.read_text()
    if command == "distill":
        assert list(_kv(out))[-1] == "budget met"
    else:
        assert out.splitlines()[-1].startswith("dtree ")


@pytest.mark.parametrize("command", ["distill", "compare"])
def test_every_exit_one_reason_prints_in_order(models, monkeypatch, capsys, command):
    # an engine cut to one episode, runs cut to 4 steps and truncation of
    # every state fail all three checks at once: each prints its own line,
    # engine first, then step cap, then budget
    from mdpdistill import cli, importance
    monkeypatch.setattr(cli, "brtdp", functools.partial(brtdp, max_episodes=1))
    monkeypatch.setattr(importance, "MAX_STEPS", 4)
    rc = main([command, "--model", str(models / "mutex.mdp"), "--engine", "brtdp",
               "--runs", "1000", "--seed", "3", "--delta", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.splitlines() == [
        "error: brtdp did not converge (gap 0.1)",
        "error: 107 of 1000 simulated runs hit the step cap of 4 steps",
        "error: tree value 0.6303125 loses 0.306 of the strategy value, "
        "over the budget of 0.01",
    ]


@pytest.mark.parametrize("command", ["solve", "distill", "compare"])
def test_iteration_sweep_budget_exits_one(grid, tmp_path, monkeypatch, capsys, command):
    # a budget hit inside the pipeline ends every command with one line
    from mdpdistill import core, fixtures
    from mdpdistill.core import MdpError
    monkeypatch.setattr(core, "ITERATE_SWEEPS", 1)
    with pytest.raises(MdpError, match="^interval iteration exceeded sweep budget$"):
        value_iteration(grid, 1e-6)
    model = tmp_path / "grid.mdp"
    model.write_text(fixtures.model_text("grid"))
    rc = main([command, "--model", str(model)])
    out, err = capsys.readouterr()
    assert rc == 1
    assert err == "error: interval iteration exceeded sweep budget\n"
    assert out == ""


def _alternating_chain(n: int) -> str:
    """A flat model whose tree must split about once per state: on the chain
    0..n-1, `a` leads on at even states and `b` at odd ones, and the other
    action falls into the trap n + 1; state n is the target."""
    lines = [f"vars n:0..{n + 1}"] + [f"state {s} {s}" for s in range(n + 2)]
    for s in range(n):
        on, off = ("a", "b") if s % 2 == 0 else ("b", "a")
        lines += [f"act {s} {on} 1 1.0 {s + 1}", f"act {s} {off} 1 1.0 {n + 1}"]
    lines += [f"act {n} tau 0 1.0 {n}", f"act {n + 1} stay 1 1.0 {n + 1}", "init 0",
              f"target {n}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", ["distill", "compare"])
def test_too_deep_tree_exits_one_without_traceback(tmp_path, capsys, command):
    model = tmp_path / "deep.flat"
    model.write_text(_alternating_chain(1200))
    rc = main([command, "--model", str(model), "--runs", "100"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert err == (f"error: decision tree deeper than the recursion limit of "
                   f"{sys.getrecursionlimit()}; a larger --min-leaf makes it shallower\n")
    assert "error:" not in out


# ------------------------------------------------------------------- export

def test_export_round_trip(models, tmp_path, capsys):
    dest = tmp_path / "fig1.flat"
    rc = main(["export", "--model", str(models / "fig1.mdp"),
               "--out", str(dest)])
    capsys.readouterr()
    assert rc == 0
    assert dest.read_text() == (models / "fig1.flat").read_text()


def test_export_to_stdout(models, capsys):
    rc = main(["export", "--model", str(models / "fig1.mdp")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (models / "fig1.flat").read_text()


def test_export_retargeted(models, tmp_path, capsys):
    # flat inputs keep their state space; retargeting just moves the
    # absorbing set, so no deadlock can appear
    dest = tmp_path / "re.flat"
    rc = main(["export", "--model", str(models / "fig1.flat"),
               "--target-expr", "loc>=5", "--out", str(dest)])
    capsys.readouterr()
    assert rc == 0
    lines = dest.read_text().splitlines()
    assert lines[-1] == "target 5 6 7 8"
    assert "act 5 tau 0 1.0 5" in lines


# -------------------------------------------------------------- exit codes

def test_missing_file_is_usage_error(capsys):
    rc = main(["solve", "--model", "/nonexistent/x.mdp"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err


def test_bad_model_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.mdp"
    bad.write_text("module m x:[0..1] init 0; endmodule target x=1")
    rc = main(["solve", "--model", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_target_expr_is_usage_error(models, capsys):
    rc = main(["solve", "--model", str(models / "fig1.mdp"),
               "--target-expr", "nope=1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_exits_two(models, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["solve", "--model", str(models / "fig1.mdp"), "--bogus"])
    assert ei.value.code == 2
    capsys.readouterr()


NAN_FLAT = "vars x:0..1\nstate 0 0\nstate 1 1\nact 0 a 1 nan 1\nact 1 t 0 1.0 1\ninit 0\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--eps", "0"],
    ["solve", "--eps", "-0.5"],
    ["distill", "--min-leaf", "abc"],
    ["distill", "--min-leaf", "0"],
    ["solve", "--model", "."],
    ["distill", "--threads", "0"],
    ["distill", "--threads", "-3"],
    ["distill", "--runs", "0"],
    ["distill", "--runs", "-3"],
    ["solve", "--model", "nan.flat"],
    ["distill", "--confidence", "0"],
    ["distill", "--confidence", "1.5"],
    ["distill", "--confidence", "nan"],
    ["distill", "--budget", "nan"],
    ["distill", "--delta", "nan"],
    ["solve", "--state-cap", "0"],
    ["distill", "--budget", "-0.5"],
    ["compare", "--budget", "-inf"],
    ["distill", "--delta", "inf"],
    ["compare", "--delta", "-inf"],
    ["distill", "--variant", "XYZ"],
    ["compare", "--variant", "XYZ"],
], ids=["eps-zero", "eps-negative", "min-leaf-text", "min-leaf-zero", "model-directory",
        "threads-zero", "threads-negative", "runs-zero", "runs-negative", "nan-probability",
        "confidence-zero", "confidence-above-one", "confidence-nan", "budget-nan", "delta-nan",
        "state-cap-zero", "budget-negative", "budget-minus-inf", "delta-inf",
        "delta-minus-inf", "variant-unknown-distill", "variant-unknown-compare"])
def test_bad_input_exits_two_without_traceback(models, argv, monkeypatch, capsys):
    if "--model" not in argv:
        argv = argv + ["--model", str(models / "fig1.mdp")]
    (models / "nan.flat").write_text(NAN_FLAT)
    monkeypatch.chdir(models)
    try:
        rc = main(argv)
    except SystemExit as e:  # argparse rejects the value
        rc = e.code
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "Traceback" not in err
    assert "error" in err
    assert sum("error:" in line for line in err.splitlines()) == 1, err


NEGATIVE_MODULE_FLAT = ("vars x:0..2\nstate 0 0\nstate 1 1\nstate 2 2\nact 0 go -1 1.0 2\n"
                        "act 1 stay 1 1.0 1\nact 2 t 0 1.0 2\ninit 0\ntarget 2\n")


@pytest.mark.parametrize("command", ["solve", "distill", "compare", "export"])
@pytest.mark.parametrize("name,data,message", [
    ("bad.mdp", b"\xff\xfe\x00bad",
     "error: bad.mdp: not UTF-8 text (invalid start byte at byte 0)"),
    ("neg.flat", NEGATIVE_MODULE_FLAT.encode(), "error: negative module -1 (line 5)"),
], ids=["not-utf8", "negative-module"])
def test_unreadable_model_exits_two_with_one_error_line(tmp_path, monkeypatch, capsys,
                                                        command, name, data, message):
    (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    rc = main([command, "--model", name])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.splitlines() == [message]
    assert captured.out == ""


# state 0 chooses between `go"left`, which reaches the target, and `b"a\d`
QUOTED_FLAT = ("vars x:0..3\nstate 0 0\nstate 1 1\nstate 2 2\nstate 3 3\n"
               "act 0 go\"left 1 0.9 2 0.1 1\nact 0 b\"a\\d 1 1.0 3\nact 1 stay 1 1.0 1\n"
               "act 2 tau 0 1.0 2\nact 3 stay 1 1.0 3\ninit 0\ntarget 2\n")


def test_dot_labels_escape_quotes_and_backslashes(tmp_path, capsys):
    model = tmp_path / "quoted.flat"
    model.write_text(QUOTED_FLAT)
    rc = main(["distill", "--model", str(model), "--min-leaf", "1",
               "--out", str(tmp_path / "tree.json"), "--dot", str(tmp_path / "tree.dot")])
    capsys.readouterr()
    assert rc == 0
    tree = json.loads((tmp_path / "tree.json").read_text())
    assert tree["root"]["p"] == {"cat": "action", "v": 'b"a\\d'}
    lines = (tmp_path / "tree.dot").read_text().splitlines()
    assert lines[2] == '  n0 [label="action=b\\"a\\\\d"];'
    # every label is one DOT string: no quote inside it is left unescaped
    for line in lines[2:-1]:
        assert re.fullmatch(r'  n\d+ (\[label="([^"\\]|\\.)*"(, shape=ellipse)?\]'
                            r'|-> n\d+( \[style=dashed\])?);', line), line


def test_state_cap_zero_is_an_option_error(models, capsys):
    # rejected with the options, not reported as a cap hit after 0 states
    with pytest.raises(SystemExit) as ei:
        main(["solve", "--model", str(models / "fig1.mdp"), "--state-cap", "0"])
    assert ei.value.code == 2
    assert "argument --state-cap: must be an integer >= 1" in capsys.readouterr().err


def test_module_entry_exits_two_without_traceback(models):
    # the same checks through `python -m mdpdistill.cli` in a fresh interpreter
    src = Path(mdpdistill.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    (models / "nan.flat").write_text(NAN_FLAT)
    proc = subprocess.run([sys.executable, "-m", "mdpdistill.cli", "solve", "--model",
                           "nan.flat"], cwd=models, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error" in proc.stderr


def test_cli_import_leaves_scipy_special_out():
    # the pruning quantile is computed in pure Python; scipy.special costs
    # about 50 ms and 4 MB to import
    src = Path(mdpdistill.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", "import sys, mdpdistill.cli; "
                           "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_commands_leave_no_cyclic_garbage(models, capsys):
    # an in-process command that left reference cycles behind would make a
    # later command pay for the cyclic collector
    fig1 = str(models / "fig1.mdp")
    main(["solve", "--model", fig1])
    commands = (["solve", "--model", fig1],
                ["distill", "--model", fig1, "--runs", "500"],
                ["compare", "--model", fig1, "--runs", "500"])
    gc.collect()
    gc.disable()
    try:
        for argv in commands:
            assert main(argv) == 0
            assert gc.collect() == 0, argv[0]
    finally:
        gc.enable()
    capsys.readouterr()
