"""Benchmark of the mdpdistill pipeline, end to end and per layer.

    python3 perfbench/run.py --workload grid-distill --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. Set-up writes the workload's model
from a fresh interpreter, several times. The benchmark then drives the CLI
in-process (`mdpdistill.cli.main(argv)`, stdout captured) as one client in a
closed loop, one command after another with the same `--seed`, until
`--seconds` have passed. Every command runs under a wall-clock limit and its
output is checked against values this file holds. With `--trace 1` every
other command runs with spans around each layer's public functions
(perfbench/spans.py) and the per-layer metrics are reported instead of the
end-to-end ones. The last line of stdout is one JSON object; the lines
before it are a readable summary, and a results file with the per-command
records, output digests and spans is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))
import spans as tracing  # noqa: E402

# Optimal reachability values of the initial state, known independently of
# the code under test: grid's was computed once by interval iteration to a
# gap below 1e-14; the chain's is 0.99 + 0.01 * 0.5 for every k.
GRID_OPT = 0.25293634658713343
CHAIN_OPT = 0.995
BUDGET = 0.01  # the CLI's default --budget
Z_BINOMIAL = 5.0  # simulated hit rate must lie within 5 standard deviations
SETUP_REPEATS = 3
HARD_LIMIT_S = 170.0  # the whole run ends well inside 180 s

END_TO_END = {
    "run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio",
    "strategy_value": "prob",
}
PER_LAYER = {
    "lang.parse_s": "s", "build.s": "s", "build.states": "count",
    "build.action_rows": "count", "build.states_per_s": "1/s",
    "solver.s": "s", "solver.tables_s": "s", "solver.sweeps": "count",
    "solver.episodes": "count", "solver.explored": "count",
    "solver.explored_frac": "ratio", "solver.gap": "prob",
    "core.mec_s": "s", "core.quotient_nodes": "count", "core.quotient_rows": "count",
    "strategy.extract_s": "s", "strategy.evaluate_s": "s",
    "strategy.evaluate_calls": "count", "strategy.reachable_s": "s",
    "strategy.reach_frac": "ratio", "core.induce_chain_s": "s",
    "core.induce_chain_calls": "count", "core.reach_exact_s": "s",
    "core.reach_unknowns": "count",
    "importance.runs": "count", "importance.steps": "count",
    "importance.steps_per_s": "1/s", "importance.target_runs": "count",
    "importance.train_rows": "count", "importance.train_weight": "count",
    "dtree.probes": "count", "dtree.probe_accept_ratio": "ratio",
    "dtree.learn_calls": "count", "dtree.induce_calls": "count",
    "dtree.nodes": "count", "dtree.rel_error": "ratio",
    "bdd.pairs": "count", "bdd.nodes": "count",
    "cli.other_s": "s", "cli.commands": "count",
    "runtime.gc_s": "s", "runtime.gc_collections": "count",
    "trace.run_s": "s", "trace.untraced_run_s": "s", "trace.overhead_s": "s",
    "trace.span_cost_s": "s", "trace.spans": "count",
}
# Self times of layers that some workload never calls. They read exactly 0
# there, so they go to the summary and the results file, not the JSON line.
LAYER_ONLY_IN_SUMMARY = (
    "core.quotient_s", "core.iterate_s", "importance.simulate_s",
    "importance.trainset_s", "dtree.fit_s", "dtree.search_s", "dtree.learn_s",
    "dtree.induce_s", "bdd.s",
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # solve | distill | compare
    model: Tuple[str, tuple]  # fixtures function and its arguments
    optimum: float
    eps: float = 1e-6  # the CLI's default --eps
    args: Tuple[str, ...] = ()
    limit_s: float = 60.0  # wall-clock limit per command


WORKLOADS = {w.name: w for w in (
    Workload("grid-distill", "distill", ("model_text", ("grid",)), GRID_OPT, limit_s=90.0),
    Workload("grid-solve", "solve", ("model_text", ("grid",)), GRID_OPT, eps=1e-9,
             limit_s=40.0),
    Workload("chain-brtdp", "compare", ("fig1_extended_text", (20000,)), CHAIN_OPT,
             args=("--engine", "brtdp"), limit_s=60.0),
)}


class CommandTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CommandTimeout()


# --------------------------------------------------------------------------
# Parsing and checking one command's output.

def _kv(stdout: str) -> Dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        parts = re.split(r"\s{2,}", line.strip(), maxsplit=1)
        if len(parts) == 2:
            out[parts[0]] = parts[1]
    return out


def _compare_table(stdout: str) -> Tuple[Dict[str, str], Dict[str, Tuple[int, float, float]]]:
    lines = stdout.splitlines()
    head = dict(re.findall(r"(\w[\w ]*?):\s+(\S+)", lines[0])) if lines else {}
    rows = {}
    for line in lines[2:]:
        name, size, value, rel = line.split()
        rows[name] = (int(size), float(value), float(rel))
    return head, rows


def _hit_rate_ok(stats, value: float, eps: float) -> Tuple[bool, str]:
    """Target-hit rate of the simulated runs against the strategy's value.

    A run ends at the target with probability `value`, so the hit count is
    binomial; the bound allows Z_BINOMIAL standard deviations plus eps.
    """
    n = stats.total_runs
    rate = stats.target_runs / n
    tol = Z_BINOMIAL * math.sqrt(max(value * (1 - value), 1e-12) / n) + eps
    return abs(rate - value) <= tol, f"hit rate {rate:.6g} vs value {value:.10g} (tol {tol:.3g})"


def check_output(w: Workload, rc: int, stdout: str, files: Dict[str, str],
                 stats, modules) -> Tuple[List[str], dict]:
    """Failed checks and the quality outputs of one command."""
    fails: List[str] = []
    info = {"strategy_value": 0.0, "tree_nodes": None, "tree_rel_error": None}
    if rc != 0:
        fails.append(f"exit code {rc}")
    eps = w.eps
    t10 = 5e-10  # rounding of a value in [0, 1] printed with %.10g
    try:
        if w.command == "solve":
            kv = _kv(stdout)
            lo, hi, sv = float(kv["lower"]), float(kv["upper"]), float(kv["strategy value"])
            if not (lo <= w.optimum + t10 and hi >= w.optimum - t10):
                fails.append(f"bounds [{lo}, {hi}] do not bracket {w.optimum}")
            if hi - lo > eps + 2 * t10:
                fails.append(f"gap {hi - lo} above eps {eps}")
            if kv.get("converged") != "yes":
                fails.append("not converged")
            if abs(sv - w.optimum) > eps + t10:
                fails.append(f"strategy value {sv} not within eps of {w.optimum}")
            info.update(strategy_value=sv)
        elif w.command == "distill":
            kv = _kv(stdout)
            bound, sv = float(kv["value bound"]), float(kv["strategy value"])
            tv, size = float(kv["tree value"]), int(kv["tree size"])
            if not (w.optimum - eps - t10 <= bound <= w.optimum + t10):
                fails.append(f"value bound {bound} not within eps below {w.optimum}")
            if abs(sv - w.optimum) > eps + t10:
                fails.append(f"strategy value {sv} not within eps of {w.optimum}")
            rel = max(0.0, (sv - tv) / sv)
            if rel > BUDGET or float(kv["rel error"]) > BUDGET:
                fails.append(f"rel error {rel} above budget {BUDGET}")
            if kv.get("budget met") != "yes":
                fails.append("budget not met")
            tree = modules["dtree"].import_json(files["tree.json"])
            if tree.size != size:
                fails.append(f"tree JSON has {tree.size} nodes, printed {size}")
            ok, msg = _hit_rate_ok(stats, sv, eps)
            if not ok:
                fails.append(msg)
            info.update(strategy_value=tv, tree_nodes=size, tree_rel_error=rel)
        else:
            head, rows = _compare_table(stdout)
            value = float(head["value"])
            # printed with %.6g, so rounded by up to 5e-7
            if not (w.optimum - eps - 5e-7 <= value <= w.optimum + 5e-7):
                fails.append(f"value {value} not within eps below {w.optimum}")
            size, tv, rel = rows["dtree"]
            if rel > BUDGET:
                fails.append(f"dtree rel error {rel} above budget {BUDGET}")
            for name, (_, v, _) in rows.items():
                if v > w.optimum + 5e-9:
                    fails.append(f"{name} value {v} above the optimum {w.optimum}")
            csv_rows = {r.split(",")[0]: int(r.split(",")[1])
                        for r in files["table.csv"].splitlines()[1:]}
            if csv_rows != {k: r[0] for k, r in rows.items()}:
                fails.append(f"CSV sizes {csv_rows} differ from the printed table")
            ok, msg = _hit_rate_ok(stats, w.optimum, eps)
            if not ok:
                fails.append(msg)
            info.update(strategy_value=tv, tree_nodes=size, tree_rel_error=rel)
    except (KeyError, ValueError, IndexError, AttributeError, TypeError,
            ZeroDivisionError) as e:
        fails.append(f"unreadable output: {type(e).__name__}: {e}")
    return fails, info


# --------------------------------------------------------------------------
# Running commands.

def _load_program():
    if not (SRC / "mdpdistill" / "cli.py").is_file():
        raise FileNotFoundError(f"no mdpdistill sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from mdpdistill import bdd, cli, dtree, importance, solver, strategy
    return {"cli": cli, "solver": solver, "strategy": strategy,
            "importance": importance, "dtree": dtree, "bdd": bdd}


_SETUP_CODE = """\
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import mdpdistill.cli
from mdpdistill import fixtures
fn, args = json.loads(sys.argv[3])
Path(sys.argv[2]).write_text(getattr(fixtures, fn)(*args))
"""


def setup(w: Workload, workdir: Path, repeats: int) -> Tuple[Path, List[float]]:
    """Write the model from a fresh interpreter `repeats` times; time each."""
    model = workdir / "model.mdp"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), str(model),
                        json.dumps(w.model)], check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return model, times


def host_steal_s() -> float:
    """CPU time the hypervisor gave other guests, summed over this host's CPUs.

    On a shared host a command's wall time minus its CPU time tracks this;
    the summary prints all three per command.
    """
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class GcClock:
    """Time spent in the cyclic garbage collector, from gc.callbacks."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1


@dataclass
class CommandRecord:
    seconds: float
    cpu_s: float
    steal_s: float
    rc: int
    failures: List[str]
    info: dict
    digests: Dict[str, str]
    traced: bool
    gc_s: float
    gc_collections: int
    layers: Optional[dict] = None
    spans: list = field(default_factory=list)


def run_command(w: Workload, modules, model: Path, workdir: Path, seed: int,
                limit_s: float, tracer: Optional[tracing.Tracer]) -> CommandRecord:
    cli = modules["cli"]
    files = {"distill": ["tree.json"], "compare": ["table.csv"], "solve": []}[w.command]
    for f in files:
        (workdir / f).unlink(missing_ok=True)
    argv = [w.command, "--model", str(model), "--seed", str(seed), "--eps", repr(w.eps),
            *w.args]
    if w.command != "solve":
        argv += ["--threads", "1"]
    if w.command == "distill":
        argv += ["--out", str(workdir / "tree.json")]
    if w.command == "compare":
        argv += ["--csv", str(workdir / "table.csv")]

    # The hit-rate check needs the simulated RunStats; catch them on the way.
    captured = []
    simulate = cli.simulate_batched

    def capture(*a, **kw):
        stats = simulate(*a, **kw)
        captured.append(stats)
        return stats

    out, err = io.StringIO(), io.StringIO()
    clock = GcClock()
    gc.collect()
    gc.callbacks.append(clock)
    old = signal.signal(signal.SIGALRM, _on_alarm)
    failures: List[str] = []
    rc = -1
    try:
        cli.simulate_batched = capture
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracing.patched(modules, tracer))
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            t0, c0, s0 = time.perf_counter(), time.process_time(), host_steal_s()
            try:
                rc = cli.main(argv)
            except CommandTimeout:
                failures.append(f"time limit of {limit_s:.0f}s exceeded")
            except Exception as e:  # a traceback is a failed command, not a crash
                failures.append(f"exception: {type(e).__name__}: {e}")
            finally:
                seconds = time.perf_counter() - t0
                cpu_s = time.process_time() - c0
                steal_s = host_steal_s() - s0
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, old)
        cli.simulate_batched = simulate
        gc.callbacks.remove(clock)

    stdout = out.getvalue()
    texts = {f: (workdir / f).read_text() for f in files if (workdir / f).is_file()}
    digests = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    digests.update({f: hashlib.sha256(t.encode()).hexdigest() for f, t in texts.items()})
    info = {}
    if not failures:
        stats = captured[0] if captured else None
        fails, info = check_output(w, rc, stdout, texts, stats, modules)
        failures += fails
    if failures and err.getvalue():
        failures.append("stderr: " + err.getvalue().strip()[-300:])
    rec = CommandRecord(seconds, cpu_s, steal_s, rc, failures, info, digests, tracer is not None,
                        clock.seconds, clock.collections)
    if tracer is not None:
        rec.layers = tracing.layer_metrics(tracer, seconds)
        rec.layers["runtime.gc_s"] = clock.seconds
        rec.layers["runtime.gc_collections"] = clock.collections
        rec.layers["dtree.nodes"] = info.get("tree_nodes") or 0
        rec.layers["dtree.rel_error"] = info.get("tree_rel_error") or 0.0
        rec.spans = tracer.spans
    return rec


def tail_percentile(values: List[float]) -> Optional[Tuple[float, float]]:
    """Highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10  # samples at or below the percentile
    return 100.0 * k / n, sorted(values)[k - 1]


def measure(w: Workload, seed: int, seconds: float, trace: bool, *,
            setup_repeats: int = SETUP_REPEATS) -> Tuple[dict, List[str]]:
    """Run one benchmark: returns the result object and the summary lines."""
    started = time.perf_counter()
    modules = _load_program()
    workdir = OUT / w.name / f"seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    model, setup_times = setup(w, workdir, setup_repeats)

    records: List[CommandRecord] = []
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        traced_n = sum(r.traced for r in records)
        enough = records and elapsed >= seconds
        if trace:
            enough = enough and traced_n >= 1 and len(records) - traced_n >= 1
        if enough:
            break
        remaining = HARD_LIMIT_S - (time.perf_counter() - started)
        if remaining < 1.0:
            break
        limit = min(w.limit_s, remaining)
        tracer = tracing.Tracer() if trace and len(records) % 2 == 1 else None
        rec = run_command(w, modules, model, workdir, seed, limit, tracer)
        if (records and not rec.failures and not records[0].failures
                and rec.digests != records[0].digests):
            rec.failures.append("output differs from the first command at the same seed")
        records.append(rec)

    if not records:
        raise RuntimeError("time ran out before the first command")
    attempted = len(records)
    failed = sum(1 for r in records if r.failures)
    first = next((r.info for r in records if r.info), {})
    times = [r.seconds for r in records]
    lines = [f"workload {w.name}  seed {seed}  commands {attempted}  "
             f"failed {failed}  closed loop, 1 client, --threads 1"]
    for i, r in enumerate(records):
        lines.append(f"  command {i}: {r.seconds:.4f}s cpu {r.cpu_s:.4f}s host steal "
                     f"{r.steal_s:.2f}s rc={r.rc} gc {r.gc_s:.4f}s/{r.gc_collections}"
                     f"{' traced' if r.traced else ''}"
                     + (f"  FAILED: {'; '.join(r.failures)}" if r.failures else ""))
    lines.append("  digests: " + "  ".join(f"{k}={v}" for k, v in records[0].digests.items()))

    if not trace:
        metrics = {
            "run_s": statistics.median(times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": (attempted - failed) / attempted,
            "strategy_value": first.get("strategy_value", 0.0),
        }
        lines += [f"  {k} {v} {END_TO_END[k]}" for k, v in metrics.items()]
        tail = tail_percentile(times)
        lines.append(f"  run_s is the median of n={attempted} commands; "
                     + (f"p{tail[0]:.0f} {tail[1]} s" if tail else
                        "too few for a tail percentile with ten samples beyond it"))
        lines.append(f"  cpu_s {statistics.median(r.cpu_s for r in records)} s")
        lines.append(f"  error_rate {failed / attempted} ratio")
        for name, unit in (("tree_nodes", "count"), ("tree_rel_error", "ratio")):
            v = first.get(name)
            lines.append(f"  {name} {'n/a' if v is None else v} {unit}")
        lines.append(f"  runtime.gc_s {statistics.median(r.gc_s for r in records)} s")
    else:
        traced = [r for r in records if r.traced]
        plain = [r for r in records if not r.traced]
        if not traced or not plain:
            raise RuntimeError("time ran out before a traced and an untraced command")
        # the traced command with the median run_s supplies every layer
        # metric, so its self times and cli.other_s add up to its run_s
        rep = sorted(traced, key=lambda r: r.seconds)[(len(traced) - 1) // 2]
        layers = dict(rep.layers)
        untraced = statistics.median(r.seconds for r in plain)
        layers.update({
            "cli.commands": len(traced),
            "trace.run_s": rep.seconds,
            "trace.untraced_run_s": untraced,
            "trace.overhead_s": rep.seconds - untraced,
            "trace.span_cost_s": rep.layers["trace.spans"] * tracing.span_cost(),
        })
        metrics = {k: layers[k] for k in PER_LAYER}
        self_sum = sum(layers[k] for k in tracing.SELF_TIME_METRICS)
        lines.append(f"  traced run_s {rep.seconds:.4f} s = layer self times {self_sum:.4f} s"
                     f" + cli.other_s {layers['cli.other_s']:.4f} s; untraced {untraced:.4f} s")
        units = {**PER_LAYER, **dict.fromkeys(LAYER_ONLY_IN_SUMMARY, "s")}
        lines += [f"  {k} {layers[k]} {units[k]}" for k in sorted(layers)]

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": (END_TO_END if not trace else PER_LAYER)[k]}
                          for k, v in metrics.items()}}
    report = {"workload": w.name, "seed": seed, "trace": trace, "setup_s": setup_times,
              "commands": [r.__dict__ for r in records], "result": result}
    (workdir / f"results-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))
    return result, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result, lines = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                bool(args.trace))
    except (FileNotFoundError, subprocess.SubprocessError) as e:
        print(f"perfbench: cannot set up: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
