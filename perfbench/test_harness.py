"""Smoke test of the benchmark harness at reduced size.

    python3 -m pytest perfbench/test_harness.py -q

Small chain models (k=40) and 300 simulated runs stand in for the real
workloads; the checks and the metric plumbing are the same code.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

CHAIN = ("fig1_extended_text", (40,))
SMALL = {
    "solve": bench.Workload("small-solve", "solve", CHAIN, bench.CHAIN_OPT, eps=1e-9),
    "distill": bench.Workload("small-distill", "distill", CHAIN, bench.CHAIN_OPT,
                              args=("--runs", "300")),
    "compare": bench.Workload("small-compare", "compare", CHAIN, bench.CHAIN_OPT,
                              args=("--engine", "brtdp", "--runs", "300")),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# metrics the summary lines carry besides the JSON line
SUMMARY_ONLY = {"error_rate": "ratio", "tree_nodes": "count", "tree_rel_error": "ratio"}


def _measure(w, trace=False):
    return bench.measure(w, seed=3, seconds=0.01, trace=trace, setup_repeats=1)


def _summary_has(lines, name, unit):
    return any(ln.split()[0] == name and ln.split()[-1] == unit
               for ln in lines if ln.startswith("  ") and len(ln.split()) >= 3)


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_end_to_end_metrics_emitted(kind):
    result, lines = _measure(SMALL[kind])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    for name, unit in SUMMARY_ONLY.items():
        assert _summary_has(lines, name, unit), name
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_per_layer_metrics_emitted(kind):
    result, lines = _measure(SMALL[kind], trace=True)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for name in bench.LAYER_ONLY_IN_SUMMARY:
        assert _summary_has(lines, name, "s"), name
    # layer self times plus cli.other_s account for the traced command
    text = {ln.split()[0]: ln.split()[1] for ln in lines if ln.startswith("  ")}
    parts = [float(text[k]) for k in bench.tracing.SELF_TIME_METRICS]
    total = sum(parts) + float(text["cli.other_s"])
    assert total == pytest.approx(result["metrics"]["trace.run_s"]["value"], abs=1e-9)


def test_failed_output_check_counts_as_error():
    wrong = replace(SMALL["compare"], name="small-wrong", optimum=0.5)
    result, lines = _measure(wrong)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["success_rate"]["value"] == 0.0
    assert "  error_rate 1.0 ratio" in lines
    assert any("not within eps below 0.5" in ln for ln in lines)


def test_timeout_counts_as_error():
    slow = replace(SMALL["distill"], name="small-timeout", limit_s=0.01)
    result, lines = _measure(slow)
    assert result["failed"] == result["attempted"] >= 1
    assert any("time limit" in ln for ln in lines)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
