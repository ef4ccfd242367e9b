"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single `criterion NN: PASS/FAIL` line carrying the
measured numbers, so running this file with `-s` reads as a checklist.
Expensive artifacts (the random model corpus, solved fixtures, CLI runs)
are built once per session and shared across criteria.

Criterion 08 compares the three strategy stores on every bundled model
and prints each dtree/bdd/explicit triple. It asserts the paper's claim,
tree <= BDD, on every model, and the full chain tree <= BDD <= explicit
only on grid, the one model near the paper's scale. A BDD beats the pair
list only once sharing pays off: an exact ROBDD has at least one node per
essential bit, and fig1 keeps two pairs that differ in 3 of their 8 bits,
so all 8 are essential and its BDD cannot be smaller than its 2 pairs.
On mutex (13 essential bits, 23 pairs) that bound does not decide the
leg and nothing promises it, so its gap is printed but not asserted.
"""

import io
import json
import time
import contextlib
from functools import lru_cache
from pathlib import Path

import importlib.resources as ir

import pytest

from conftest import random_mdp
from mdpdistill import bdd, dtree, fixtures, strategy as strat
from mdpdistill.cli import main
from mdpdistill.importance import Domain, build_training_set, importance_of, simulate
from mdpdistill.solver import brtdp, value_iteration
from oracles import (TrainRow, as_tuples, check_valid, choice_of, classify, exact_importance,
                     max_reach_exact, rows_of, training_set)

FIXTURES = ("fig1", "mutex", "sync2", "grid")
MODELS = ir.files("mdpdistill") / "models"


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(args)
    out = buf.getvalue()
    kv = {}
    for line in out.splitlines():
        if "  " in line:
            k, v = line.split("  ", 1)
            kv[k.strip()] = v.strip()
    return rc, kv, out


@lru_cache(maxsize=None)
def _default_pipeline(name: str, variant: str = "IDP"):
    """The distill pipeline at CLI defaults, kept for reuse across tests."""
    mode, kind = {"IDP": ("repeat", "DP"), "OD": ("once", "DP"),
                  "OA": ("once", "AP")}[variant]
    mdp = fixtures.load(name)
    va = value_iteration(mdp, 1e-6)
    sigma = strat.extract_liberal(mdp, va)
    stats = simulate(mdp, sigma, 10000, seed=0)
    imp = importance_of(stats, kind)
    trunc = strat.truncate(sigma, imp.weights, 0.0, "keep-all")
    ts = build_training_set(mdp, sigma, imp.weights, mode=mode, runs=10000)
    return mdp, va, sigma, imp, trunc, ts, strat.evaluate(mdp, sigma)


@pytest.fixture(scope="session")
def corpus():
    """fig1 plus 200 seeded random models (<= 50 states, <= 3 actions)."""
    models = [fixtures.load("fig1")]
    models += [random_mdp(seed, max_states=50, max_actions=3)
               for seed in range(200)]
    return [(m, max_reach_exact(m)) for m in models]


def test_criterion_01_fig1_values_and_extraction():
    t0 = time.perf_counter()
    fig1 = fixtures.load("fig1")
    t = as_tuples(fig1)
    q = t.states.index((1, 2))
    va = value_iteration(fig1, 1e-9)
    v0 = va.state_lower[fig1.initial]
    vq = va.state_lower[q]
    brute = max_reach_exact(fig1)
    sigma = strat.extract_liberal(fig1, va)
    picks0 = {t.actions[0][i].attr.name for i in choice_of(sigma)[0]}
    picksq = {t.actions[q][i].attr.name for i in choice_of(sigma)[q]}
    dt = time.perf_counter() - t0
    ok = (abs(v0 - 0.995) <= 1e-9 and abs(vq - 0.5) <= 1e-9
          and abs(brute[fig1.initial] - 0.995) <= 1e-12
          and abs(brute[q] - 0.5) <= 1e-12
          and picks0 == {"b"} and picksq == {"d"} and dt < 1.0)
    assert _report(1, ok, f"start {v0:.10f} coin {vq:.10f} picks "
                          f"{sorted(picks0)}/{sorted(picksq)} in {dt:.2f}s")


def test_criterion_02_importance_exact_and_sampled():
    t0 = time.perf_counter()
    fig1 = fixtures.load("fig1")
    t = as_tuples(fig1)
    q = t.states.index((1, 2))
    va = value_iteration(fig1, 1e-9)
    sigma = strat.extract_liberal(fig1, va)
    imp = exact_importance(fig1, sigma)
    exact_ok = (abs(imp[q] - 5 / 995) <= 1e-12
                and imp[fig1.initial] == 1.0
                and imp[next(iter(t.target))] == 1.0)
    in_band = 0
    for seed in range(100):
        stats = simulate(fig1, sigma, 10000, seed=seed)
        est = importance_of(stats, "DP").weights[q]
        if 0.003 <= est <= 0.008:
            in_band += 1
    dt = time.perf_counter() - t0
    ok = exact_ok and in_band >= 95 and dt < 10.0
    assert _report(2, ok, f"Imp(q) {imp[q]:.12f}, {in_band}/100 seeds in "
                          f"[0.003, 0.008] in {dt:.1f}s")


def test_criterion_03_membership_tree():
    dom = Domain((("x1", 1, 7),), (), 1)
    rows = [TrainRow((v,), None, v in {1, 2, 3, 7}, 1) for v in range(1, 8)]
    t = dtree.learn(training_set(dom, rows), min_leaf=1, confidence=0.5)
    # x1 <= 6 is the integer form of x1 < 7
    shape_ok = (t.size == 5
                and t.root.pred == dtree.Pred("le", 0, 3)
                and isinstance(t.root.yes, dtree.Leaf) and t.root.yes.good
                and t.root.no.pred == dtree.Pred("le", 0, 6)
                and isinstance(t.root.no.yes, dtree.Leaf)
                and not t.root.no.yes.good
                and isinstance(t.root.no.no, dtree.Leaf) and t.root.no.no.good)
    class_ok = all(classify(t, (v,), None) == (v in {1, 2, 3, 7})
                   for v in range(1, 8))
    ok = shape_ok and class_ok
    assert _report(3, ok, f"size {t.size}, root [x1<=3], else [x1<=6] "
                          f"splitting off 7")


def test_criterion_04_soundness_corpus(corpus):
    t0 = time.perf_counter()
    worst = 0.0
    bad = []
    for i, (m, exact) in enumerate(corpus):
        for engine, va in (("vi", value_iteration(m, 1e-6)),
                           ("brtdp", brtdp(m, 1e-6, seed=i))):
            rep = check_valid(m, va, exact)
            if not rep.ok:
                bad.append((i, engine, rep.messages))
                continue
            val = strat.evaluate(m, strat.extract_liberal(m, va))
            gap = exact[m.initial] - val
            worst = max(worst, gap)
            if gap > 1e-6:
                bad.append((i, engine, gap))
    dt = time.perf_counter() - t0
    ok = not bad and dt < 60.0
    assert _report(4, ok, f"{len(corpus)} models x 2 engines, worst value "
                          f"gap {worst:.2e}, {len(bad)} failures in {dt:.1f}s")


def test_criterion_05_truncation_safety(corpus):
    checked = skipped = exact_eq = swept_ok = 0
    for m, _ in corpus:
        va = value_iteration(m, 1e-6)
        sigma = strat.extract_liberal(m, va)
        ref = strat.evaluate(m, sigma)
        if ref <= 0.0:
            skipped += 1
            continue
        imp = exact_importance(m, sigma)
        pos = sorted(w for w in imp if w > 0)
        below = strat.evaluate(m, strat.truncate(sigma, imp, pos[0] / 2))
        if below == ref:
            exact_eq += 1
        swept = strat.evaluate(
            m, strat.truncate(sigma, imp, pos[0] * (1 - 1e-9)))
        if abs(swept - ref) <= 1e-9:
            swept_ok += 1
        checked += 1
    ok = exact_eq == checked and swept_ok == checked
    assert _report(5, ok, f"{checked} models: drop below min importance "
                          f"exact-equal {exact_eq}, last-step sweep within "
                          f"1e-9 {swept_ok} ({skipped} zero-value skipped)")


def test_criterion_06_default_distill_budget():
    t0 = time.perf_counter()
    results = {}
    for name in FIXTURES:
        rc, kv, _ = _run_cli(["distill", "--model", str(MODELS / f"{name}.mdp")])
        results[name] = (rc, kv)
    dt = time.perf_counter() - t0
    within = all(rc == 0 and kv["budget met"] == "yes"
                 and float(kv["rel error"]) <= 0.01
                 for rc, kv in results.values())

    # the grid budget frontier is a cliff: one min-leaf step past the
    # accepted tree, the next smaller tree loses far more than 5%
    mdp, _, _, _, _, ts, ref = _default_pipeline("grid")
    rc, kv = results["grid"]
    frontier = int(kv["min leaf"])
    tree = dtree.learn(ts, min_leaf=frontier + 1)
    induced, _ = dtree.induce_strategy(mdp, tree)
    next_rel = (ref - strat.evaluate(mdp, induced)) / ref
    cliff = (int(kv["tree size"]) > 1 and tree.size < int(kv["tree size"])
             and next_rel > 0.05)
    ok = within and cliff and dt < 300.0
    rels = " ".join(f"{n}={float(kv['rel error']):.2g}"
                    for n, (_, kv) in results.items())
    assert _report(6, ok, f"rel errors {rels}; grid frontier size "
                          f"{results['grid'][1]['tree size']} then "
                          f"{tree.size} at {next_rel:.1%} loss; {dt:.0f}s")


def test_criterion_07_sync_single_leaf(tmp_path):
    out = tmp_path / "tree.json"
    rc, kv, _ = _run_cli(["distill", "--model", str(MODELS / "sync2.mdp"),
                          "--out", str(out)])
    obj = json.loads(out.read_text())
    mdp, _, _, _, _, _, ref = _default_pipeline("sync2")
    ok = (rc == 0 and int(kv["tree size"]) == 1
          and obj["root"] == {"leaf": True}
          and abs(float(kv["tree value"]) - ref) <= 1e-12)
    assert _report(7, ok, f"tree size {kv['tree size']}, value "
                          f"{kv['tree value']} vs reference {ref:.10g}")


def test_criterion_08_store_size_ordering(tmp_path):
    sizes = {}
    for name in FIXTURES:
        csvp = tmp_path / f"{name}.csv"
        rc, _, _ = _run_cli(["compare", "--model", str(MODELS / f"{name}.mdp"),
                             "--csv", str(csvp)])
        assert rc == 0
        rows = {}
        for line in csvp.read_text().splitlines()[1:]:
            store, size, _, _ = line.split(",")
            rows[store] = int(size)
        sizes[name] = rows
    grid = sizes["grid"]
    ok = (all(r["dtree"] <= r["bdd"] for r in sizes.values())
          and grid["bdd"] <= grid["explicit"])
    detail = "; ".join(f"{n} dt/bdd/explicit {r['dtree']}/{r['bdd']}/"
                       f"{r['explicit']}" for n, r in sizes.items())
    assert _report(8, ok, detail)


def test_criterion_09_variant_ordering():
    sizes = {}
    met = {}
    for variant in ("IDP", "OD", "OA"):
        rc, kv, _ = _run_cli(["distill", "--model", str(MODELS / "mutex.mdp"),
                              "--variant", variant])
        sizes[variant] = int(kv["tree size"])
        met[variant] = kv["budget met"]
    ok = (sizes["IDP"] <= sizes["OD"] and sizes["IDP"] <= sizes["OA"]
          and met["IDP"] == "yes")
    assert _report(9, ok, f"IDP {sizes['IDP']} <= OD {sizes['OD']}, "
                          f"OA {sizes['OA']} at the same 1% budget")


def test_criterion_10_partial_exploration():
    big = fixtures.fig1_extended(10000)
    va_b = brtdp(big, 0.02, seed=0)
    va_v = value_iteration(big, 0.02)
    frac = len(va_b.explored) / big.n_states
    diff = abs(va_b.state_lower[big.initial] - va_v.state_lower[big.initial])
    ok = va_b.converged and frac < 0.05 and diff <= 2 * 0.02
    assert _report(10, ok, f"explored {len(va_b.explored)}/{big.n_states} "
                           f"({frac:.2%}), engines differ by {diff:.4f}")


def test_criterion_11_deterministic_output(tmp_path):
    identical = {}
    for name in FIXTURES:
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}.json"
            rc, _, _ = _run_cli(["distill", "--model",
                                 str(MODELS / f"{name}.mdp"), "--out", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        identical[name] = blobs[0] == blobs[1]
    ok = all(identical.values())
    assert _report(11, ok, "tree.json byte-identical across reruns: "
                           + " ".join(f"{n}={v}" for n, v in identical.items()))


def test_criterion_12_representation_exactness():
    # unpruned trees with min_leaf=1 must classify every training row
    tree_errors = {}
    for name, variant in (("fig1", "IDP"), ("mutex", "IDP"), ("mutex", "OD"),
                          ("mutex", "OA"), ("sync2", "IDP"), ("grid", "IDP")):
        _, _, _, _, _, ts, _ = _default_pipeline(name, variant)
        t = dtree.learn(ts, min_leaf=1, prune=False)
        errs = sum(r.weight for r in rows_of(ts)
                   if classify(t, r.x, r.attr) != r.good)
        tree_errors[f"{name}/{variant}"] = errs
    # the stored ROBDD must accept exactly the truncated good pairs,
    # checked against every point of the bit domain
    bdd_bad = {}
    for name in FIXTURES:
        mdp, _, _, _, trunc, _, _ = _default_pipeline(name)
        store = bdd.store_strategy(mdp, trunc)
        items = {store.layout.encode(mdp.sparse.valuation[s].tolist(), attr)
                 for s, attr in trunc.good_pairs()}
        n = store.layout.n_bits
        assert (1 << n) <= (1 << 20)
        mismatch = 0
        for v in range(1 << n):
            bits = tuple((v >> (n - 1 - i)) & 1 for i in range(n))
            if store.bdd.contains(store.root, bits) != (bits in items):
                mismatch += 1
        bdd_bad[name] = mismatch
    ok = (all(e == 0 for e in tree_errors.values())
          and all(b == 0 for b in bdd_bad.values()))
    assert _report(12, ok, f"training errors {tree_errors}; "
                           f"bdd domain mismatches {bdd_bad}")
