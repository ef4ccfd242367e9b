"""The compiled build against the interpreted one it replaced.

`oracles.build_dict` explores a model by interpreting every guard and
update, keeps it as Python tuples, and converts it with `mdp_dict`, the
tuple-to-array code the model used to run. The compiled build must give
the same arrays bit for bit, the same flat text, and the same `ModelError`
text, on the bundled models, on the chain generator and on a seeded random
corpus of guarded-command models.
"""

import dataclasses
import io
import random
import re
import tokenize
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from mdpdistill import build, fixtures
from mdpdistill.build import build_mdp, compile_model, export_flat, load_model
from mdpdistill.core import Mdp, MdpError
from mdpdistill.lang import ModelError, parse_model

from conftest import random_mdp
from oracles import (DictModel, as_tuples, build_dict, export_dict, mdp_dict, mdp_of,
                     validate_dict)


def assert_same_arrays(got: Mdp, want: Mdp):
    """Every field of the two models is equal, each array bit for bit."""
    for field in dataclasses.fields(Mdp):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, sp.csr_matrix):
            assert a.shape == b.shape, field.name
            a, b = (a.indptr, a.indices, a.data), (b.indptr, b.indices, b.data)
        elif isinstance(b, np.ndarray):
            a, b = (a,), (b,)
        else:
            assert a == b, field.name
            continue
        for x, y in zip(a, b):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), field.name


def assert_same_model(mdp: Mdp, model: DictModel):
    assert_same_arrays(mdp, mdp_dict(model))
    assert export_flat(mdp) == export_dict(model)


def outcome(build, text: str, state_cap: int):
    """('ok', result) or ('error', message) of one build of the model text."""
    try:
        return "ok", build(parse_model(text), state_cap=state_cap)
    except ModelError as e:
        return "error", str(e)


@lru_cache(maxsize=None)
def dict_outcome(text: str, state_cap: int):
    """The interpreted build's outcome, kept: the batched tests rerun the corpus."""
    return outcome(build_dict, text, state_cap)


def assert_same_outcome(text: str, state_cap: int = 1_000_000) -> str:
    kind, got = outcome(build_mdp, text, state_cap)
    want_kind, want = dict_outcome(text, state_cap)
    assert kind == want_kind, (got, want)
    if kind == "ok":
        assert_same_model(got, want)
    else:
        assert got == want
    return got if kind == "error" else "ok"


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_bundled_models_match_interpreted_build(name):
    assert assert_same_outcome(fixtures.model_text(name)) == "ok"


@pytest.mark.parametrize("k", [1, 2, 7, 100, 2000])
def test_chain_generator_matches_interpreted_build(k):
    assert assert_same_outcome(fixtures.fig1_extended_text(k)) == "ok"


def test_large_chain_has_the_small_chains_shape():
    # k chain states plus fig1's ten, and one action each but for five extra
    # rows off the chain, at every k
    for k in (2000, 200000):
        m = fixtures.fig1_extended(k)
        assert m.n_states == k + 10
        assert len(m.row_state) == k + 15


# --------------------------------------------------------------------------
# A seeded random corpus of guarded-command models.

BIG = (2 ** 63, 2 ** 64 + 7, -(2 ** 70) - 3)
PROBS = (("1",), ("0.5", "0.5"), ("0.25", "0.25", "0.5"), ("0.1", "0.2", "0.7"),
         ("0.3", "0.7"))


def random_model(seed: int) -> str:
    """Model text with 1-3 modules sharing labels, negative ranges, min/max,
    constants beyond 64 bits and updates that sometimes leave their range."""
    rng = random.Random(seed)
    n_mod = rng.choice([1, 2, 2, 3, 3])
    labels = ["a", "b", "c"][:rng.randint(1, 2)]
    modules = []
    for mi in range(n_mod):
        own = []
        for vi in range(rng.randint(1, 2)):
            lo = rng.randint(-3, 0)
            hi = lo + rng.randint(1, 4)
            own.append((f"m{mi}v{vi}", lo, hi, rng.randint(lo, hi)))
        modules.append(own)
    names = [v[0] for own in modules for v in own]

    def int_expr(depth: int) -> str:
        r = rng.random()
        if depth == 0 or r < 0.3:
            return rng.choice(names + [str(rng.randint(0, 3)), "k"])
        if r < 0.5:
            return f"({int_expr(depth - 1)} {rng.choice('+-*')} {int_expr(depth - 1)})"
        if r < 0.65:
            return f"{rng.choice(['min', 'max'])}({int_expr(depth - 1)}, {int_expr(depth - 1)})"
        if r < 0.75:
            return f"-{int_expr(depth - 1)}"
        if r < 0.87:
            return f"(big - big + {int_expr(depth - 1)})"
        return f"min({int_expr(depth - 1)}, big)"

    def bool_expr(depth: int) -> str:
        r = rng.random()
        if depth == 0 or r < 0.45:
            op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            return f"{int_expr(1)} {op} {int_expr(1)}"
        if r < 0.65:
            return f"({bool_expr(depth - 1)} & {bool_expr(depth - 1)})"
        if r < 0.8:
            return f"({bool_expr(depth - 1)} | {bool_expr(depth - 1)})"
        if r < 0.9:
            return f"!({bool_expr(depth - 1)})"
        return rng.choice(["true", "false"])

    def update(var) -> str:
        name, lo, hi, _ = var
        e = int_expr(2)
        if rng.random() < 0.85:
            e = f"max(min({e}, {hi}), {lo})"
        return f"({name}'={e})"

    def command(label: str, own, guard: str) -> str:
        alts = []
        for p in rng.choice(PROBS):
            if alts and rng.random() < 0.25:
                alts.append(f"{p}:{alts[-1].split(':', 1)[1]}")  # a repeated successor
                continue
            ups = rng.sample(own, rng.randint(1, len(own)))
            alts.append(f"{p}:" + "&".join(update(v) for v in ups))
        return f"  [{label}] {guard} -> {' + '.join(alts)};"

    # half the models give every module a command on the shared label s
    shared = n_mod > 1 and rng.random() < 0.5
    out = [f"const big = {rng.choice(BIG)};", f"const k = {rng.randint(-2, 3)};"]
    for mi, own in enumerate(modules):
        out.append(f"module m{mi}")
        out.extend(f"  {name} : [{lo}..{hi}] init {init};" for name, lo, hi, init in own)
        for _ in range(rng.randint(1, 3)):
            guard = "true" if rng.random() < 0.3 else bool_expr(2)
            out.append(command(rng.choice(labels + [""]), own, guard))
        if shared:
            out.append(command("s", own, "true" if rng.random() < 0.5 else bool_expr(1)))
        if mi == 0 and rng.random() < 0.5:
            out.append(f"  [] true -> 1:({own[0][0]}'={own[0][0]});")
        out.append("endmodule")
    name, lo, hi, _ = rng.choice([v for own in modules for v in own])
    extra = f" & {bool_expr(1)}" if rng.random() < 0.5 else ""
    out.append(f"target {name} = {rng.randint(lo, hi)}{extra}")
    return "\n".join(out) + "\n"


CORPUS = range(300)


def corpus_case(seed: int):
    """The model text and state cap of one corpus model."""
    rng = random.Random(10_000 + seed)
    cap = rng.randint(1, 12) if rng.random() < 0.3 else 1_000_000
    return random_model(seed), cap


@lru_cache(maxsize=None)
def corpus_outcome(seed: int) -> str:
    return assert_same_outcome(*corpus_case(seed))


@pytest.mark.parametrize("seed", CORPUS)
def test_random_models_match_interpreted_build(seed):
    corpus_outcome(seed)


def test_random_corpus_covers_every_case():
    kinds = Counter()
    synced = synced3 = merged = big = 0
    for seed in CORPUS:
        got = corpus_outcome(seed)
        if got != "ok":
            kinds[re.match(r"deadlock|state cap|update drives", got).group(0)] += 1
            continue
        kinds["ok"] += 1
        text = random_model(seed)
        ast = parse_model(text)
        m, unmerged = build_mdp(ast), []
        build_dict(ast, unmerged=unmerged)
        tau = m.action_names.index("tau") if "tau" in m.action_names else -1
        synced += bool(((m.module == 0) & (m.action_id != tau)).any())
        # the label s, when used, is declared by every module
        s = m.action_names.index("s") if "s" in m.action_names else -1
        synced3 += len(ast.modules) == 3 and bool(((m.module == 0) & (m.action_id == s)).any())
        merged += sum(unmerged) > len(m.branches.data) - int(m.is_target.sum())
        big += text.count("big") > 1
    assert kinds["ok"] >= 120 and kinds["deadlock"] >= 5, kinds
    assert kinds["state cap"] >= 10 and kinds["update drives"] >= 40, kinds
    assert synced >= 15 and synced3 >= 5, (synced, synced3)
    assert merged >= 40 and big >= 100, (merged, big)


# --------------------------------------------------------------------------
# Errors surface in the interpreted build's order: each action's updates are
# checked before its successors are numbered, one action after another.

CAP_THEN_BAD = """
module m x:[0..5] init 0;
  [] x=0 -> 0.5:(x'=1) + 0.5:(x'=2);
  [] x=0 -> 1:(x'=x+9);
  [] x>0 -> 1:(x'=x);
endmodule
target x=5
"""

BAD_THEN_CAP = """
module m x:[0..5] init 0;
  [] x=0 -> 1:(x'=x+9);
  [] x=0 -> 0.5:(x'=1) + 0.5:(x'=2);
  [] x>0 -> 1:(x'=x);
endmodule
target x=5
"""

SYNC = """
module a x:[0..3] init 0;
  [s] x=0 -> 0.5:(x'=1) + 0.5:(x'=2);
  [s] x=0 -> 1:(x'=x+7);
  [] x>0 -> 1:(x'=x);
endmodule
module b y:[0..1] init 0;
  [s] true -> 0.5:(y'=0) + 0.5:(y'=1);
endmodule
target x=3
"""


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("text", [CAP_THEN_BAD, BAD_THEN_CAP, SYNC],
                         ids=["cap-then-bad", "bad-then-cap", "sync"])
def test_cap_and_bad_update_in_one_state(text, cap):
    got = assert_same_outcome(text, cap)
    # the first action's successors are numbered before the second action runs
    first_fits = cap >= (3 if text is CAP_THEN_BAD else 5)
    if text is BAD_THEN_CAP or first_fits:
        assert got.startswith("update drives x to")
    else:
        assert got.startswith("state cap exceeded")


# --------------------------------------------------------------------------
# Batched expansion. A pending segment of at least WIDE states goes through
# expand_all; with WIDE forced to 1 every segment of a model whose
# expressions fit int64 does. Either way the arrays and error texts are the
# interpreted build's.

def spy_batches(mp: pytest.MonkeyPatch) -> list:
    """Record each batch the build runs: True when it was used, False when
    its segment was replayed one state at a time."""
    seen = []
    batch = build._Frontier.batch

    def spy(self, *args):
        got = batch(self, *args)
        seen.append(got is not None)
        return got

    mp.setattr(build._Frontier, "batch", spy)
    return seen


@pytest.fixture
def batches(monkeypatch):
    return spy_batches(monkeypatch)


@pytest.fixture
def forced(monkeypatch):
    monkeypatch.setattr(build, "WIDE", 1)
    return spy_batches(monkeypatch)


def test_grid_is_built_in_batches(batches):
    assert assert_same_outcome(fixtures.model_text("grid")) == "ok"
    assert len(batches) > 100 and all(batches)


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_forced_batches_on_bundled_models(name, forced):
    assert assert_same_outcome(fixtures.model_text(name)) == "ok"
    assert forced and all(forced)


@pytest.mark.parametrize("k", [1, 2, 7, 100, 2000])
def test_forced_batches_on_the_chain(k, forced):
    assert assert_same_outcome(fixtures.fig1_extended_text(k)) == "ok"
    assert len(forced) >= k and all(forced)


@lru_cache(maxsize=None)
def forced_outcome(seed: int):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(build, "WIDE", 1)
        seen = spy_batches(mp)
        return assert_same_outcome(*corpus_case(seed)), tuple(seen)


@pytest.mark.parametrize("seed", CORPUS)
def test_forced_batches_on_random_models(seed):
    forced_outcome(seed)


def test_forced_batches_cover_the_corpus():
    used = replayed = unbatched = 0
    for seed in CORPUS:
        got, seen = forced_outcome(seed)
        used += got == "ok" and bool(seen) and all(seen)
        replayed += got != "ok" and False in seen
        unbatched += not seen
    # sums with a big constant keep some models per-state throughout
    assert used >= 120 and replayed >= 60 and unbatched >= 60, (used, replayed, unbatched)


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("text", [CAP_THEN_BAD, BAD_THEN_CAP, SYNC],
                         ids=["cap-then-bad", "bad-then-cap", "sync"])
def test_forced_batches_on_cap_and_bad_update(text, cap, forced):
    assert_same_outcome(text, cap)
    assert forced


# --------------------------------------------------------------------------
# The walker alone. With WIDE out of reach no segment is batched, and every
# state goes through the generated walker.

@pytest.fixture
def walked(monkeypatch):
    monkeypatch.setattr(build, "WIDE", 2 ** 62)
    return spy_batches(monkeypatch)


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_walker_alone_on_bundled_models(name, walked):
    assert assert_same_outcome(fixtures.model_text(name)) == "ok"
    assert walked == []


@pytest.mark.parametrize("text", [fixtures.fig1_extended_text(k) for k in (1, 2, 7, 100, 2000)]
                         + [fixtures.grid_text(40)],
                         ids=[f"chain{k}" for k in (1, 2, 7, 100, 2000)] + ["grid40"])
def test_walker_alone_on_generators(text, walked):
    assert assert_same_outcome(text) == "ok"
    assert walked == []


@pytest.mark.parametrize("seed", CORPUS)
def test_walker_alone_on_random_models(seed, walked):
    assert_same_outcome(*corpus_case(seed))
    assert walked == []


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("text", [CAP_THEN_BAD, BAD_THEN_CAP, SYNC],
                         ids=["cap-then-bad", "bad-then-cap", "sync"])
def test_walker_alone_on_cap_and_bad_update(text, cap, walked):
    assert_same_outcome(text, cap)
    assert walked == []


@pytest.mark.parametrize("text", ["module m endmodule target true",
                                  "module m endmodule target false"])
def test_forced_batches_without_variables(text, forced):
    # the one state of a model without variables is never batched
    assert_same_outcome(text)
    assert forced == []


def diagonal(guard: str = "true", extra: str = "") -> str:
    """A model whose breadth-first levels are the diagonals x+y = d of a
    97 x 97 grid: level d holds d+1 states, and (40, 40) lies in the middle
    of level 80."""
    return f"""
module m
  x : [0..96] init 0;
  y : [0..96] init 0;
  [] x<96 & y<96 & {guard} -> 0.5:(x'=x+1) + 0.5:(y'=y+1);
  [] x=96 | y=96 -> 1:(x'=x);
  {extra}
endmodule
target x=96 & y=96
"""


# states in levels 0..80 are 81*82/2 = 3321; level 80 finds 82 new ones
@pytest.mark.parametrize("text, cap, error", [
    (diagonal(extra="[] x=40 & y=40 -> 1:(x'=x+100);"), 10 ** 6, "update drives x to 140"),
    (diagonal(guard="!(x=40 & y=40)"), 10 ** 6, "deadlock"),
    (diagonal(), 3321 + 41, "state cap exceeded"),
], ids=["bad-update", "deadlock", "state-cap"])
def test_error_in_a_wide_segment(text, cap, error, batches):
    assert 81 >= build.WIDE
    assert assert_same_outcome(text, cap).startswith(error)
    # the levels before went through batches, the failing one was replayed
    assert batches.count(True) > 40 and batches[-1] is False


def test_int64_unsafe_subexpression_in_a_wide_segment(batches):
    # 96 * 96 * 2**60 passes 2**63, and at (40, 40) the value does too
    text = diagonal(extra="[] x=40 & y=40 & x*y*1152921504606846976 > 0 -> 1:(x'=x);")
    assert compile_model(parse_model(text)).expand_all is None
    assert assert_same_outcome(text) == "ok"
    assert batches == []
    assert compile_model(parse_model(diagonal())).expand_all is not None


def test_expand_all_is_compiled_when_a_wide_segment_appears(monkeypatch):
    defined = []
    define = build.define
    monkeypatch.setattr(build, "define",
                        lambda name, *a, **kw: defined.append(name) or define(name, *a, **kw))
    # the chain's queue never holds WIDE states, so it is walked throughout
    load_model(fixtures.fig1_extended_text(2000))
    assert defined == ["walk"]
    defined.clear()
    load_model(fixtures.model_text("grid"))
    assert defined == ["walk", "expand_all"]


@pytest.mark.parametrize("n", [3, 40])
def test_grid_generator_matches_interpreted_build(n):
    assert assert_same_outcome(fixtures.grid_text(n)) == "ok"


def test_grid_generator_gives_the_bundled_grid():
    got, want = load_model(fixtures.grid_text(100)), fixtures.load("grid")
    assert_same_arrays(got, want)
    assert export_flat(got) == export_flat(want)


def test_values_beyond_64_bits():
    # a range past 64 bits is fine while the reachable values fit
    text = ("module m x:[0..9223372036854775808] init 0; [] x<2 -> 1:(x'=x+1); "
            "[] x=2 -> 1:(x'=x); endmodule target x=2")
    assert assert_same_outcome(text) == "ok"
    with pytest.raises(ModelError, match="outside the 64-bit range"):
        load_model("module m x:[0..9223372036854775808] init 9223372036854775808; "
                   "[] true -> 1:(x'=x); endmodule target x=0")


def test_deep_expression_is_a_model_error():
    deep = "(" * 400 + "x" + ")" * 400
    with pytest.raises(ModelError, match="nested too deeply"):
        load_model(f"module m x:[0..1] init 0; [] {deep}=0 -> 1:(x'=1); endmodule target x=1")
    # a long flat chain is no problem for the generated code
    chain = "+".join(["x"] * 300)
    m = load_model(f"module m x:[0..1] init 0; [] {chain}=0 -> 1:(x'=1); endmodule target x=1")
    assert m.n_states == 2


# --------------------------------------------------------------------------
# The generated code holds no text from the model.

ALLOWED = {"def", "return", "if", "not", "and", "or", "True", "False", "min", "max",
           # walk: its parameters, locals and loop
           "walk", "states", "index", "s", "wide", "replay", "cap", "counts", "row_kind",
           "succ", "get", "add", "found", "kind", "n", "r", "t", "i", "len", "append", "while",
           # expand_all: its output arrays and the numpy functions it is given
           "expand_all", "G", "T", "B", "H", "logical_not", "logical_and", "logical_or",
           "minimum", "maximum"}

HOSTILE = """
const None = 2;
module lambda
  out : [0..2] init 0;
  v0 : [0..1] init 0;
  [expand] out < None -> 0.5:(out'=out+1) + 0.5:(v0'=1);
  [v0] v0 = 1 -> 1:(v0'=0);
  [] out = None -> 1:(out'=0);
endmodule
module expand
  lambda : [0..1] init 0;
  is_target : [0..1] init 1;
  [expand] true -> 1:(lambda'=1-lambda);
  [] lambda = 0 -> 1:(is_target'=0);
endmodule
target out = None & lambda = 1 & v0 = 0
"""


def assert_clean_source(source: str):
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            assert tok.string in ALLOWED or re.fullmatch(r"[vugt]\d+", tok.string), tok
        elif tok.type == tokenize.NUMBER:
            assert re.fullmatch(r"\d+", tok.string), tok
        else:
            assert tok.type in (tokenize.OP, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                                tokenize.DEDENT, tokenize.ENDMARKER), tok


def test_model_names_never_reach_the_generated_code():
    ast = parse_model(HOSTILE)
    assert compile_model(ast).expand_all is not None
    assert_clean_source(compile_model(ast).source)
    assert assert_same_outcome(HOSTILE) == "ok"
    m = load_model(HOSTILE)
    assert [n for n, _, _ in m.var_decls] == ["out", "v0", "lambda", "is_target"]
    assert {"expand", "v0", "lambda.cmd2", "expand.cmd1"} <= set(m.action_names)


@pytest.mark.parametrize("seed", range(0, 300, 7))
def test_generated_code_is_clean_on_the_corpus(seed):
    assert_clean_source(compile_model(parse_model(random_model(seed))).source)


@pytest.mark.parametrize("name", ["fig1", "mutex", "sync2", "grid"])
def test_generated_code_is_clean_on_bundled_models(name):
    assert_clean_source(compile_model(parse_model(fixtures.model_text(name))).source)


# --------------------------------------------------------------------------
# Fuzz over model text: any input gives an Mdp or a ModelError.

SEEDS = [fixtures.model_text("fig1"), fixtures.model_text("sync2"), HOSTILE,
         random_model(3), random_model(8), random_model(21)]
PIECES = ["module", "endmodule", "m", "x", "y", "lambda", "None", ":", "[", "]", "..",
          "init", ";", "->", "+", "-", "*", "(", ")", "'", "=", "!=", "<", "<=", ">",
          ">=", "&", "|", "!", ",", "min", "max", "true", "false", "target", "const",
          "0", "1", "3", "0.5", "1.5", "-2", "9223372036854775808", "[a]", "x'=x+1",
          "\n", "//", "#", "(((((", ")))))"]


@st.composite
def model_texts(draw):
    if draw(st.integers(0, 3)):
        toks = re.findall(r"\S+|\n", draw(st.sampled_from(SEEDS)))
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(toks)))
            op = draw(st.sampled_from(["delete", "insert", "replace"]))
            piece = draw(st.sampled_from(PIECES) | st.text(max_size=4))
            if op == "insert" or i == len(toks):
                toks.insert(i, piece)
            elif op == "delete":
                del toks[i]
            else:
                toks[i] = piece
        return " ".join(toks)
    return draw(st.text(max_size=60) | st.lists(st.sampled_from(PIECES), max_size=40).map(" ".join))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(model_texts())
def test_any_model_text_gives_an_mdp_or_a_model_error(text):
    try:
        m = load_model(text, state_cap=64)
    except ModelError:
        return
    assert isinstance(m, Mdp)
    assert_same_model(m, build_dict(parse_model(text), state_cap=64))


# --------------------------------------------------------------------------
# Validation on arrays reports what the per-state loop reported.

def _broken(seed: int) -> DictModel:
    """A random valid model with one to three random defects."""
    rng = random.Random(seed)
    m = as_tuples(random_mdp(seed))
    states = [list(vec) for vec in m.states]
    actions = [list(acts) for acts in m.actions]
    target = set(m.target)
    for _ in range(rng.randint(1, 3)):
        s = rng.randrange(len(states))
        kind = rng.randrange(8)
        i = rng.randrange(len(actions[s])) if actions[s] else None
        a = actions[s][i] if i is not None else None
        if kind == 0:
            states[s][0] = rng.choice([-1, len(states) + 2])
        elif kind == 1:
            actions[s] = []
        elif kind == 6 or not (a and a.succs):
            target.add(s)
        elif kind == 2:
            actions[s][i] = a._replace(probs=(a.probs[0] / 2,) + a.probs[1:])
        elif kind == 3:
            half = a.probs[0] / 2  # a repeated successor, the mass still summing to 1
            actions[s][i] = a._replace(succs=a.succs + a.succs[:1],
                                       probs=(half,) + a.probs[1:] + (half,))
        elif kind == 4:
            actions[s][i] = a._replace(succs=(len(states) + rng.randint(0, 3),) + a.succs[1:])
        elif kind == 5:
            fresh = min(set(range(len(states) + 1)) - set(a.succs))  # zero mass
            actions[s][i] = a._replace(succs=a.succs + (fresh,), probs=a.probs + (0.0,))
        else:
            actions[s][i] = a._replace(succs=(), probs=())
    return DictModel(m.var_decls, tuple(map(tuple, states)), tuple(map(tuple, actions)),
                     m.initial, frozenset(target))


@pytest.mark.parametrize("seed", range(150))
def test_validate_matches_per_state_loop(seed):
    model = _broken(seed)
    try:
        validate_dict(model)
        want = None
    except MdpError as e:
        want = str(e)
    try:
        mdp_of(*model).validate()
        got = None
    except MdpError as e:
        got = str(e)
    assert got == want
