"""State-space construction and the flat explicit format."""

import pytest

from mdpdistill import core, fixtures
from mdpdistill.build import export_flat, load_model, parse_flat
from mdpdistill.core import TAU
from mdpdistill.lang import ModelError

from oracles import as_tuples


def test_fig1_bfs_numbering_frozen(fig1):
    # breadth-first order from the initial valuation, frozen for good
    assert as_tuples(fig1).states == (
        (0, 1), (3, 1), (1, 2), (4, 1), (4, 2), (5, 2), (5, 1), (6, 1), (6, 2))
    assert fig1.initial == 0
    assert as_tuples(fig1).target == frozenset({1})
    assert fig1.n_states == 9


def test_target_states_absorbing(fig1):
    (a,) = as_tuples(fig1).actions[1]
    assert a.attr.name == TAU and a.attr.module == 0
    assert a.succs == (1,) and a.probs == (1.0,)


def test_single_module_label_owned_by_module(fig1):
    # labels declared by exactly one module do not synchronize
    assert all(a.attr.module == 1 for a in as_tuples(fig1).actions[0])
    assert fig1.module_count == 1


def test_sync_combinations(sync2):
    # both modules declare [step] with two enabled commands at interior
    # counters, so interior states enumerate all four combinations
    assert sync2.module_count == 2
    interior = next(
        s for s, vec in enumerate(as_tuples(sync2).states) if vec == (1, 1))
    attrs = [a.attr for a in as_tuples(sync2).actions[interior]]
    assert len(attrs) == 4
    assert all(at.name == "step" and at.module == 0 for at in attrs)


def test_sync_joint_update_reads_source_state():
    # module b copies x while module a flips it; a joint step must read
    # the pre-step value of x, reaching (1, 0) rather than (1, 1)
    src = """
    module a x:[0..1] init 0; [s] x=0 -> 1:(x'=1); endmodule
    module b y:[0..1] init 0; [s] true -> 1:(y'=x); endmodule
    target x=1 & y=0
    """
    t = as_tuples(load_model(src))
    assert (1, 0) in t.states
    assert (1, 1) not in t.states
    assert t.target == frozenset({t.states.index((1, 0))})


def test_duplicate_successor_mass_merged():
    src = """
    module m x:[0..2] init 0;
      [] x=0 -> 0.5:(x'=1) + 0.25:(x'=1) + 0.25:(x'=2);
      [] x=1 -> 1:(x'=1);
    endmodule
    target x=2
    """
    m = load_model(src)
    (a,) = as_tuples(m).actions[0]
    assert a.succs == (1, 2)
    assert a.probs == (0.75, 0.25)


def test_unlabelled_commands_get_module_names():
    src = """
    module m x:[0..2] init 0;
      [] x=0 -> 1:(x'=1);
      [] x=1 -> 1:(x'=2);
    endmodule
    target x=2
    """
    acts = as_tuples(load_model(src)).actions
    assert acts[0][0].attr.name == "m.cmd0"
    assert acts[1][0].attr.name == "m.cmd1"
    assert all(a.attr.module == 1 for s in (0, 1) for a in acts[s])


def test_deadlock_reported_with_valuation():
    src = "module m x:[0..2] init 0; [] x=0 -> 1:(x'=1); endmodule target x=2"
    with pytest.raises(ModelError, match=r"deadlock.*'x': 1"):
        load_model(src)


def test_update_out_of_range():
    src = "module m x:[0..2] init 0; [] x<=2 -> 1:(x'=x+5); endmodule target x=2"
    with pytest.raises(ModelError, match="outside"):
        load_model(src)


def test_state_cap():
    src = """
    module m x:[0..99] init 0;
      [] x<99 -> 1:(x'=x+1);
      [] x=99 -> 1:(x'=99);
    endmodule
    target x=99
    """
    with pytest.raises(ModelError, match="state cap"):
        load_model(src, state_cap=10)
    assert load_model(src, state_cap=100).n_states == 100


def test_flat_round_trip_is_byte_stable(fig1):
    text = fixtures.model_text("fig1.flat")
    m = parse_flat(text)
    got, want = as_tuples(m), as_tuples(fig1)
    assert got.states == want.states
    assert m.initial == fig1.initial and got.target == want.target
    for row_a, row_b in zip(want.actions, got.actions):
        assert row_a == row_b
    assert export_flat(m) == text
    assert export_flat(fig1) == text


def test_sniff_both_formats(fig1):
    flat = fixtures.model_text("fig1.flat")
    guarded = fixtures.model_text("fig1")
    want = as_tuples(fig1).states
    assert as_tuples(load_model(flat)).states == want
    assert as_tuples(load_model(guarded)).states == want
    # leading comments do not confuse the sniffer
    assert as_tuples(load_model("# c\n" + flat)).states == want
    assert as_tuples(fixtures.load("fig1.flat")).states == want


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("state 0 0\ninit 0", "missing vars"),
        ("vars x:0..1\nstate 0 0\nstate 1 1\nact 0 a 1 1.0 1\nact 1 t 0 1.0 1",
         "exactly one init"),
        ("vars x:0..1\nstate 0 0\nstate 2 1\nact 0 a 1 1.0 0\ninit 0",
         "ids must be exactly"),
        ("vars x:0..1\nstate 0 0 7\ninit 0", "wrong vector width"),
        ("vars x:0..1\nstate 0 0\nact 0 a 1 1.0 3\ninit 0", "unknown state"),
        ("vars x:0..1\nstate 0 0\nact 0 a 1 1.0\ninit 0", "pairs"),
        ("vars x:0..1\nstate 0 0\nwhat 1\ninit 0", "unknown directive"),
        ("vars x:0..1\nstate 0 0\nstate 0 1\ninit 0", "duplicate state"),
        ("vars x:0..1\nstate 0 0\nact 0 a 1 1.0 0\ninit 0\ntarget 9",
         "target references unknown state"),
        ("vars x:0..1\nstate 0 0\nstate 1 1\nact 0 a 1 nan 1\nact 1 t 0 1.0 1\ninit 0",
         "sum to nan"),
        ("vars x:0..2\nstate 0 0\nstate 1 1\nstate 2 2\nact 0 go -1 1.0 2\n"
         "act 1 stay 1 1.0 1\nact 2 t 0 1.0 2\ninit 0\ntarget 2",
         r"^negative module -1 \(line 5\)$"),
    ],
)
def test_flat_errors(text, fragment):
    with pytest.raises(ModelError, match=fragment):
        parse_flat(text)


def test_flat_validates_semantics():
    # structural checks from the core validator surface as ModelError
    bad = "vars x:0..1\nstate 0 0\nstate 1 1\nact 0 a 1 0.5 1\nact 1 t 0 1.0 1\ninit 0"
    with pytest.raises(ModelError, match="sum"):
        parse_flat(bad)


def test_flat_row_sum_tolerance(monkeypatch):
    # a row 1e-6 off 1 is refused at core.ROW_SUM_TOL and passes a wider one
    text = ("vars x:0..1\nstate 0 0\nstate 1 1\nact 0 a 1 1.000001 1\n"
            "act 1 t 0 1.0 1\ninit 0\ntarget 1\n")
    with pytest.raises(ModelError, match="action a: probabilities sum to 1.000001"):
        parse_flat(text)
    monkeypatch.setattr(core, "ROW_SUM_TOL", 1e-5)
    assert parse_flat(text).n_states == 2


def test_flat_comments_and_blank_lines():
    text = ("# header\n\nvars x:0..1\n"
            "state 0 0 # initial\nstate 1 1\n"
            "act 0 go 1 1.0 1\nact 1 stay 1 1.0 1\n"
            "init 0\ntarget 1\n")
    m = parse_flat(text)
    assert m.n_states == 2
    assert as_tuples(m).target == frozenset({1})
    # target line rewrites the action row to the absorbing placeholder
    assert as_tuples(m).actions[1][0].attr.name == TAU
