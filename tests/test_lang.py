"""Grammar, static checks and error positions of the modelling language."""

from fractions import Fraction

import pytest

from mdpdistill.expr import compile_expr
from mdpdistill.lang import ModelError, parse_model, parse_predicate

GOOD = """
const K = 3;
// a comment
module m
  x : [0..5] init 0;   # another comment
  [go] x < K -> 0.5:(x'=x+1) + 0.5:(x'=0);
  [] x = K -> 1:(x'=5);
  [] x = 5 -> 1:(x'=5);
module
endmodule
target x = 5
""".replace("module\nendmodule", "endmodule")


def test_parse_good_model():
    ast = parse_model(GOOD)
    assert [m.name for m in ast.modules] == ["m"]
    m = ast.modules[0]
    assert [(v.name, v.lo, v.hi, v.init) for v in m.variables] == [("x", 0, 5, 0)]
    assert [c.label for c in m.commands] == ["go", None, None]
    # unlabelled commands get synthesized names keyed by declaration index
    assert [c.name for c in m.commands] == ["go", "m.cmd1", "m.cmd2"]
    assert ast.labels == frozenset({"go"})


def test_constants_substituted():
    ast = parse_model(GOOD)
    guard = ast.modules[0].commands[0].guard
    assert compile_expr(guard, ["x"])(2) is True
    assert compile_expr(guard, ["x"])(3) is False  # K was replaced by 3


def test_probabilities_are_fractions():
    ast = parse_model("module m x:[0..1] init 0; [] x=0 -> 0.1:(x'=1) + 0.9:(x'=0); endmodule target x=1")
    probs = [a.prob for a in ast.modules[0].commands[0].alts]
    assert probs == [Fraction(1, 10), Fraction(9, 10)]
    assert sum(probs) == 1


def test_multi_update_alternative():
    src = """
    module m
      x:[0..1] init 0; y:[0..1] init 0;
      [] x=0 -> 0.5:(x'=1)&(y'=1) + 0.5:(x'=1);
    endmodule
    target x=1
    """
    ast = parse_model(src)
    alts = ast.modules[0].commands[0].alts
    assert [t for t, _ in alts[0].updates] == ["x", "y"]
    assert [t for t, _ in alts[1].updates] == ["x"]


@pytest.mark.parametrize(
    "src,fragment",
    [
        ("module m x:[0..1] init 2; endmodule target x=1", "init 2 outside"),
        ("module m x:[0..1] init 0; x:[0..1] init 0; [] x=0 -> 1:(x'=1); endmodule target x=1",
         "duplicate variable"),
        ("module m x:[0..1] init 0; [] x=0 -> 0.5:(x'=1); endmodule target x=1",
         "probabilities sum to"),
        ("module m x:[0..1] init 0; [] x=0 -> 0:(x'=1) + 1:(x'=0); endmodule target x=1",
         "non-positive probability"),
        ("module m x:[0..1] init 0; [] x=0 -> 1:(y'=1); endmodule target x=1",
         "undeclared variable"),
        ("module m x:[0..1] init 0; [] x=0 -> 1:(x'=1)&(x'=0); endmodule target x=1",
         "assigned twice"),
        ("module m x:[0..1] init 0; [] x -> 1:(x'=1); endmodule target x=1",
         "guard must be boolean"),
        ("module m x:[0..1] init 0; [] x=0 -> 1:(x'=x<1); endmodule target x=1",
         "must be integer-valued"),
        ("module m x:[0..1] init 0; [] x=0 -> 1:(x'=1); endmodule target x",
         "target must be a boolean"),
        ("module m x:[0..1] init 0; [] x=0 -> 1:(x'=1); endmodule", "target"),
        ("const K = 1; const K = 2; module m x:[0..1] init 0; [] x=0 -> 1:(x'=1); endmodule target x=1",
         "duplicate constant"),
        ("const x = 1; module m x:[0..1] init 0; [] x=0 -> 1:(x'=1); endmodule target x=1",
         "duplicate variable"),
        # K resolves in the update, so the first error is the integer target
        ("const K = 1; module m x:[0..1] init 0; [] x=0 -> 1:(x'=K); endmodule target K",
         "target must be a boolean"),
    ],
)
def test_static_errors(src, fragment):
    with pytest.raises(ModelError, match=fragment):
        parse_model(src)


def test_update_ownership_across_modules():
    src = """
    module a x:[0..1] init 0; [s] x=0 -> 1:(y'=1); endmodule
    module b y:[0..1] init 0; [s] y=0 -> 1:(y'=1); endmodule
    target y=1
    """
    with pytest.raises(ModelError, match="owned by"):
        parse_model(src)


def test_error_carries_line_number():
    src = "module m\n  x:[0..1] init 0;\n  [] x=0 -> 0.3:(x'=1);\nendmodule\ntarget x=1"
    with pytest.raises(ModelError) as ei:
        parse_model(src)
    assert ei.value.line == 3
    assert "line 3" in str(ei.value)


def test_syntax_error_position():
    with pytest.raises(ModelError) as ei:
        parse_model("module m x:[0..1] init 0; [] x=0 -> 1:(x'=); endmodule target x=1")
    assert ei.value.line == 1


def test_min_max_and_arith():
    src = """
    module m
      x:[0..9] init 4;
      [] true -> 0.5:(x'=min(x+2, 9)) + 0.5:(x'=max(x-2, 0));
    endmodule
    target x=9
    """
    ast = parse_model(src)
    alt0, alt1 = ast.modules[0].commands[0].alts
    assert compile_expr(alt0.updates[0][1], ["x"])(8) == 9
    assert compile_expr(alt1.updates[0][1], ["x"])(1) == 0


def test_parse_predicate():
    p = parse_predicate("x = W & y > 1", ["x", "y"], consts={"W": 4})
    assert compile_expr(p, ["x", "y"])(4, 2) is True
    assert compile_expr(p, ["x", "y"])(4, 1) is False
    with pytest.raises(ModelError):
        parse_predicate("x + 1", ["x"])  # not boolean
    with pytest.raises(ModelError):
        parse_predicate("z = 0", ["x"])  # unknown variable


def test_negation_and_or():
    p = parse_predicate("!(x = 0) | x = 2", ["x"])
    assert compile_expr(p, ["x"])(1) is True
    assert compile_expr(p, ["x"])(0) is False
    assert compile_expr(p, ["x"])(2) is True
