"""Integer/boolean expression trees used by guards, updates and target predicates.

Expressions are not interpreted: `Expr.py` writes each one as Python source
over positional slots v0, v1, ..., and `define` compiles that source once.
Python ints do not overflow, and evaluation is total on type-correct
expressions; there is no division.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Tuple


class ExprError(Exception):
    """Type error or unknown identifier inside an expression."""


@dataclass(frozen=True)
class Expr:
    # binding strength of the node's Python source, as in Python's grammar:
    # or 1, and 2, not 3, comparisons 4, + - 5, * 6, unary minus 7, atoms 8
    prec = 8

    def py(self, slot: Mapping[str, str]) -> str:
        """Python source of the expression; `slot` names each variable's value."""
        raise NotImplementedError


def _operand(e: Expr, slot: Mapping[str, str], prec: int) -> str:
    src = e.py(slot)
    return src if e.prec >= prec else f"({src})"


@dataclass(frozen=True)
class IntLit(Expr):
    value: int

    @property
    def prec(self):
        return 8 if self.value >= 0 else 7

    def py(self, slot):
        return repr(int(self.value))

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool

    def py(self, slot):
        return "True" if self.value else "False"

    def __str__(self):
        return "true" if self.value else "false"


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def py(self, slot):
        return slot[self.name]

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr
    prec = 7

    def py(self, slot):
        return "-" + _operand(self.arg, slot, 7)

    def __str__(self):
        return f"-{self.arg}"


@dataclass(frozen=True)
class Arith(Expr):
    op: str  # one of + - *
    left: Expr
    right: Expr

    @property
    def prec(self):
        return 6 if self.op == "*" else 5

    def py(self, slot):
        # left-associative: only a right operand of equal strength needs parentheses
        return (f"{_operand(self.left, slot, self.prec)} {self.op} "
                f"{_operand(self.right, slot, self.prec + 1)}")

    def __str__(self):
        return f"({self.left}{self.op}{self.right})"


@dataclass(frozen=True)
class MinMax(Expr):
    op: str  # "min" or "max"
    args: Tuple[Expr, ...]

    def py(self, slot):
        return f"{self.op}({', '.join(a.py(slot) for a in self.args)})"

    def __str__(self):
        return f"{self.op}({','.join(str(a) for a in self.args)})"


_PY_CMP = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


@dataclass(frozen=True)
class Cmp(Expr):
    op: str
    left: Expr
    right: Expr
    prec = 4

    def py(self, slot):
        # both operands bind tighter, so comparisons never chain
        return f"{_operand(self.left, slot, 5)} {_PY_CMP[self.op]} {_operand(self.right, slot, 5)}"

    def __str__(self):
        return f"{self.left}{self.op}{self.right}"


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr
    prec = 3

    def py(self, slot):
        return "not " + _operand(self.arg, slot, 3)

    def __str__(self):
        return f"!({self.arg})"


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr
    prec = 2

    def py(self, slot):
        return f"{_operand(self.left, slot, 2)} and {_operand(self.right, slot, 3)}"

    def __str__(self):
        return f"({self.left}&{self.right})"


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr
    prec = 1

    def py(self, slot):
        return f"{_operand(self.left, slot, 1)} or {_operand(self.right, slot, 2)}"

    def __str__(self):
        return f"({self.left}|{self.right})"


def define(name: str, arity: int, body: Sequence[str], *, outputs: Sequence[str] = (),
           scope: Mapping[str, Callable] = {}) -> Callable:
    """Compile a function of `arity` positional values v0, v1, ... from body lines.

    The body is generated from expressions, so it holds only slot names,
    integer literals, operators and the builtins `min` and `max`, plus the
    names in `scope`; it runs with no other builtins. Parameters named in
    `outputs` come before the slots. The function's text is kept as its
    `source`.
    """
    params = ", ".join([*outputs, *(f"v{i}" for i in range(arity))])
    src = "".join(f"{line}\n" for line in [f"def {name}({params}):"]
                  + ["    " + line for line in body])
    scope = {"__builtins__": {}, "min": min, "max": max, **scope}
    exec(compile(src, f"<{name}>", "exec"), scope)
    fn = scope.pop(name)  # scope is its globals: leaving it there is a cycle
    fn.source = src
    return fn


def compile_expr(e: Expr, names: Sequence[str]) -> Callable:
    """`e` as a Python function of the variables' values, in the order of `names`."""
    slot = {n: f"v{i}" for i, n in enumerate(names)}
    return define("expr", len(names), [f"return {e.py(slot)}"])


def infer_type(e: Expr, var_names) -> str:
    """Return "int" or "bool"; raise ExprError on ill-typed subterms."""
    if isinstance(e, (IntLit,)):
        return "int"
    if isinstance(e, BoolLit):
        return "bool"
    if isinstance(e, Var):
        if e.name not in var_names:
            raise ExprError(f"unknown identifier '{e.name}'")
        return "int"
    if isinstance(e, Neg):
        _want(e.arg, "int", var_names)
        return "int"
    if isinstance(e, Arith):
        _want(e.left, "int", var_names)
        _want(e.right, "int", var_names)
        return "int"
    if isinstance(e, MinMax):
        for a in e.args:
            _want(a, "int", var_names)
        return "int"
    if isinstance(e, Cmp):
        _want(e.left, "int", var_names)
        _want(e.right, "int", var_names)
        return "bool"
    if isinstance(e, Not):
        _want(e.arg, "bool", var_names)
        return "bool"
    if isinstance(e, (And, Or)):
        _want(e.left, "bool", var_names)
        _want(e.right, "bool", var_names)
        return "bool"
    raise ExprError(f"unhandled expression node {e!r}")


def _want(e: Expr, ty: str, var_names):
    got = infer_type(e, var_names)
    if got != ty:
        raise ExprError(f"expected {ty} expression, got {got}: {e}")
