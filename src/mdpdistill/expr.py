"""Integer/boolean expression trees used by guards, updates and target predicates.

Expressions are evaluated over valuations mapping variable names to ints.
Evaluation is total on type-correct expressions; there is no division.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple


class ExprError(Exception):
    """Type error or unknown identifier inside an expression."""


@dataclass(frozen=True)
class Expr:
    def eval(self, env: Mapping[str, int]):
        raise NotImplementedError


@dataclass(frozen=True)
class IntLit(Expr):
    value: int

    def eval(self, env):
        return self.value

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool

    def eval(self, env):
        return self.value

    def __str__(self):
        return "true" if self.value else "false"


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def eval(self, env):
        return env[self.name]

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def eval(self, env):
        return -self.arg.eval(env)

    def __str__(self):
        return f"-{self.arg}"


@dataclass(frozen=True)
class Arith(Expr):
    op: str  # one of + - *
    left: Expr
    right: Expr

    def eval(self, env):
        a = self.left.eval(env)
        b = self.right.eval(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        return a * b

    def __str__(self):
        return f"({self.left}{self.op}{self.right})"


@dataclass(frozen=True)
class MinMax(Expr):
    op: str  # "min" or "max"
    args: Tuple[Expr, ...]

    def eval(self, env):
        vals = [a.eval(env) for a in self.args]
        return min(vals) if self.op == "min" else max(vals)

    def __str__(self):
        return f"{self.op}({','.join(str(a) for a in self.args)})"


_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Cmp(Expr):
    op: str
    left: Expr
    right: Expr

    def eval(self, env):
        return _CMP[self.op](self.left.eval(env), self.right.eval(env))

    def __str__(self):
        return f"{self.left}{self.op}{self.right}"


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr

    def eval(self, env):
        return not self.arg.eval(env)

    def __str__(self):
        return f"!({self.arg})"


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr

    def eval(self, env):
        return self.left.eval(env) and self.right.eval(env)

    def __str__(self):
        return f"({self.left}&{self.right})"


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr

    def eval(self, env):
        return self.left.eval(env) or self.right.eval(env)

    def __str__(self):
        return f"({self.left}|{self.right})"


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
