"""Parser for the guarded-command modelling language.

Syntax (PRISM-inspired):

    model   := const* module+ "target" expr
    const   := "const" ID "=" INT ";"
    module  := "module" ID vardecl* command* "endmodule"
    vardecl := ID ":" "[" INT ".." INT "]" "init" INT ";"
    command := "[" ID? "]" expr "->" alt ("+" alt)* ";"
    alt     := NUMBER ":" "(" update ")" ("&" "(" update ")")*
    update  := ID "'" "=" expr

Comments run from "//" or "#" to end of line.  Labelled commands synchronize
across all modules declaring the same label; unlabelled commands act alone.
parse_model performs all static checks (duplicate variables, probability
sums, update ownership, typing) and raises ModelError with a position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from .expr import (And, Arith, BoolLit, Cmp, Expr, ExprError, IntLit, MinMax,
                   Neg, Not, Or, Var, infer_type)


class ModelError(Exception):
    """Syntax or semantic error in a model, with source position."""

    def __init__(self, msg, line=None, col=None):
        self.line = line
        self.col = col
        where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")" if line else ""
        super().__init__(msg + where)


@dataclass
class VarDecl:
    name: str
    lo: int
    hi: int
    init: int
    line: int = 0


@dataclass
class Alternative:
    prob: Fraction
    updates: List[Tuple[str, Expr]]


@dataclass
class Command:
    label: Optional[str]  # None for an unlabelled (solo) command
    guard: Expr
    alts: List[Alternative]
    line: int = 0
    name: str = ""  # filled in by the validator: label or synthesized module.cmdK


@dataclass
class ModuleAst:
    name: str
    variables: List[VarDecl]
    commands: List[Command]


@dataclass
class ModelAst:
    constants: List[Tuple[str, int]]
    modules: List[ModuleAst]
    target: Expr
    labels: frozenset = field(default_factory=frozenset)

    def var_decls(self):
        out = []
        for m in self.modules:
            out.extend(m.variables)
        return out


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>(//|\#)[^\n]*)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>->|\.\.|<=|>=|!=|[\[\]():;'=<>&|!+\-*,])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"module", "endmodule", "init", "target", "const", "min", "max", "true", "false"}


@dataclass
class _Tok:
    kind: str  # "number" | "id" | "sym" | "eof"
    text: str
    line: int
    col: int


def _tokenize(src: str) -> List[_Tok]:
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise ModelError(f"unexpected character {src[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            toks.append(_Tok(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: List[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg):
        t = self.peek()
        raise ModelError(msg + (f", got {t.text!r}" if t.kind != "eof" else ", got end of input"),
                         t.line, t.col)

    def expect(self, text):
        t = self.peek()
        if t.text != text:
            self.fail(f"expected {text!r}")
        return self.next()

    def accept(self, text):
        if self.peek().text == text:
            self.next()
            return True
        return False

    def ident(self, what="identifier"):
        t = self.peek()
        if t.kind != "id" or t.text in _KEYWORDS:
            self.fail(f"expected {what}")
        return self.next().text

    def integer(self):
        neg = self.accept("-")
        t = self.peek()
        if t.kind != "number" or "." in t.text:
            self.fail("expected integer")
        v = int(self.next().text)
        return -v if neg else v

    def number(self) -> Fraction:
        t = self.peek()
        if t.kind != "number":
            self.fail("expected number")
        self.next()
        return Fraction(t.text)

    # -- model structure ---------------------------------------------------

    def model(self) -> ModelAst:
        constants = []
        while self.peek().text == "const":
            self.next()
            name = self.ident("constant name")
            self.expect("=")
            constants.append((name, self.integer()))
            self.expect(";")
        modules = []
        while self.peek().text == "module":
            modules.append(self.module())
        if not modules:
            self.fail("expected 'module'")
        self.expect("target")
        target = self.expr()
        self.accept(";")
        if self.peek().kind != "eof":
            self.fail("expected end of model")
        labels = frozenset(c.label for m in modules for c in m.commands if c.label)
        return ModelAst(constants, modules, target, labels)

    def module(self) -> ModuleAst:
        self.expect("module")
        name = self.ident("module name")
        variables = []
        while self.peek().kind == "id" and self.peek().text not in _KEYWORDS \
                and self.toks[self.i + 1].text == ":":
            variables.append(self.vardecl())
        commands = []
        while self.peek().text == "[":
            commands.append(self.command())
        self.expect("endmodule")
        return ModuleAst(name, variables, commands)

    def vardecl(self) -> VarDecl:
        t = self.peek()
        name = self.ident("variable name")
        self.expect(":")
        self.expect("[")
        lo = self.integer()
        self.expect("..")
        hi = self.integer()
        self.expect("]")
        self.expect("init")
        init = self.integer()
        self.expect(";")
        return VarDecl(name, lo, hi, init, line=t.line)

    def command(self) -> Command:
        t = self.expect("[")
        label = None
        if self.peek().kind == "id" and self.peek().text not in _KEYWORDS:
            label = self.next().text
        self.expect("]")
        guard = self.expr()
        self.expect("->")
        alts = [self.alternative()]
        while self.accept("+"):
            alts.append(self.alternative())
        self.expect(";")
        return Command(label, guard, alts, line=t.line)

    def alternative(self) -> Alternative:
        prob = self.number()
        self.expect(":")
        updates = [self.update()]
        while self.accept("&"):
            updates.append(self.update())
        return Alternative(prob, updates)

    def update(self) -> Tuple[str, Expr]:
        self.expect("(")
        name = self.ident("variable name")
        self.expect("'")
        self.expect("=")
        e = self.expr()
        self.expect(")")
        return name, e

    # -- expressions, loosest binding first --------------------------------

    def expr(self) -> Expr:
        return self.or_expr()

    def or_expr(self) -> Expr:
        e = self.and_expr()
        while self.accept("|"):
            e = Or(e, self.and_expr())
        return e

    def and_expr(self) -> Expr:
        e = self.not_expr()
        while self.accept("&"):
            e = And(e, self.not_expr())
        return e

    def not_expr(self) -> Expr:
        if self.accept("!"):
            return Not(self.not_expr())
        return self.cmp_expr()

    def cmp_expr(self) -> Expr:
        e = self.add_expr()
        t = self.peek().text
        if t in ("=", "!=", "<", "<=", ">", ">="):
            self.next()
            return Cmp(t, e, self.add_expr())
        return e

    def add_expr(self) -> Expr:
        e = self.mul_expr()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            e = Arith(op, e, self.mul_expr())
        return e

    def mul_expr(self) -> Expr:
        e = self.unary_expr()
        while self.peek().text == "*":
            self.next()
            e = Arith("*", e, self.unary_expr())
        return e

    def unary_expr(self) -> Expr:
        if self.accept("-"):
            return Neg(self.unary_expr())
        return self.atom()

    def atom(self) -> Expr:
        t = self.peek()
        if t.text == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "number":
            if "." in t.text:
                self.fail("expected integer expression")
            self.next()
            return IntLit(int(t.text))
        if t.text in ("min", "max"):
            op = self.next().text
            self.expect("(")
            args = [self.expr()]
            while self.accept(","):
                args.append(self.expr())
            self.expect(")")
            if len(args) < 2:
                self.fail(f"{op} needs at least two arguments")
            return MinMax(op, tuple(args))
        if t.text == "true":
            self.next()
            return BoolLit(True)
        if t.text == "false":
            self.next()
            return BoolLit(False)
        if t.kind == "id" and t.text not in _KEYWORDS:
            self.next()
            return Var(t.text)
        self.fail("expected expression")


def _substitute_consts(e: Expr, consts: dict) -> Expr:
    if isinstance(e, Var) and e.name in consts:
        return IntLit(consts[e.name])
    if isinstance(e, Neg):
        return Neg(_substitute_consts(e.arg, consts))
    if isinstance(e, Not):
        return Not(_substitute_consts(e.arg, consts))
    if isinstance(e, Arith):
        return Arith(e.op, _substitute_consts(e.left, consts), _substitute_consts(e.right, consts))
    if isinstance(e, (And, Or, Cmp)):
        return type(e)(*([e.op] if isinstance(e, Cmp) else []),
                       _substitute_consts(e.left, consts), _substitute_consts(e.right, consts))
    if isinstance(e, MinMax):
        return MinMax(e.op, tuple(_substitute_consts(a, consts) for a in e.args))
    return e


def parse_model(src: str) -> ModelAst:
    """Parse and validate model text; returns the AST or raises ModelError."""
    try:
        ast = _Parser(_tokenize(src)).model()
        _validate(ast)
    except RecursionError:
        raise ModelError("expression nested too deeply") from None
    return ast


def parse_predicate(src: str, var_names, consts=None) -> Expr:
    """Parse a standalone boolean expression over the given variables."""
    p = _Parser(_tokenize(src))
    try:
        e = p.expr()
        if p.peek().kind != "eof":
            p.fail("expected end of expression")
        e = _substitute_consts(e, consts or {})
        if infer_type(e, set(var_names)) != "bool":
            raise ModelError("expression must be boolean")
    except ExprError as err:
        raise ModelError(str(err)) from None
    except RecursionError:
        raise ModelError("expression nested too deeply") from None
    return e


def _validate(ast: ModelAst):
    consts = {}
    for name, val in ast.constants:
        if name in consts:
            raise ModelError(f"duplicate constant '{name}'")
        consts[name] = val

    seen = {}
    for m in ast.modules:
        for v in m.variables:
            if v.name in seen or v.name in consts:
                raise ModelError(f"duplicate variable '{v.name}'", v.line)
            if not (v.lo <= v.init <= v.hi) or v.lo > v.hi:
                raise ModelError(
                    f"variable '{v.name}': init {v.init} outside [{v.lo}..{v.hi}]", v.line)
            seen[v.name] = m.name
    var_names = set(seen)

    mod_names = set()
    for m in ast.modules:
        if m.name in mod_names:
            raise ModelError(f"duplicate module '{m.name}'")
        mod_names.add(m.name)

    for m in ast.modules:
        for k, c in enumerate(m.commands):
            c.guard = _substitute_consts(c.guard, consts)
            c.name = c.label if c.label else f"{m.name}.cmd{k}"
            try:
                if infer_type(c.guard, var_names) != "bool":
                    raise ModelError("guard must be boolean", c.line)
            except ExprError as e:
                raise ModelError(f"in guard: {e}", c.line) from None
            total = Fraction(0)
            for alt in c.alts:
                if alt.prob <= 0:
                    raise ModelError(f"non-positive probability {alt.prob}", c.line)
                total += alt.prob
                new_updates = []
                assigned = set()
                for tgt, rhs in alt.updates:
                    if tgt not in var_names:
                        raise ModelError(f"update of undeclared variable '{tgt}'", c.line)
                    if seen[tgt] != m.name:
                        raise ModelError(
                            f"module '{m.name}' updates variable '{tgt}' owned by '{seen[tgt]}'",
                            c.line)
                    if tgt in assigned:
                        raise ModelError(f"variable '{tgt}' assigned twice in one update", c.line)
                    assigned.add(tgt)
                    rhs2 = _substitute_consts(rhs, consts)
                    try:
                        if infer_type(rhs2, var_names) != "int":
                            raise ModelError("update must be integer-valued", c.line)
                    except ExprError as e:
                        raise ModelError(f"in update of '{tgt}': {e}", c.line) from None
                    new_updates.append((tgt, rhs2))
                alt.updates = new_updates
            if abs(total - 1) > Fraction(1, 10**9):
                raise ModelError(f"probabilities sum to {total}, not 1", c.line)

    ast.target = _substitute_consts(ast.target, consts)
    try:
        if infer_type(ast.target, var_names) != "bool":
            raise ModelError("target must be a boolean expression")
    except ExprError as e:
        raise ModelError(f"in target: {e}") from None
