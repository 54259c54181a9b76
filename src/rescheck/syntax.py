"""Abstract syntax for the reduced ReScript language and its security types.

Expressions and types are immutable dataclasses. Source positions ride along
on every expression node but are excluded from equality, so structural
comparison (and the parse/pretty round trip) ignores where a node came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


@dataclass(frozen=True)
class Pos:
    """1-based line/column of a token in the source text."""

    line: int
    col: int


# ---------------------------------------------------------------------------
# Security types


class SecType:
    """Base class for security types: low, high, (), ref t, (t -> t @ t)."""

    __slots__ = ()


# The three levels have no fields, so the dataclass hash would give each of
# them hash(()). Types are set and dict keys throughout, and leaves that
# collide make nearly every type hash the same, so each level hashes to its
# own integer. Integers, unlike strings, hash the same in every process.


@dataclass(frozen=True)
class Low(SecType):
    def __hash__(self) -> int:
        return 1


@dataclass(frozen=True)
class High(SecType):
    def __hash__(self) -> int:
        return 2


@dataclass(frozen=True)
class Empty(SecType):
    """The absence of a write effect, written ()."""

    def __hash__(self) -> int:
        return 3


@dataclass(frozen=True)
class RefType(SecType):
    inner: SecType


@dataclass(frozen=True)
class FunType(SecType):
    param: SecType
    result: SecType
    latent: SecType  # effect the body may perform when applied


LOW = Low()
HIGH = High()
EMPTY = Empty()


def is_base(t: SecType) -> bool:
    """True for the two base levels low and high."""
    return isinstance(t, (Low, High))


def is_effect(t: SecType) -> bool:
    """Effects are base levels or the empty effect ()."""
    return isinstance(t, (Low, High, Empty))


def well_formed(t: SecType) -> bool:
    """Reject types the surface language cannot express.

    References hold base-level values only; latent effects are levels or ().
    """
    match t:
        case Low() | High() | Empty():
            return True
        case RefType(inner):
            return is_base(inner)
        case FunType(param, result, latent):
            return well_formed(param) and well_formed(result) and is_effect(latent)
        case _:
            return False


def _type_text(t: SecType, low: str, high: str) -> str:
    match t:
        case Low():
            return low
        case High():
            return high
        case Empty():
            return "()"
        case RefType(inner):
            return f"ref {_type_text(inner, low, high)}"
        case FunType(param, result, latent):
            return (
                f"({_type_text(param, low, high)} -> {_type_text(result, low, high)}"
                f" @ {_type_text(latent, low, high)})"
            )
    raise TypeError(f"not a SecType: {t!r}")


def pretty_type(t: SecType) -> str:
    """Surface syntax of a type, re-parseable by parser.parse_type."""
    return _type_text(t, "low", "high")


def display_type(t: SecType) -> str:
    """Capitalised rendering used in diagnostics, e.g. 'Low' or 'ref High'."""
    return _type_text(t, "Low", "High")


# ---------------------------------------------------------------------------
# Expressions


class BinOp(Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    EQ = "=="
    LT = "<"
    GT = ">"


class Expr:
    __slots__ = ()


def _pos_field():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Num(Expr):
    """Integer literal; the digits are kept as written."""

    literal: str
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class Bool(Expr):
    value: bool
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class Unit(Expr):
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class Var(Expr):
    name: str
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class Bop(Expr):
    op: BinOp
    lhs: Expr
    rhs: Expr
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class Let(Expr):
    """let x = e, optionally with a base-level annotation: let x: high = e."""

    name: str
    annot: SecType | None
    rhs: Expr
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class If(Expr):
    cond: Expr
    then: Expr
    orelse: Expr
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class While(Expr):
    cond: Expr
    body: Expr
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class For(Expr):
    """for x in e1 to e2 { e3 }; both bounds inclusive."""

    var: str
    start: Expr
    stop: Expr
    body: Expr
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class Seq(Expr):
    first: Expr
    second: Expr
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class Func(Expr):
    """(x: t) => e; the parameter annotation is mandatory."""

    param: str
    annot: SecType
    body: Expr
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class App(Expr):
    fn: Expr
    arg: Expr
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class Ref(Expr):
    inner: Expr
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class Deref(Expr):
    name: str
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class Assign(Expr):
    name: str
    rhs: Expr
    pos: Pos | None = _pos_field()


# ---------------------------------------------------------------------------
# Pretty printing
#
# Precedence levels, loosest to tightest. A child whose level is below the
# level its position requires gets wrapped in parentheses; parentheses may
# contain sequences, so this is safe for every node.

_SEQ, _STMT, _CMP, _ADD, _MUL, _UNARY, _APP, _ATOM = range(8)

_CMP_OPS = (BinOp.EQ, BinOp.LT, BinOp.GT)
_ADD_OPS = (BinOp.ADD, BinOp.SUB)


def _prec(e: Expr) -> int:
    match e:
        case Seq():
            return _SEQ
        case Let() | Assign() | Func():
            return _STMT
        case Bop(op, _, _):
            if op in _CMP_OPS:
                return _CMP
            if op in _ADD_OPS:
                return _ADD
            return _MUL
        case App():
            return _APP
        case Num(literal) if literal.startswith("-"):
            return _UNARY
        case _:
            return _ATOM


def _fmt(e: Expr, level: int) -> str:
    text = _render(e)
    if _prec(e) < level:
        return f"({text})"
    return text


def _render(e: Expr) -> str:
    match e:
        case Num(literal):
            return literal
        case Bool(value):
            return "true" if value else "false"
        case Unit():
            return "()"
        case Var(name):
            return name
        case Bop(op, lhs, rhs):
            if op in _CMP_OPS:
                return f"{_fmt(lhs, _ADD)} {op.value} {_fmt(rhs, _ADD)}"
            if op in _ADD_OPS:
                return f"{_fmt(lhs, _ADD)} {op.value} {_fmt(rhs, _MUL)}"
            return f"{_fmt(lhs, _MUL)} {op.value} {_fmt(rhs, _UNARY)}"
        case Let(name, annot, rhs):
            if annot is None:
                return f"let {name} = {_fmt(rhs, _STMT)}"
            return f"let {name}: {pretty_type(annot)} = {_fmt(rhs, _STMT)}"
        case If(cond, then, orelse):
            return (
                f"if {_fmt(cond, _CMP)} {{ {_fmt(then, _SEQ)} }}"
                f" else {{ {_fmt(orelse, _SEQ)} }}"
            )
        case While(cond, body):
            return f"while {_fmt(cond, _CMP)} {{ {_fmt(body, _SEQ)} }}"
        case For(var, start, stop, body):
            return (
                f"for {var} in {_fmt(start, _CMP)} to {_fmt(stop, _CMP)}"
                f" {{ {_fmt(body, _SEQ)} }}"
            )
        case Seq(first, second):
            return f"{_fmt(first, _STMT)}; {_fmt(second, _SEQ)}"
        case Func(param, annot, body):
            return f"({param}: {pretty_type(annot)}) => {_fmt(body, _STMT)}"
        case App(fn, arg):
            return f"{_fmt(fn, _APP)} {_fmt(arg, _ATOM)}"
        case Ref(inner):
            return f"ref({_fmt(inner, _SEQ)})"
        case Deref(name):
            return f"!{name}"
        case Assign(name, rhs):
            return f"{name} := {_fmt(rhs, _STMT)}"
    raise TypeError(f"not an Expr: {e!r}")


def pretty(e: Expr) -> str:
    """Render an expression as parseable source.

    Top-level sequences print one statement per line; nested sequences use
    semicolons. parse(pretty(e)) reconstructs e exactly (positions aside).
    """
    if isinstance(e, Seq):
        return _fmt(e.first, _STMT) + "\n" + pretty(e.second)
    return _fmt(e, _STMT)
