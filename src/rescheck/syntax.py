"""Abstract syntax for the reduced ReScript language and its security types.

Expressions and types are immutable dataclasses. Source positions ride along
on every expression node but are excluded from equality, so structural
comparison (and the parse/pretty round trip) ignores where a node came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


@dataclass(frozen=True, slots=True, init=False)
class Pos:
    """1-based line/column where a node starts in the source text."""

    line: int
    col: int

    def __init__(self, line: int, col: int):
        _set_line(self, line)
        _set_col(self, col)


# The slots' own setters, without the frozen class's __setattr__ path.
_set_line, _set_col = Pos.line.__set__, Pos.col.__set__


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


@dataclass(frozen=True, slots=True)
class Expr:
    pos: Pos | None = field(default=None, compare=False, repr=False, kw_only=True)


_set_pos = Expr.pos.__set__


def _node(cls: type) -> type:
    """Make `cls`, whose body names its fields in `__slots__`, a frozen
    dataclass. Its `__init__` takes the fields in order, then keyword-only
    `pos`, and fills each slot through the slot's own setter, as `Pos` does.
    Slots written in the class body, not `dataclass(slots=True)`, keep the
    class the `class` statement made: that call would build a second class
    and leave the first among `Expr.__subclasses__()`."""
    types = cls.__dict__.get("__annotations__", {})
    scope = {f"_set_{n}": getattr(cls, n).__set__ for n in types}
    scope["_set_pos"] = _set_pos
    params = "".join(f"{n}: {t}, " for n, t in types.items())
    body = "".join(f"    _set_{n}(self, {n})\n" for n in types)
    # exec keeps this module's `from __future__ import annotations`, so the
    # annotations stay strings, as in the signature dataclass would write
    exec(
        f"def __init__(self, {params}*, pos: Pos | None = None):\n"
        f"{body}    _set_pos(self, pos)\n",
        scope,
    )
    cls.__init__ = scope["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return dataclass(frozen=True, init=False)(cls)


@_node
class Num(Expr):
    """Integer literal; the digits are kept as written."""

    __slots__ = ("literal",)
    literal: str


@_node
class Bool(Expr):
    __slots__ = ("value",)
    value: bool


@_node
class Unit(Expr):
    __slots__ = ()


@_node
class Var(Expr):
    __slots__ = ("name",)
    name: str


@_node
class Bop(Expr):
    __slots__ = ("op", "lhs", "rhs")
    op: BinOp
    lhs: Expr
    rhs: Expr


@_node
class Let(Expr):
    """let x = e, optionally with a base-level annotation: let x: high = e."""

    __slots__ = ("name", "annot", "rhs")
    name: str
    annot: SecType | None
    rhs: Expr


@_node
class If(Expr):
    __slots__ = ("cond", "then", "orelse")
    cond: Expr
    then: Expr
    orelse: Expr


@_node
class While(Expr):
    __slots__ = ("cond", "body")
    cond: Expr
    body: Expr


@_node
class For(Expr):
    """for x in e1 to e2 { e3 }; both bounds inclusive."""

    __slots__ = ("var", "start", "stop", "body")
    var: str
    start: Expr
    stop: Expr
    body: Expr


@_node
class Seq(Expr):
    __slots__ = ("first", "second")
    first: Expr
    second: Expr


@_node
class Func(Expr):
    """(x: t) => e; the parameter annotation is mandatory."""

    __slots__ = ("param", "annot", "body")
    param: str
    annot: SecType
    body: Expr


@_node
class App(Expr):
    __slots__ = ("fn", "arg")
    fn: Expr
    arg: Expr


@_node
class Ref(Expr):
    __slots__ = ("inner",)
    inner: Expr


@_node
class Deref(Expr):
    __slots__ = ("name",)
    name: str


@_node
class Assign(Expr):
    __slots__ = ("name", "rhs")
    name: str
    rhs: Expr


# ---------------------------------------------------------------------------
# Pretty printing
#
# Precedence levels, loosest to tightest. A child whose level is below the
# level its position requires gets wrapped in parentheses; parentheses may
# contain sequences, so this is safe for every node.

_SEQ, _STMT, _CMP, _ADD, _MUL, _UNARY, _APP, _ATOM = range(8)

# How binary operators bind: the level of each. A right operand sits one
# level tighter than its operator; a left operand sits at the operator's own
# level, so chains associate to the left, except that comparisons do not
# chain and take both operands one level tighter. The parser reads this table
# too.
BINOP_LEVEL = {
    BinOp.EQ: _CMP,
    BinOp.LT: _CMP,
    BinOp.GT: _CMP,
    BinOp.ADD: _ADD,
    BinOp.SUB: _ADD,
    BinOp.MUL: _MUL,
    BinOp.DIV: _MUL,
}
CMP_LEVEL = _CMP


# The level of each node class; `Bop` and `Num` are read from the node.
_PREC = {Seq: _SEQ, Let: _STMT, Assign: _STMT, Func: _STMT, App: _APP}


def _prec(e: Expr) -> int:
    t = type(e)
    if t is Bop:
        return BINOP_LEVEL[e.op]
    if t is Num:
        return _UNARY if e.literal.startswith("-") else _ATOM
    return _PREC.get(t, _ATOM)


def _fmt(e: Expr, level: int, memo: dict[int, str]) -> str:
    text = memo.get(id(e))
    if text is None:
        text = memo[id(e)] = _render(e, memo)
    if _prec(e) < level:
        return f"({text})"
    return text


def _render(e: Expr, memo: dict[int, str]) -> str:
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
            level = BINOP_LEVEL[op]
            left = level + 1 if level == _CMP else level
            return f"{_fmt(lhs, left, memo)} {op.value} {_fmt(rhs, level + 1, memo)}"
        case Let(name, annot, rhs):
            if annot is None:
                return f"let {name} = {_fmt(rhs, _STMT, memo)}"
            return f"let {name}: {pretty_type(annot)} = {_fmt(rhs, _STMT, memo)}"
        case If(cond, then, orelse):
            return (
                f"if {_fmt(cond, _CMP, memo)} {{ {_fmt(then, _SEQ, memo)} }}"
                f" else {{ {_fmt(orelse, _SEQ, memo)} }}"
            )
        case While(cond, body):
            return f"while {_fmt(cond, _CMP, memo)} {{ {_fmt(body, _SEQ, memo)} }}"
        case For(var, start, stop, body):
            return (
                f"for {var} in {_fmt(start, _CMP, memo)} to {_fmt(stop, _CMP, memo)}"
                f" {{ {_fmt(body, _SEQ, memo)} }}"
            )
        case Seq():
            return "; ".join(_statements(e, memo))
        case Func(param, annot, body):
            return f"({param}: {pretty_type(annot)}) => {_fmt(body, _STMT, memo)}"
        case App(fn, arg):
            return f"{_fmt(fn, _APP, memo)} {_fmt(arg, _ATOM, memo)}"
        case Ref(inner):
            return f"ref({_fmt(inner, _SEQ, memo)})"
        case Deref(name):
            return f"!{name}"
        case Assign(name, rhs):
            return f"{name} := {_fmt(rhs, _STMT, memo)}"
    raise TypeError(f"not an Expr: {e!r}")


def _statements(e: Expr, memo: dict[int, str]) -> list[str]:
    """The text of each statement down `e`'s chain of `second`s."""
    texts = []
    while isinstance(e, Seq):
        texts.append(_fmt(e.first, _STMT, memo))
        e = e.second
    texts.append(_fmt(e, _STMT, memo))
    return texts


def pretty_line(e: Expr, memo: dict[int, str]) -> str:
    """The text of `e` as one top-level statement: one line of `pretty`'s
    output for a sequence whose `first` is `e`."""
    return _fmt(e, _STMT, memo)


def pretty(e: Expr, memo: dict[int, str] | None = None) -> str:
    """Render an expression as parseable source.

    Top-level sequences print one statement per line; nested sequences use
    semicolons. parse(pretty(e)) reconstructs e exactly (positions aside).
    For every `Seq(first, second)`, `pretty(second)` is the suffix of
    `pretty(Seq)` that follows `pretty_line(first)` and one newline.

    `memo` maps `id(node)` to the node's text, so a caller that renders many
    subtrees of one tree, such as the type checker writing a trace frame for
    every node, renders each node once. One memo serves one tree that stays
    alive while the memo is used (one check). A node other than a `Seq` that
    is already in the memo costs one lookup: its text is its `pretty`.
    """
    if memo is None:
        memo = {}
    elif type(e) is not Seq:
        text = memo.get(id(e))
        if text is not None:
            return text
    return "\n".join(_statements(e, memo))


def sequence(stmts: list[Expr]) -> Expr:
    """Chain statements into a right-nested `Seq` spine; each link takes its
    `first` statement's position. The one builder of statement chains."""
    e = stmts[-1]
    for s in reversed(stmts[:-1]):
        e = Seq(s, e, pos=s.pos)
    return e
