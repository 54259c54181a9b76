"""Abstract syntax for the reduced ReScript language and its security types.

Expressions and types are immutable dataclasses. Source positions ride along
on every expression node but are excluded from equality, so structural
comparison (and the parse/pretty round trip) ignores where a node came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


def record(cls: type) -> type:
    """Make `cls`, whose body names its fields in `__slots__`, a frozen
    dataclass with no `__dict__`. `Pos` is decorated with it; `SecType`,
    `Expr` and `Value` set it as their `__init_subclass__`, so every
    security type, node and runtime value is built here when its class is
    made, except an int value, which is a plain Python `int`. Its `__init__`
    takes the fields in order, then keyword-only `pos` for a node (a class
    that inherits `Expr`'s `pos` field), and fills each slot through the
    slot's own setter, not the frozen `__setattr__`; for the same reason a
    record that is not a node pickles by its fields (`Expr` has state methods
    from `dataclass(slots=True)`). Slots are named in the class body because
    `dataclass(slots=True)` would build a second class: its frozen
    `__setattr__` would answer a new attribute with a TypeError, and the
    first class would stay among its base's `__subclasses__()`."""
    types = cls.__dict__.get("__annotations__", {})
    node = "pos" in getattr(cls, "__dataclass_fields__", ())
    slots = [*types, "pos"] if node else list(types)
    scope = {f"_set_{n}": getattr(cls, n).__set__ for n in slots}
    params = "".join(f", {n}: {t}" for n, t in types.items())
    if node:
        params += ", *, pos: Pos | None = None"
    else:
        cls.__reduce__ = lambda self: (cls, tuple(getattr(self, n) for n in types))
    body = "".join(f"    _set_{n}(self, {n})\n" for n in slots) or "    pass\n"
    # exec keeps this module's `from __future__ import annotations`, so the
    # annotations stay strings, as in the signature dataclass would write
    exec(f"def __init__(self{params}):\n{body}", scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return dataclass(frozen=True, init=False)(cls)


# ---------------------------------------------------------------------------
# Security types


class SecType:
    """Base class for security types: low, high, (), ref t, (t -> t @ t)."""

    __slots__ = ()
    __init_subclass__ = record


# The three levels have no fields, so the dataclass hash would give each of
# them hash(()). Types are set and dict keys throughout, and leaves that
# collide make nearly every type hash the same, so each level hashes to its
# own integer. Integers, unlike strings, hash the same in every process.


class Low(SecType):
    __slots__ = ()

    def __hash__(self) -> int:
        return 1


class High(SecType):
    __slots__ = ()

    def __hash__(self) -> int:
        return 2


class Empty(SecType):
    """The absence of a write effect, written ()."""

    __slots__ = ()

    def __hash__(self) -> int:
        return 3


class RefType(SecType):
    __slots__ = ("inner",)
    inner: SecType


class FunType(SecType):
    __slots__ = ("param", "result", "latent")
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

    # Members are singletons, so hash by identity: Enum's own __hash__ is a
    # Python-level call, paid on every lookup in a table keyed by operator.
    __hash__ = object.__hash__


@dataclass(frozen=True, slots=True)
class Expr:
    pos: Pos | None = field(default=None, compare=False, repr=False, kw_only=True)
    __init_subclass__ = record


@record
class Pos:
    """1-based line/column where a node starts in the source text."""

    __slots__ = ("line", "col")
    line: int
    col: int


class Num(Expr):
    """Integer literal; the digits are kept as written."""

    __slots__ = ("literal",)
    literal: str


class Bool(Expr):
    __slots__ = ("value",)
    value: bool


class Unit(Expr):
    __slots__ = ()


class Var(Expr):
    __slots__ = ("name",)
    name: str


class Bop(Expr):
    __slots__ = ("op", "lhs", "rhs")
    op: BinOp
    lhs: Expr
    rhs: Expr


class Let(Expr):
    """let x = e, optionally with a base-level annotation: let x: high = e."""

    __slots__ = ("name", "annot", "rhs")
    name: str
    annot: SecType | None
    rhs: Expr


class If(Expr):
    __slots__ = ("cond", "then", "orelse")
    cond: Expr
    then: Expr
    orelse: Expr


class While(Expr):
    __slots__ = ("cond", "body")
    cond: Expr
    body: Expr


class For(Expr):
    """for x in e1 to e2 { e3 }; both bounds inclusive."""

    __slots__ = ("var", "start", "stop", "body")
    var: str
    start: Expr
    stop: Expr
    body: Expr


class Seq(Expr):
    __slots__ = ("first", "second")
    first: Expr
    second: Expr


class Func(Expr):
    """(x: t) => e; the parameter annotation is mandatory."""

    __slots__ = ("param", "annot", "body")
    param: str
    annot: SecType
    body: Expr


class App(Expr):
    __slots__ = ("fn", "arg")
    fn: Expr
    arg: Expr


class Ref(Expr):
    __slots__ = ("inner",)
    inner: Expr


class Deref(Expr):
    __slots__ = ("name",)
    name: str


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
#
# `_RENDER` maps each node class to its renderer, as the checker's and the
# evaluator's `_RULES` map it to a rule, so a node costs one lookup to
# dispatch. `_fmt` is the one entry for every child: it looks the node up in
# the memo, renders it if it is not there, and adds parentheses. A renderer
# reads its node's fields and hands each child to `_fmt`, so one level of
# nesting costs two Python frames, `_fmt` and the renderer.

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

# Each operator's text and the levels its left and right operands require.
_BINOP_TEXT = {
    op: (op.value, level + 1 if level == _CMP else level, level + 1)
    for op, level in BINOP_LEVEL.items()
}

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
        try:
            render = _RENDER[type(e)]
        except KeyError:
            raise TypeError(f"not an Expr: {e!r}") from None
        text = memo[id(e)] = render(e, memo)
    if level != _SEQ and _prec(e) < level:  # nothing binds looser than _SEQ
        return f"({text})"
    return text


# One renderer per node class: _RENDER maps class Num to _num, and so on.


def _num(e: Num, memo: dict[int, str]) -> str:
    return e.literal


def _bool(e: Bool, memo: dict[int, str]) -> str:
    return "true" if e.value else "false"


def _unit(e: Unit, memo: dict[int, str]) -> str:
    return "()"


def _var(e: Var, memo: dict[int, str]) -> str:
    return e.name


def _bop(e: Bop, memo: dict[int, str]) -> str:
    op, left, right = _BINOP_TEXT[e.op]
    return f"{_fmt(e.lhs, left, memo)} {op} {_fmt(e.rhs, right, memo)}"


def _let(e: Let, memo: dict[int, str]) -> str:
    if e.annot is None:
        return f"let {e.name} = {_fmt(e.rhs, _STMT, memo)}"
    return f"let {e.name}: {pretty_type(e.annot)} = {_fmt(e.rhs, _STMT, memo)}"


def _if(e: If, memo: dict[int, str]) -> str:
    return (
        f"if {_fmt(e.cond, _CMP, memo)} {{ {_fmt(e.then, _SEQ, memo)} }}"
        f" else {{ {_fmt(e.orelse, _SEQ, memo)} }}"
    )


def _while(e: While, memo: dict[int, str]) -> str:
    return f"while {_fmt(e.cond, _CMP, memo)} {{ {_fmt(e.body, _SEQ, memo)} }}"


def _for(e: For, memo: dict[int, str]) -> str:
    return (
        f"for {e.var} in {_fmt(e.start, _CMP, memo)} to {_fmt(e.stop, _CMP, memo)}"
        f" {{ {_fmt(e.body, _SEQ, memo)} }}"
    )


def _seq(e: Seq, memo: dict[int, str]) -> str:
    return "; ".join(_statements(e, memo))


def _func(e: Func, memo: dict[int, str]) -> str:
    return f"({e.param}: {pretty_type(e.annot)}) => {_fmt(e.body, _STMT, memo)}"


def _app(e: App, memo: dict[int, str]) -> str:
    return f"{_fmt(e.fn, _APP, memo)} {_fmt(e.arg, _ATOM, memo)}"


def _ref(e: Ref, memo: dict[int, str]) -> str:
    return f"ref({_fmt(e.inner, _SEQ, memo)})"


def _deref(e: Deref, memo: dict[int, str]) -> str:
    return f"!{e.name}"


def _assign(e: Assign, memo: dict[int, str]) -> str:
    return f"{e.name} := {_fmt(e.rhs, _STMT, memo)}"


_RENDER = {
    cls: globals()["_" + cls.__name__.lower()]
    for cls in (Num, Bool, Unit, Var, Bop, Let, If, While, For, Seq, Func, App, Ref, Deref, Assign)
}


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

    Top-level sequences print one statement per line, each line being the
    statement's `pretty_line`; nested sequences use semicolons.
    parse(pretty(e)) reconstructs e exactly (positions aside).

    `memo` maps `id(node)` to the node's text, so a caller that renders many
    subtrees of one tree, such as the type checker writing a trace frame for
    every node, renders each node once. One memo serves one tree that stays
    alive while the memo is used (one check). A node other than a `Seq` that
    is already in the memo costs one lookup: its text is its `pretty`.
    A node that is not costs one lookup in `_RENDER` to find its renderer,
    and each level of nesting below it two Python frames.
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
