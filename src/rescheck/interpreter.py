"""Reference interpreter: big-step evaluation with an environment and store.

evaluate() never raises for program-level failures; it returns an Outcome.
Fuel decrements once per rule application, so any divergence surfaces as
FuelExhausted after a bounded amount of work. The input store is copied up
front and environments are extended copy-on-write, which keeps the caller's
state intact; evaluating the same expression from equal states is fully
deterministic.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum

from .syntax import (
    App,
    Assign,
    BinOp,
    Bool,
    Bop,
    Deref,
    Expr,
    For,
    Func,
    If,
    Let,
    Num,
    Pos,
    Ref,
    Seq,
    Unit,
    Var,
    While,
    pretty,
)

# ---------------------------------------------------------------------------
# Runtime values


class Value:
    __slots__ = ()


@dataclass(frozen=True)
class IntV(Value):
    n: int


@dataclass(frozen=True)
class BoolV(Value):
    b: bool


@dataclass(frozen=True)
class UnitV(Value):
    pass


@dataclass(frozen=True)
class LocV(Value):
    loc: int


@dataclass(frozen=True)
class ClosV(Value):
    """A closure: the body, the parameter name and the defining environment."""

    body: Expr
    param: str
    env: dict[str, Value]


UNIT = UnitV()

Env = dict[str, Value]


def pretty_value(v: Value) -> str:
    match v:
        case IntV(n):
            return str(n)
        case BoolV(b):
            return "true" if b else "false"
        case UnitV():
            return "unit"
        case LocV(loc):
            return f"ℓ{loc}"
        case ClosV(_, param, _):
            return f"<fun {param}>"
    raise TypeError(f"not a Value: {v!r}")


class Store:
    """Location-to-value map with a monotone allocation counter.

    The counter never decreases, so locations are never reused even if
    entries were removed.
    """

    __slots__ = ("data", "next_loc")

    def __init__(self, data: dict[int, Value] | None = None, next_loc: int = 0):
        self.data = data if data is not None else {}
        if self.data:
            next_loc = max(next_loc, max(self.data) + 1)
        self.next_loc = next_loc

    def copy(self) -> Store:
        return Store(dict(self.data), self.next_loc)

    def alloc(self, v: Value) -> int:
        loc = self.next_loc
        self.data[loc] = v
        self.next_loc = loc + 1
        return loc

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Store)
            and self.data == other.data
            and self.next_loc == other.next_loc
        )

    def __repr__(self) -> str:
        return f"Store({self.data!r}, next_loc={self.next_loc})"


def fresh_loc(store: Store) -> int:
    """The location the next allocation will use."""
    return store.next_loc


@dataclass
class State:
    env: Env
    store: Store


# ---------------------------------------------------------------------------
# Outcomes


class FaultKind(Enum):
    UNBOUND_VAR = "UnboundVar"
    NOT_A_FUNCTION = "NotAFunction"
    NOT_A_BOOL = "NotABool"
    NOT_AN_INT = "NotAnInt"
    NOT_A_LOC = "NotALoc"
    DIV_BY_ZERO = "DivByZero"
    FOR_BOUNDS_INVALID = "ForBoundsInvalid"


class Outcome:
    __slots__ = ()


@dataclass
class Ok(Outcome):
    value: Value
    state: State


@dataclass
class RuntimeFault(Outcome):
    kind: FaultKind
    at: Pos | None


@dataclass
class FuelExhausted(Outcome):
    pass


class _Fault(Exception):
    def __init__(self, kind: FaultKind, at: Pos | None):
        self.kind = kind
        self.at = at


class _OutOfFuel(Exception):
    pass


# Recursion in evaluated programs consumes fuel faster than Python stack
# frames, but a generous guard converts a would-be interpreter stack
# overflow into FuelExhausted instead of crashing the host.
_MAX_DEPTH = 2500


class _Evaluator:
    def __init__(self, store: Store, fuel: int):
        self.store = store
        self.fuel = fuel
        self.depth = 0

    def charge(self, n: int = 1) -> None:
        if self.fuel < n:
            raise _OutOfFuel
        self.fuel -= n

    def eval(self, e: Expr, env: Env) -> tuple[Value, Env]:
        self.charge()
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise _OutOfFuel
        try:
            return self._apply(e, env)
        finally:
            self.depth -= 1

    def _apply(self, e: Expr, env: Env) -> tuple[Value, Env]:
        match e:
            case Num(literal):
                return IntV(int(literal)), env

            case Bool(value):
                return BoolV(value), env

            case Unit():
                return UNIT, env

            case Var(x):
                v = env.get(x)
                if v is None:
                    raise _Fault(FaultKind.UNBOUND_VAR, e.pos)
                return v, env

            case Bop(op, lhs, rhs):
                v1, _ = self.eval(lhs, env)
                v2, _ = self.eval(rhs, env)
                return self._binop(op, v1, v2, e), env

            case Let(x, _, rhs):
                v, _ = self.eval(rhs, env)
                return UNIT, {**env, x: v}

            case If(cond, then, orelse):
                cv, _ = self.eval(cond, env)
                if not isinstance(cv, BoolV):
                    raise _Fault(FaultKind.NOT_A_BOOL, e.pos)
                branch = then if cv.b else orelse
                v, _ = self.eval(branch, env)
                return v, env

            case While(cond, body):
                # Iterative form of the recursive rule; each unfolding of the
                # loop is one more rule application, charged before its test.
                while True:
                    cv, _ = self.eval(cond, env)
                    if not isinstance(cv, BoolV):
                        raise _Fault(FaultKind.NOT_A_BOOL, e.pos)
                    if not cv.b:
                        return UNIT, env
                    self.eval(body, env)
                    self.charge()

            case For(x, start, stop, body):
                v1, _ = self.eval(start, env)
                v2, _ = self.eval(stop, env)
                if not isinstance(v1, IntV) or not isinstance(v2, IntV):
                    raise _Fault(FaultKind.NOT_AN_INT, e.pos)
                a, b = v1.n, v2.n
                if a > b:
                    raise _Fault(FaultKind.FOR_BOUNDS_INVALID, e.pos)
                # The recursive rule peels the upper bound: each level below
                # the base costs one application plus two bound evaluations.
                self.charge(3 * (b - a))
                for i in range(a, b + 1):
                    self.eval(body, {**env, x: IntV(i)})
                return UNIT, env

            case Seq(first, second):
                _, env2 = self.eval(first, env)
                v, env3 = self.eval(second, env2)
                return v, env3

            case Func(param, _, body):
                return ClosV(body, param, env), env

            case App(fn, arg):
                fv, _ = self.eval(fn, env)
                av, _ = self.eval(arg, env)
                if not isinstance(fv, ClosV):
                    raise _Fault(FaultKind.NOT_A_FUNCTION, e.pos)
                v, _ = self.eval(fv.body, {**fv.env, fv.param: av})
                return v, env

            case Ref(inner):
                v, _ = self.eval(inner, env)
                loc = self.store.alloc(v)
                return LocV(loc), env

            case Deref(x):
                lv = env.get(x)
                if lv is None:
                    raise _Fault(FaultKind.UNBOUND_VAR, e.pos)
                if not isinstance(lv, LocV) or lv.loc not in self.store.data:
                    raise _Fault(FaultKind.NOT_A_LOC, e.pos)
                return self.store.data[lv.loc], env

            case Assign(x, rhs):
                v, _ = self.eval(rhs, env)
                lv = env.get(x)
                if lv is None:
                    raise _Fault(FaultKind.UNBOUND_VAR, e.pos)
                if not isinstance(lv, LocV):
                    raise _Fault(FaultKind.NOT_A_LOC, e.pos)
                self.store.data[lv.loc] = v
                return UNIT, env

        raise TypeError(f"not an Expr: {e!r}")

    def _binop(self, op: BinOp, v1: Value, v2: Value, e: Expr) -> Value:
        if op is BinOp.EQ:
            if isinstance(v1, IntV) and isinstance(v2, IntV):
                return BoolV(v1.n == v2.n)
            if isinstance(v1, BoolV) and isinstance(v2, BoolV):
                return BoolV(v1.b == v2.b)
            raise _Fault(FaultKind.NOT_AN_INT, e.pos)
        if not isinstance(v1, IntV) or not isinstance(v2, IntV):
            raise _Fault(FaultKind.NOT_AN_INT, e.pos)
        a, b = v1.n, v2.n
        match op:
            case BinOp.ADD:
                return IntV(a + b)
            case BinOp.SUB:
                return IntV(a - b)
            case BinOp.MUL:
                return IntV(a * b)
            case BinOp.DIV:
                if b == 0:
                    raise _Fault(FaultKind.DIV_BY_ZERO, e.pos)
                q = abs(a) // abs(b)  # truncate toward zero
                return IntV(q if (a >= 0) == (b >= 0) else -q)
            case BinOp.LT:
                return BoolV(a < b)
            case BinOp.GT:
                return BoolV(a > b)
        raise AssertionError(op)


def evaluate(e: Expr, env: Env, store: Store, fuel: int) -> Outcome:
    """Evaluate an expression. The given env and store are left untouched."""
    if fuel < 1:
        return FuelExhausted()
    ev = _Evaluator(store.copy(), fuel)
    limit = sys.getrecursionlimit()
    if limit < 4 * _MAX_DEPTH:
        sys.setrecursionlimit(4 * _MAX_DEPTH)
    try:
        v, out_env = ev.eval(e, env)
        return Ok(v, State(out_env, ev.store))
    except _Fault as f:
        return RuntimeFault(f.kind, f.at)
    except _OutOfFuel:
        return FuelExhausted()
    finally:
        if sys.getrecursionlimit() != limit:
            sys.setrecursionlimit(limit)


def run_program(e: Expr, fuel: int) -> Outcome:
    """Evaluate a whole program from an empty environment and store."""
    return evaluate(e, {}, Store(), fuel)


__all__ = [
    "BoolV",
    "ClosV",
    "Env",
    "FaultKind",
    "FuelExhausted",
    "IntV",
    "LocV",
    "Ok",
    "Outcome",
    "RuntimeFault",
    "State",
    "Store",
    "UnitV",
    "Value",
    "evaluate",
    "fresh_loc",
    "pretty_value",
    "run_program",
]
