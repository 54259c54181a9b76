"""Reference interpreter: big-step evaluation with an environment and store.

evaluate() never raises for program-level failures; it returns an Outcome.
Fuel decrements once per rule application, so any divergence surfaces as
FuelExhausted after a bounded amount of work. The input store is copied up
front and no code changes an env it did not create (a `for` loop rebinds its
variable in its own copy, a closure captures a copy), which keeps the
caller's state intact; evaluating the same expression from equal states is
fully deterministic.

A run compiles each node it reaches into a closure `code(env) -> value`:
one Python call per rule application. `_RULES` maps each `Expr` class to the
`_Evaluator` method that compiles it, and anything else raises TypeError
when compiled. Only a statement chain threads an env, in one loop down its
`Seq` spine. An `If` branch is compiled when first taken, and a closure body
below each application node, the first time that node applies it.

Nesting depth is its own outcome. Evaluation that nests deeper than
`_MAX_DEPTH` rule applications ends in DepthExceeded, not FuelExhausted:
running out of budget and running out of stack are different diagnoses. Fuel
is checked first. A chain's statements all run one level below it. Each node
is compiled at the depth it runs at, so depth is checked once, when it is
compiled: a node `_MAX_DEPTH` levels down compiles to a stop.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from typing import NoReturn

from .syntax import (
    App, Assign, BinOp, Bool, Bop, Deref, Expr, For, Func, If, Let, Num, Pos, Ref, Seq, Unit, Var,
    While, record,
)

# ---------------------------------------------------------------------------
# Runtime values


class Value:
    __slots__ = ()
    __init_subclass__ = record


class IntV(Value):
    __slots__ = ("n",)
    n: int


class BoolV(Value):
    __slots__ = ("b",)
    b: bool


_BOOL = (BoolV(False), BoolV(True)).__getitem__  # a bool to one of two shared BoolVs


class UnitV(Value):
    __slots__ = ()


class LocV(Value):
    __slots__ = ("loc",)
    loc: int


class ClosV(Value):
    """A closure: the body, the parameter name and the defining environment."""

    __slots__ = ("body", "param", "env")
    body: Expr
    param: str
    env: dict[str, Value]


UNIT = UnitV()

Env = dict[str, Value]


def pretty_value(v: Value) -> str:
    match v:
        case IntV(n):
            try:
                return str(n)
            except ValueError:  # more digits than this process lets str() convert at once
                size = sys.get_int_max_str_digits()
            block, head, blocks = 10**size, abs(n), []
            while head >= block:
                head, low = divmod(head, block)
                blocks.append(str(low).zfill(size))
            return "-" * (n < 0) + str(head) + "".join(reversed(blocks))
        case BoolV(b):
            return "true" if b else "false"
        case UnitV():
            return "unit"
        case LocV(loc):
            return f"ℓ{loc}"
        case ClosV(_, param, _):
            return f"<fun {param}>"
    raise TypeError(f"not a Value: {v!r}")


@dataclass(slots=True)
class Store:
    """Location-to-value map with a monotone allocation counter.

    The counter never decreases, so locations are never reused even if
    entries were removed.
    """

    data: dict[int, Value] = field(default_factory=dict)
    next_loc: int = 0

    def __post_init__(self) -> None:
        if self.data:
            self.next_loc = max(self.next_loc, max(self.data) + 1)

    def copy(self) -> Store:
        return Store(dict(self.data), self.next_loc)

    def alloc(self, v: Value) -> int:
        loc = self.next_loc
        self.data[loc] = v
        self.next_loc = loc + 1
        return loc


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


@dataclass
class DepthExceeded(Outcome):
    """Evaluation nested deeper than the evaluator's limit, with fuel left."""

    limit: int


class _Stop(Exception):
    """Ends evaluation early with the run's outcome."""

    def __init__(self, outcome: Outcome):
        self.outcome = outcome


# Recursion in evaluated programs consumes fuel faster than Python stack
# frames, but a generous guard turns a would-be interpreter stack overflow
# into DepthExceeded instead of crashing the host.
_MAX_DEPTH = 2500

DEFAULT_FUEL = 10000  # the step budget of a run that names none

Code = Callable[[Env], Value]


def _div(a: int, b: int) -> int:
    q = abs(a) // abs(b)  # truncate toward zero; ZeroDivisionError when b is 0
    return q if (a >= 0) == (b >= 0) else -q


# Each operator on two integers, and the value its result is wrapped in. Only
# == also takes two booleans.
_OPS = {
    BinOp.ADD: (operator.add, IntV),
    BinOp.SUB: (operator.sub, IntV),
    BinOp.MUL: (operator.mul, IntV),
    BinOp.DIV: (_div, IntV),
    BinOp.EQ: (operator.eq, _BOOL),
    BinOp.LT: (operator.lt, _BOOL),
    BinOp.GT: (operator.gt, _BOOL),
}


class _Evaluator:
    """One run's store and fuel, and the compiler of its code.

    A node is compiled at its level, the depth it runs at: the program at 0,
    each child one below its parent, and a closure body one below the
    application that calls it. So only `compile` checks depth, and code never
    does.

    Each code starts with the same charge: the run stops when fuel is out, and
    one fuel is taken.
    """

    __slots__ = ("store", "fuel", "env")

    def __init__(self, store: Store, fuel: int):
        self.store = store
        self.fuel = fuel
        self.env: Env = {}  # the env the last `let` or statement chain to finish left

    def stop(self, env: Env | None = None) -> NoReturn:
        """End the run: out of fuel if none is left, else nested too deep."""
        raise _Stop(FuelExhausted() if self.fuel < 1 else DepthExceeded(_MAX_DEPTH))

    def compile(self, e: Expr, level: int = 0) -> Code:
        """The code of `e`, a node that runs `level` levels deep."""
        if level >= _MAX_DEPTH:
            return self.stop  # it runs at least this deep, so its charge can only stop the run
        rule = _RULES.get(type(e))
        if rule is None:
            raise TypeError(f"not an Expr: {e!r}")
        return rule(self, e, level)

    # One compile rule per node type: _RULES maps class Num to method _num, and so on.

    def _leaf(self, v: Value) -> Code:
        ev = self

        def leaf(env: Env) -> Value:
            if ev.fuel < 1: ev.stop()
            ev.fuel -= 1
            return v
        return leaf

    def _num(self, e: Num, level: int) -> Code:
        return self._leaf(IntV(int(e.literal)))

    def _bool(self, e: Bool, level: int) -> Code:
        return self._leaf(_BOOL(e.value))

    def _unit(self, e: Unit, level: int) -> Code:
        return self._leaf(UNIT)

    def _var(self, e: Var, level: int) -> Code:
        ev, name, pos = self, e.name, e.pos

        def var(env: Env) -> Value:
            if ev.fuel < 1: ev.stop()
            ev.fuel -= 1
            if name in env:
                return env[name]
            raise _Stop(RuntimeFault(FaultKind.UNBOUND_VAR, pos))
        return var

    def _bop(self, e: Bop, level: int) -> Code:
        ev, pos, (op, wrap) = self, e.pos, _OPS[e.op]
        lhs, rhs = self.compile(e.lhs, level + 1), self.compile(e.rhs, level + 1)

        def bop(env: Env) -> Value:
            if ev.fuel < 1: ev.stop()
            ev.fuel -= 1
            v1, v2 = lhs(env), rhs(env)
            if isinstance(v1, IntV) and isinstance(v2, IntV):
                try:
                    return wrap(op(v1.n, v2.n))
                except ZeroDivisionError:
                    raise _Stop(RuntimeFault(FaultKind.DIV_BY_ZERO, pos))
            if op is operator.eq and isinstance(v1, BoolV) and isinstance(v2, BoolV):
                return _BOOL(v1.b == v2.b)
            raise _Stop(RuntimeFault(FaultKind.NOT_AN_INT, pos))
        return bop

    def _let(self, e: Let, level: int) -> Code:
        ev, name = self, e.name
        rhs = self.compile(e.rhs, level + 1)

        def let(env: Env) -> Value:
            if ev.fuel < 1: ev.stop()
            ev.fuel -= 1
            ev.env = {**env, name: rhs(env)}
            return UNIT
        return let

    def _if(self, e: If, level: int) -> Code:
        # A branch is compiled the first time it is taken: most never are.
        ev, pos = self, e.pos
        cond, then, orelse = self.compile(e.cond, level + 1), None, None

        def if_(env: Env) -> Value:
            nonlocal then, orelse
            if ev.fuel < 1: ev.stop()
            ev.fuel -= 1
            cv = cond(env)
            if not isinstance(cv, BoolV):
                raise _Stop(RuntimeFault(FaultKind.NOT_A_BOOL, pos))
            if cv.b:
                then = then or ev.compile(e.then, level + 1)
                return then(env)
            orelse = orelse or ev.compile(e.orelse, level + 1)
            return orelse(env)
        return if_

    def _while(self, e: While, level: int) -> Code:
        ev, pos = self, e.pos
        cond, body = self.compile(e.cond, level + 1), self.compile(e.body, level + 1)

        def while_(env: Env) -> Value:
            if ev.fuel < 1: ev.stop()
            ev.fuel -= 1
            # Iterative form of the recursive rule; each unfolding of the loop
            # is one more rule application, charged after its body.
            while True:
                cv = cond(env)
                if not isinstance(cv, BoolV):
                    raise _Stop(RuntimeFault(FaultKind.NOT_A_BOOL, pos))
                if not cv.b:
                    return UNIT
                body(env)
                if ev.fuel < 1: ev.stop()
                ev.fuel -= 1
        return while_

    def _for(self, e: For, level: int) -> Code:
        ev, pos, x = self, e.pos, e.var
        start, stop = self.compile(e.start, level + 1), self.compile(e.stop, level + 1)
        body = self.compile(e.body, level + 1)

        def for_(env: Env) -> Value:
            if ev.fuel < 1: ev.stop()
            ev.fuel -= 1
            v1, v2 = start(env), stop(env)
            if not isinstance(v1, IntV) or not isinstance(v2, IntV):
                raise _Stop(RuntimeFault(FaultKind.NOT_AN_INT, pos))
            a, b = v1.n, v2.n
            if a > b:
                raise _Stop(RuntimeFault(FaultKind.FOR_BOUNDS_INVALID, pos))
            # The recursive rule peels the upper bound: each level below the
            # base costs one application plus two bound evaluations.
            if ev.fuel < 3 * (b - a):
                raise _Stop(FuelExhausted())
            ev.fuel -= 3 * (b - a)
            local = dict(env)  # the loop's own env: each iteration rebinds x in it
            for i in range(a, b + 1):
                local[x] = IntV(i)
                body(local)
            return UNIT
        return for_

    def _seq(self, e: Seq, level: int) -> Code:
        # One loop down the chain: each link is charged here, its statement one level below.
        ev, links = self, []
        while isinstance(e, Seq):
            links.append((self.compile(e.first, level + 1), isinstance(e.first, (Let, Seq))))
            e = e.second
        last, last_binds = self.compile(e, level + 1), isinstance(e, Let)

        def seq(env: Env) -> Value:
            for code, binds in links:
                if ev.fuel < 1: ev.stop()
                ev.fuel -= 1
                code(env)
                if binds:  # a `let` or a nested chain: go on with the env it left
                    env = ev.env
            v = last(env)
            if not last_binds:
                ev.env = env
            return v
        return seq

    def _func(self, e: Func, level: int) -> Code:
        ev, body, param = self, e.body, e.param

        def func(env: Env) -> Value:
            if ev.fuel < 1: ev.stop()
            ev.fuel -= 1
            return ClosV(body, param, dict(env))  # a copy: a `for` rebinds in its env
        return func

    def _app(self, e: App, level: int) -> Code:
        # A closure body runs one level below this node, so it is compiled at
        # that level the first time this node applies it. Each body is part of
        # the program or of the input state, which outlive the run, so no
        # other body takes its id.
        ev, pos, bodies = self, e.pos, {}
        fn, arg = self.compile(e.fn, level + 1), self.compile(e.arg, level + 1)

        def app(env: Env) -> Value:
            if ev.fuel < 1: ev.stop()
            ev.fuel -= 1
            fv, av = fn(env), arg(env)
            if not isinstance(fv, ClosV):
                raise _Stop(RuntimeFault(FaultKind.NOT_A_FUNCTION, pos))
            code = bodies.get(id(fv.body))
            if code is None:
                code = bodies[id(fv.body)] = ev.compile(fv.body, level + 1)
            return code({**fv.env, fv.param: av})
        return app

    def _ref(self, e: Ref, level: int) -> Code:
        ev, store = self, self.store
        inner = self.compile(e.inner, level + 1)

        def ref(env: Env) -> Value:
            if ev.fuel < 1: ev.stop()
            ev.fuel -= 1
            return LocV(store.alloc(inner(env)))
        return ref

    def _deref(self, e: Deref, level: int) -> Code:
        ev, data, name, pos = self, self.store.data, e.name, e.pos

        def deref(env: Env) -> Value:
            if ev.fuel < 1: ev.stop()
            ev.fuel -= 1
            lv = env.get(name)
            if lv is None:
                raise _Stop(RuntimeFault(FaultKind.UNBOUND_VAR, pos))
            if not isinstance(lv, LocV) or lv.loc not in data:
                raise _Stop(RuntimeFault(FaultKind.NOT_A_LOC, pos))
            return data[lv.loc]
        return deref

    def _assign(self, e: Assign, level: int) -> Code:
        ev, data, name, pos = self, self.store.data, e.name, e.pos
        rhs = self.compile(e.rhs, level + 1)

        def assign(env: Env) -> Value:
            if ev.fuel < 1: ev.stop()
            ev.fuel -= 1
            v = rhs(env)
            lv = env.get(name)
            if lv is None:
                raise _Stop(RuntimeFault(FaultKind.UNBOUND_VAR, pos))
            if not isinstance(lv, LocV):
                raise _Stop(RuntimeFault(FaultKind.NOT_A_LOC, pos))
            data[lv.loc] = v
            return UNIT
        return assign


_RULES = {
    cls: getattr(_Evaluator, "_" + cls.__name__.lower())
    for cls in (Num, Bool, Unit, Var, Bop, Let, If, While, For, Seq, Func, App, Ref, Deref, Assign)
}


def evaluate(e: Expr, env: Env, store: Store, fuel: int) -> Outcome:
    """Evaluate an expression. The given env and store are left untouched."""
    if fuel < 1:
        return FuelExhausted()
    ev = _Evaluator(store.copy(), fuel)
    saved = sys.getrecursionlimit()
    if saved < 4 * _MAX_DEPTH:
        sys.setrecursionlimit(4 * _MAX_DEPTH)
    try:
        v = ev.compile(e)(env)
        return Ok(v, State(ev.env if isinstance(e, (Let, Seq)) else env, ev.store))
    except _Stop as stop:
        return stop.outcome
    finally:
        if sys.getrecursionlimit() != saved:
            sys.setrecursionlimit(saved)


def run_program(e: Expr, fuel: int) -> Outcome:
    """Evaluate a whole program from an empty environment and store."""
    return evaluate(e, {}, Store(), fuel)

