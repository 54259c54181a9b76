"""A definitional interpreter: an independent reference semantics.

A direct big-step evaluator over the AST, in the sense of Reynolds'
"Definitional Interpreters for Higher-Order Programming Languages" (1972),
written from README's language table and its fuel cost model. It shares no
code with `rescheck.interpreter`'s compile rules or operator templates: it
takes only the records that values, stores and outcomes are made of, so that
its outcomes compare with `evaluate`'s by `==`.

Fuel: one step per rule application, charged in pre-order, before the rule's
premises run. A `while` charges once per unfolding, with its guard; a `for`
charges 1, then its bounds, then 3·(stop − start) up front, then its body in
each iteration; a statement chain charges once per link; a closure body is
charged when it is applied. A step the fuel left does not cover ends the run
in FuelExhausted.

Depth: each premise runs one level below its rule, but every statement of a
chain runs one level below the chain, and every unfolding of a loop runs at
the loop's own level. A rule applied `MAX_DEPTH` levels down ends the run in
DepthExceeded, after its step is charged.
"""

from __future__ import annotations

import sys

from rescheck import (
    App, Assign, BinOp, Bool, BoolV, Bop, ClosV, DepthExceeded, Deref, Expr, FaultKind, For,
    FuelExhausted, Func, If, Let, LocV, Num, Ok, Outcome, Ref, RuntimeFault, Seq, State, Store,
    Unit, UnitV, Var, While,
)

MAX_DEPTH = 2500  # README: nesting deeper than 2,500 levels ends a run


class _Stop(Exception):
    def __init__(self, outcome: Outcome):
        self.outcome = outcome


def _fault(kind: FaultKind, e: Expr):
    return _Stop(RuntimeFault(kind, e.pos))


def _operator(e: Bop, a, b):
    """README: each operator takes two integers, and `==` also two booleans;
    `/` truncates toward zero; any other operand is NotAnInt."""
    if type(a) is int and type(b) is int:
        match e.op:
            case BinOp.ADD:
                return a + b
            case BinOp.SUB:
                return a - b
            case BinOp.MUL:
                return a * b
            case BinOp.DIV:
                if b == 0:
                    raise _fault(FaultKind.DIV_BY_ZERO, e)
                q = abs(a) // abs(b)
                return q if (a < 0) == (b < 0) else -q
            case BinOp.LT:
                return BoolV(a < b)
            case BinOp.GT:
                return BoolV(a > b)
            case BinOp.EQ:
                return BoolV(a == b)
    if e.op is BinOp.EQ and type(a) is BoolV and type(b) is BoolV:
        return BoolV(a.b == b.b)
    raise _fault(FaultKind.NOT_AN_INT, e)


class _Run:
    def __init__(self, store: Store, fuel: int):
        self.store, self.fuel = Store(dict(store.data), store.next_loc), fuel

    def charge(self, steps: int) -> None:
        if self.fuel < steps:
            raise _Stop(FuelExhausted())
        self.fuel -= steps

    def step(self, depth: int) -> None:
        """One rule application, `depth` levels down."""
        self.charge(1)
        if depth >= MAX_DEPTH:
            raise _Stop(DepthExceeded(MAX_DEPTH))

    def eval(self, e: Expr, env: dict, depth: int) -> tuple[object, dict]:
        """The value of `e` in `env`, and the env after it: a `let`'s or a
        chain's own, or else `env` itself."""
        self.step(depth)
        below = depth + 1
        match e:
            case Num():
                return int(e.literal), env
            case Bool():
                return BoolV(e.value), env
            case Unit():
                return UnitV(), env
            case Var():
                if e.name not in env:
                    raise _fault(FaultKind.UNBOUND_VAR, e)
                return env[e.name], env
            case Deref():
                if e.name not in env:
                    raise _fault(FaultKind.UNBOUND_VAR, e)
                cell = env[e.name]
                if type(cell) is not LocV or cell.loc not in self.store.data:
                    raise _fault(FaultKind.NOT_A_LOC, e)
                return self.store.data[cell.loc], env
            case Bop():
                a = self.eval(e.lhs, env, below)[0]
                b = self.eval(e.rhs, env, below)[0]
                return _operator(e, a, b), env
            case Let():
                return UnitV(), {**env, e.name: self.eval(e.rhs, env, below)[0]}
            case If():
                cond = self.eval(e.cond, env, below)[0]
                if type(cond) is not BoolV:
                    raise _fault(FaultKind.NOT_A_BOOL, e)
                return self.eval(e.then if cond.b else e.orelse, env, below)[0], env
            case While():
                while True:
                    cond = self.eval(e.cond, env, below)[0]
                    if type(cond) is not BoolV:
                        raise _fault(FaultKind.NOT_A_BOOL, e)
                    if not cond.b:
                        return UnitV(), env
                    self.eval(e.body, env, below)
                    self.step(depth)  # the next unfolding
            case For():
                start = self.eval(e.start, env, below)[0]
                stop = self.eval(e.stop, env, below)[0]
                if type(start) is not int or type(stop) is not int:
                    raise _fault(FaultKind.NOT_AN_INT, e)
                if start > stop:
                    raise _fault(FaultKind.FOR_BOUNDS_INVALID, e)
                self.charge(3 * (stop - start))
                for i in range(start, stop + 1):
                    self.eval(e.body, {**env, e.var: i}, below)
                return UnitV(), env
            case Seq():
                while True:
                    env = self.eval(e.first, env, below)[1]
                    e = e.second
                    if type(e) is not Seq:
                        return self.eval(e, env, below)
                    self.step(depth)  # the chain's next link
            case Func():
                return ClosV(e.body, e.param, dict(env)), env
            case App():
                fn = self.eval(e.fn, env, below)[0]
                arg = self.eval(e.arg, env, below)[0]
                if type(fn) is not ClosV:
                    raise _fault(FaultKind.NOT_A_FUNCTION, e)
                return self.eval(fn.body, {**fn.env, fn.param: arg}, below)[0], env
            case Ref():
                v = self.eval(e.inner, env, below)[0]
                loc = self.store.next_loc  # the next fresh location
                self.store.data[loc], self.store.next_loc = v, loc + 1
                return LocV(loc), env
            case Assign():
                v = self.eval(e.rhs, env, below)[0]
                if e.name not in env:
                    raise _fault(FaultKind.UNBOUND_VAR, e)
                cell = env[e.name]
                if type(cell) is not LocV:
                    raise _fault(FaultKind.NOT_A_LOC, e)
                self.store.data[cell.loc] = v
                return UnitV(), env
        raise TypeError(f"not an Expr: {e!r}")


def run(e: Expr, env: dict, store: Store, fuel: int, depth: int = 0) -> tuple[Outcome, int]:
    """Evaluate `e` from `env` and a copy of `store`, `depth` levels down: the
    outcome, and the fuel spent. Below the fuel it spends, a run that does not
    end in FuelExhausted does."""
    r = _Run(store, fuel)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(max(saved, 2 * MAX_DEPTH + 1000))
    try:
        v, env = r.eval(e, env, depth)
        out = Ok(v, State(env, r.store))
    except _Stop as stop:
        out = stop.outcome
    finally:
        sys.setrecursionlimit(saved)
    return out, fuel - r.fuel
