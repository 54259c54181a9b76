"""Reference interpreter: big-step evaluation with an environment and store.

evaluate() never raises for program-level failures; it returns an Outcome.
Fuel decrements once per rule application, so any divergence surfaces as
FuelExhausted after a bounded amount of work. The input store is copied up
front and no code changes an env it did not create (a `for` loop rebinds its
variable in its own copy, a closure captures a copy), which keeps the
caller's state intact; evaluating the same expression from equal states is
fully deterministic.

A run compiles each node it reaches into a closure `code(env) -> value`.
`_RULES` maps each `Expr` class to the `_Evaluator` method that compiles it,
and anything else raises TypeError when compiled. Only a statement chain
threads an env, in one loop down its `Seq` spine. An `If` branch is compiled
when first taken, and a closure body below each application node, the first
time that node applies it.

A pure expression (a literal, variable or dereference, or an operator over
pure operands) writes and allocates nothing and charges one per node in a
fixed order. So its code takes no fuel, and its node count is charged in one
step, by the rule that evaluates it first after its own charge or else by
one wrapper, with the outcome of one charge per node at every fuel.

Every operator runs one kernel, generated once per operator and operand kinds.
A pure one reads a variable (`env[x]`) or a dereference (`data[env[x].loc]`)
inline, takes an int literal as a default and calls any other operand's code;
an impure one hands its operands' values to its kernel. A failed read, or a
value the operator does not take, raises a Python error, which `_fault` turns
into the fault the operands' checked code or the operator gives.

Nesting depth is its own outcome. Evaluation that nests deeper than
`_MAX_DEPTH` rule applications ends in DepthExceeded, not FuelExhausted:
running out of budget and running out of stack are different diagnoses. Fuel
is checked first. A chain's statements all run one level below it. Each node
is compiled at the depth it runs at, so depth is checked once, when it is
compiled: a node `_MAX_DEPTH` levels down compiles to a stop.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from types import CodeType, FunctionType
from typing import NoReturn

from .syntax import (
    App, Assign, BinOp, Bool, Bop, Deref, Expr, For, Func, If, Let, Num, Pos, Ref, Seq, Unit, Var,
    While, record,
)

# ---------------------------------------------------------------------------
# Runtime values


class Value:
    """Every runtime value is a record but an integer, a Python `int`: `IntV`."""

    __slots__ = ()
    __init_subclass__ = record


IntV = int  # so `IntV(3)`, `isinstance(v, IntV)` and `case IntV(n)` name an int value


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
    """Ends evaluation early with the run's outcome. A stop in pure code
    carries its position `k`, the charges the fuel must cover to reach it: a
    variable or a dereference faults after its own charge, an operator after
    its operands' last, and a node too deep where its own would be."""

    def __init__(self, outcome: Outcome, k: int = 0):
        self.outcome, self.k = outcome, k


# Recursion in evaluated programs consumes fuel faster than Python stack
# frames, but a generous guard turns a would-be interpreter stack overflow
# into DepthExceeded instead of crashing the host.
_MAX_DEPTH = 2500

DEFAULT_FUEL = 10000  # the step budget of a run that names none

Code = Callable[[Env], Value]
Compiled = tuple[Code, int]  # a node's code, and its cost if it is pure, else 0


def _div(a: int, b: int) -> int:
    q = abs(a) // abs(b)  # truncate toward zero; ZeroDivisionError when b is 0
    return q if (a >= 0) == (b >= 0) else -q


def _eq(a: Value, b: Value) -> BoolV:
    if type(a) is type(b) and type(a) in (int, BoolV):
        return _BOOL(a == b)
    raise TypeError("== takes two ints or two booleans")


# Each operator's meaning, written once: a Python expression of its two operands that
# raises TypeError unless both are ints, or, for ==, two ints or two booleans.
_TEMPLATES = {BinOp.ADD: "{} + {}", BinOp.SUB: "{} - {}", BinOp.MUL: "{} * {}",
              BinOp.DIV: "_div({}, {})", BinOp.EQ: "_eq({}, {})",
              BinOp.LT: "_BOOL({} < {})", BinOp.GT: "_BOOL({} > {})"}

# How a kernel reads an operand of each kind from its default, `x` on the left and `y` on
# the right: a variable or dereference by name, an int literal as is, other pure code by a call.
_READS = {"var": "env[{}]", "deref": "data[env[{}].loc]", "num": "{}", "code": "{}(env)"}


class _Kernels(dict):
    """The code of a pure operator, one per (BinOp, left kind, right kind): at most 7 x 4 x 4."""

    def __missing__(self, key: tuple[BinOp, str, str]) -> CodeType:
        body = _TEMPLATES[key[0]].format(_READS[key[1]].format("x"), _READS[key[2]].format("y"))
        exec(f"def bop(env, x, y, data, f):\n try: return {body}\n except (KeyError,"
             " AttributeError, TypeError, ZeroDivisionError) as exc: _fault(exc, env, *f)",
             globals(), scope := {})
        self[key] = code = scope["bop"].__code__
        return code


_kernel = _Kernels()


def _fault(exc: Exception, env: Env, pos: Pos | None, k: int, lhs: Code, rhs: Code) -> NoReturn:
    """Stop the run at the fault behind `exc`, raised by an operator's code: an
    inline read's, where the checked code `lhs` and `rhs` stops, or the operator's."""
    if isinstance(exc, (KeyError, AttributeError)):  # one of them stops at its failed read
        lhs(env), rhs(env)
    kind = FaultKind.DIV_BY_ZERO if isinstance(exc, ZeroDivisionError) else FaultKind.NOT_AN_INT
    raise _Stop(RuntimeFault(kind, pos), k) from None


class _Evaluator:
    """One run's store and fuel, and the compiler of its code.

    A node is compiled at its level, the depth it runs at: the program at 0,
    each child one below its parent, and a closure body one below the
    application that calls it. So only `compile` checks depth, and code never
    does.

    `compile` returns a node's code and its cost: the node count of a pure
    expression, whose code takes no fuel, or 0 for code that charges itself,
    once on entry, with the pure operands it evaluates first. A charge that
    the fuel left does not cover calls `short`, which never returns; to find
    where the run stops, each node is compiled `at` charges into its charge.
    `_operand` picks how a kernel reads each operand; an impure operator
    hands its operands' values to the `num`, `num` kernel.
    """

    __slots__ = ("store", "fuel", "env")

    def __init__(self, store: Store, fuel: int):
        self.store, self.fuel = store, fuel
        self.env: Env = {}  # the env the last `let` or statement chain to finish left

    def short(self, env: Env, at: int, first: tuple[Code, ...]) -> NoReturn:
        """End a run short of a charge at `at + 1`: where the pure codes it covers stop."""
        try:
            for code in first:
                code(env)
        except _Stop as stop:
            if stop.k - at <= self.fuel:
                raise
        raise _Stop(FuelExhausted())

    def compile(self, e: Expr, level: int = 0, at: int = 0) -> Compiled:
        """The code of `e`, run `level` deep and `at` charges into its charge, and its cost."""
        if level >= _MAX_DEPTH:  # it runs at least this deep, so it stops the run
            def too_deep(env: Env, k: int = at + 1) -> NoReturn:  # a default, so `at` is no cell
                raise _Stop(DepthExceeded(_MAX_DEPTH), k)
            return too_deep, 1
        rule = _RULES.get(type(e))
        if rule is None:
            raise TypeError(f"not an Expr: {e!r}")
        return rule(self, e, level, at)

    def charged(self, code: Code, cost: int, at: int = 0, first: tuple | None = None) -> Code:
        """`code` behind one charge of `cost` at position `at + 1`, covering
        the pure codes `first` (by default `code`). No cost: it charges itself."""
        if not cost:
            return code
        ev, first = self, (code,) if first is None else first

        def charge(env: Env) -> Value:
            ev.fuel -= cost if ev.fuel >= cost else ev.short(env, at, first)
            return code(env)
        return charge

    # One compile rule per node type: _RULES maps class Num to method _num, and so on.

    def _num(self, e: Num, level: int, at: int) -> Compiled:
        return (lambda env, v=int(e.literal): v), 1

    def _bool(self, e: Bool, level: int, at: int) -> Compiled:
        return (lambda env, v=_BOOL(e.value): v), 1

    def _unit(self, e: Unit, level: int, at: int) -> Compiled:
        return (lambda env: UNIT), 1

    def _var(self, e: Var, level: int, at: int) -> Compiled:
        def var(env: Env, name=e.name, pos=e.pos, k=at + 1) -> Value:
            try:
                return env[name]
            except KeyError:
                raise _Stop(RuntimeFault(FaultKind.UNBOUND_VAR, pos), k) from None
        return var, 1

    def _bop(self, e: Bop, level: int, at: int) -> Compiled:
        lhs, n1 = self.compile(e.lhs, level + 1, at + 1)
        rhs, n2 = self.compile(e.rhs, level + 1, at + 1 + n1)
        pos, k = e.pos, at + 1 + n1 + n2  # k: where a pure one faults
        if n1 and n2:  # one kernel: its operands, store and fault are defaults, not cells
            a, x = self._operand(e.lhs, level + 1, lhs)
            b, y = self._operand(e.rhs, level + 1, rhs)
            defaults = (x, y, self.store.data, (pos, k, lhs, rhs))
            return FunctionType(_kernel[e.op, a, b], globals(), "bop", defaults), k - at
        # Its charge covers a pure left operand; a pure right one pays its own. Its operands
        # run outside the kernel of two values, so what they raise is their own.
        op = FunctionType(_kernel[e.op, "num", "num"], globals(), "bop", (None, (pos, k, lhs, rhs)))

        def impure(env: Env, lhs=lhs, rhs=self.charged(rhs, n2, at + 1 + n1), op=op) -> Value:
            return op(env, lhs(env), rhs(env))
        return self.charged(impure, 1 + n1, at, (lhs,) if n1 else ()), 0

    def _operand(self, e: Expr, level: int, code: Code) -> tuple[str, object]:
        """A pure operand's kind in a kernel and its default, given its checked `code`: any
        but a variable, dereference or int literal, or any `_MAX_DEPTH` deep, calls it."""
        kind = type(e) if level < _MAX_DEPTH else None
        if kind is Var or kind is Deref:
            return kind.__name__.lower(), e.name
        return ("num", int(e.literal)) if kind is Num else ("code", code)

    def _let(self, e: Let, level: int, at: int) -> Compiled:
        ev, name = self, e.name
        rhs, n = self.compile(e.rhs, level + 1, 1)
        cost, first = 1 + n, (rhs,) if n else ()

        def let(env: Env) -> Value:
            ev.fuel -= cost if ev.fuel >= cost else ev.short(env, 0, first)
            ev.env = {**env, name: rhs(env)}
            return UNIT
        return let, 0

    def _if(self, e: If, level: int, at: int) -> Compiled:
        # A branch is compiled the first time it is taken: most never are.
        ev, pos, then, orelse = self, e.pos, None, None
        cond, n = self.compile(e.cond, level + 1, 1)
        cost, first = 1 + n, (cond,) if n else ()

        def if_(env: Env) -> Value:
            nonlocal then, orelse
            ev.fuel -= cost if ev.fuel >= cost else ev.short(env, 0, first)
            cv = cond(env)
            if not isinstance(cv, BoolV):
                raise _Stop(RuntimeFault(FaultKind.NOT_A_BOOL, pos))
            if cv.b:
                then = then or ev.charged(*ev.compile(e.then, level + 1))
                return then(env)
            orelse = orelse or ev.charged(*ev.compile(e.orelse, level + 1))
            return orelse(env)
        return if_, 0

    def _while(self, e: While, level: int, at: int) -> Compiled:
        ev, pos = self, e.pos
        cond, n = self.compile(e.cond, level + 1, 1)
        cost, first = 1 + n, (cond,) if n else ()
        body = self.charged(*self.compile(e.body, level + 1))

        def while_(env: Env) -> Value:
            # Iterative form of the recursive rule; each unfolding of the loop
            # is one more rule application, charged with its guard.
            while True:
                ev.fuel -= cost if ev.fuel >= cost else ev.short(env, 0, first)
                cv = cond(env)
                if not isinstance(cv, BoolV):
                    raise _Stop(RuntimeFault(FaultKind.NOT_A_BOOL, pos))
                if not cv.b:
                    return UNIT
                body(env)
        return while_, 0

    def _for(self, e: For, level: int, at: int) -> Compiled:
        ev, pos, x = self, e.pos, e.var
        start = self.charged(*self.compile(e.start, level + 1))
        stop = self.charged(*self.compile(e.stop, level + 1))
        body = self.charged(*self.compile(e.body, level + 1))

        def for_(env: Env) -> Value:
            ev.fuel -= 1 if ev.fuel >= 1 else ev.short(env, 0, ())
            a, b = start(env), stop(env)
            if type(a) is not int or type(b) is not int:
                raise _Stop(RuntimeFault(FaultKind.NOT_AN_INT, pos))
            if a > b:
                raise _Stop(RuntimeFault(FaultKind.FOR_BOUNDS_INVALID, pos))
            # The recursive rule peels the upper bound: each level below the
            # base costs one application plus two bound evaluations.
            if ev.fuel < 3 * (b - a):
                raise _Stop(FuelExhausted())
            ev.fuel -= 3 * (b - a)
            local = dict(env)  # the loop's own env: each iteration rebinds x in it
            for i in range(a, b + 1):
                local[x] = i
                body(local)
            return UNIT
        return for_, 0

    def _seq(self, e: Seq, level: int, at: int) -> Compiled:
        # One loop down the chain: each link is charged here, its statement one level below.
        ev, links = self, []
        while isinstance(e, Seq):
            code, n = self.compile(e.first, level + 1)
            links.append((self.charged(code, n) if n else code, isinstance(e.first, (Let, Seq))))
            e = e.second
        last, last_binds = self.charged(*self.compile(e, level + 1)), isinstance(e, Let)

        def seq(env: Env) -> Value:
            for code, binds in links:
                ev.fuel -= 1 if ev.fuel >= 1 else ev.short(env, 0, ())
                code(env)
                if binds:  # a `let` or a nested chain: go on with the env it left
                    env = ev.env
            v = last(env)
            if not last_binds:
                ev.env = env
            return v
        return seq, 0

    def _func(self, e: Func, level: int, at: int) -> Compiled:
        ev, body, param = self, e.body, e.param

        def func(env: Env) -> Value:
            ev.fuel -= 1 if ev.fuel >= 1 else ev.short(env, 0, ())
            return ClosV(body, param, dict(env))  # a copy: a `for` rebinds in its env
        return func, 0

    def _app(self, e: App, level: int, at: int) -> Compiled:
        # A closure body runs one level below, compiled when this node first applies it.
        # Bodies belong to the program or the input state, which outlive the run: no id is reused.
        ev, pos, bodies = self, e.pos, {}
        fn, n1 = self.compile(e.fn, level + 1, 1)
        arg, n2 = self.compile(e.arg, level + 1, 1 + n1)
        cost, first = 1 + n1 + n2, (fn, arg)
        if not (n1 and n2):  # the charge covers a pure function; a pure argument pays its own
            cost, first, arg = 1 + n1, (fn,) if n1 else (), self.charged(arg, n2, 1 + n1)

        def app(env: Env) -> Value:
            ev.fuel -= cost if ev.fuel >= cost else ev.short(env, 0, first)
            fv, av = fn(env), arg(env)
            if not isinstance(fv, ClosV):
                raise _Stop(RuntimeFault(FaultKind.NOT_A_FUNCTION, pos))
            code = bodies.get(id(fv.body))
            if code is None:
                code = bodies[id(fv.body)] = ev.charged(*ev.compile(fv.body, level + 1))
            return code({**fv.env, fv.param: av})
        return app, 0

    def _ref(self, e: Ref, level: int, at: int) -> Compiled:
        ev, store = self, self.store
        inner, n = self.compile(e.inner, level + 1, 1)
        cost, first = 1 + n, (inner,) if n else ()

        def ref(env: Env) -> Value:
            ev.fuel -= cost if ev.fuel >= cost else ev.short(env, 0, first)
            return LocV(store.alloc(inner(env)))
        return ref, 0

    def _deref(self, e: Deref, level: int, at: int) -> Compiled:
        def deref(env: Env, data=self.store.data, name=e.name, pos=e.pos, k=at + 1) -> Value:
            try:
                return data[env[name].loc]
            except (KeyError, AttributeError):  # unbound, not a location, or not in the store
                kind = FaultKind.NOT_A_LOC if name in env else FaultKind.UNBOUND_VAR
                raise _Stop(RuntimeFault(kind, pos), k) from None
        return deref, 1

    def _assign(self, e: Assign, level: int, at: int) -> Compiled:
        ev, data, name, pos = self, self.store.data, e.name, e.pos
        rhs, n = self.compile(e.rhs, level + 1, 1)
        cost, first = 1 + n, (rhs,) if n else ()

        def assign(env: Env) -> Value:
            ev.fuel -= cost if ev.fuel >= cost else ev.short(env, 0, first)
            v = rhs(env)
            lv = env.get(name)
            if not isinstance(lv, LocV):
                kind = FaultKind.UNBOUND_VAR if lv is None else FaultKind.NOT_A_LOC
                raise _Stop(RuntimeFault(kind, pos))
            data[lv.loc] = v
            return UNIT
        return assign, 0


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
        v = ev.charged(*ev.compile(e))(env)
        return Ok(v, State(ev.env if isinstance(e, (Let, Seq)) else env, ev.store))
    except _Stop as stop:
        return stop.outcome
    finally:
        if sys.getrecursionlimit() != saved:
            sys.setrecursionlimit(saved)


def run_program(e: Expr, fuel: int) -> Outcome:
    """Evaluate a whole program from an empty environment and store."""
    return evaluate(e, {}, Store(), fuel)

