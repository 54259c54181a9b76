"""Randomized testing of the non-interference guarantee.

The generators build programs by inverting the typing rules: every
construction site only emits a form whose side conditions hold in the
current context. The generator models levels and floors only: each
expression is built once, under a cap on its level, and each statement
above a write floor (pc, or High in effect-clean mode), so nothing is built
and then thrown away. Expressions never apply an effectful function, so
they write nothing and no effect needs tracking. A suite's program source
hands each trial its program and the judgment of its one check; that check
is the generator's postcondition, and a `CheckError` from it is a
generator bug.

The generator's context is Γ, the checker's own `TEnv` of security types.
The runtime shape of a binding, which the type system does not track, is
its name's prefix (i, b, u, ri, rb or f: int, bool, unit, ref int, ref bool
or function), so that generated programs do not get stuck on shape errors
and state generation can build matching values from Γ alone.

Builders are drawn by weight from tables built once, at import (`_Table`).
A table names its builders and `_Gen.draw` looks each one up on the
generator, so a subclass that overrides a builder is the one called.

Each draw is one Python call that consumes the random stream as
`random.Random` would: a weighted pick takes one `random()`, as `choices`
does, and `choice` and `randint` take `getrandbits` words as `_randbelow`
does. So a seed gives the programs that the stdlib's own draws would.
"""

from __future__ import annotations

import json
import random
from bisect import bisect
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cache, partial
from itertools import accumulate
from pathlib import Path

from .equivalence import (
    INT_RANGE,
    EquivConfig,
    EquivStats,
    low_equiv,
    low_observable,
    related_values,
    value_equiv,
)
from .interpreter import (
    DEFAULT_FUEL,
    DepthExceeded,
    FuelExhausted,
    Ok,
    RuntimeFault,
    State,
    Store,
    Value,
    evaluate,
    pretty_value,
)
from .lattice import join, leq, meet  # meet: unused here, but bench/spans.py traces harness.meet
from .parser import ParseError, parse
from .syntax import (
    BINOP_LEVEL,
    CMP_LEVEL,
    EMPTY,
    HIGH,
    LOW,
    App,
    Assign,
    BinOp,
    Bool,
    Bop,
    Deref,
    Empty,
    Expr,
    For,
    Func,
    FunType,
    High,
    If,
    Let,
    Low,
    Num,
    Ref,
    RefType,
    SecType,
    Unit,
    Var,
    While,
    pretty,
    pretty_type,
    sequence,
)
from .typechecker import CheckError, Judgment, TEnv, check, check_program


@dataclass(frozen=True)
class GenConfig:
    rng_seed: int = 0
    fuel: int = DEFAULT_FUEL


MAX_DEPTH = 5  # statement and expression nesting of generated programs
MAX_FOR_SPAN = 4  # most iterations of a generated for or counter loop


# Trial outcomes ------------------------------------------------------------


@dataclass
class Pass:
    equiv_inconclusive: int = 0


@dataclass
class Discarded:
    reason: str  # "fuel", "runtime", "depth" or "unobservable"


@dataclass
class Violation:
    """Full reproducer for a failed trial."""

    program: Expr
    tenv: TEnv
    s1: State
    s2: State
    finals: tuple[State, State]
    seed: int
    detail: str


TrialResult = Pass | Discarded | Violation


# Deterministic seed derivation ----------------------------------------------

_MASK = (1 << 63) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_ROLE_TENV = 1
_ROLE_PROG = 2
_ROLE_STATE = 3
_ROLE_EQUIV = 4


def _derive(seed: int, salt: int) -> int:
    return (seed * _GOLDEN + salt) & _MASK


# Shapes ----------------------------------------------------------------------

# The shape prefixes, in `gen_tenv`'s draw order, each with its type at a level.
_TENV_CHOICES = [
    ("i", lambda lvl: lvl),
    ("b", lambda lvl: lvl),
    ("u", lambda lvl: LOW),
    ("ri", lambda lvl: RefType(lvl)),
    ("rb", lambda lvl: RefType(lvl)),
    ("f", lambda lvl: FunType(lvl, lvl, EMPTY)),
]
_SHAPES = frozenset(prefix for prefix, _ in _TENV_CHOICES)


class _Prefixes(dict):
    """Each name's prefix, the name without its trailing digits, when that
    is a shape, else None; worked out once per name. Generated names are a
    shape and a counter, so few are ever seen: 670 in 20,000 trials."""

    def __missing__(self, name: str) -> str | None:
        prefix = name.rstrip("0123456789")
        shape = self[name] = prefix if prefix in _SHAPES else None
        return shape


_PREFIXES = _Prefixes()


def _shape(name: str, t: SecType) -> str:
    """The shape of a binding of t: its name's prefix, or for a name with
    none, ri for a ref, f for a function and i for anything else."""
    shape = _PREFIXES[name]
    if shape is not None:
        return shape
    if isinstance(t, RefType):
        return "ri"
    if isinstance(t, FunType):
        return "f"
    return "i"


_BOTH = (LOW, HIGH)
_BOOL_OPS = tuple(op for op, level in BINOP_LEVEL.items() if level == CMP_LEVEL)
_INT_OPS = tuple(op for op, level in BINOP_LEVEL.items() if level != CMP_LEVEL)


# Program generator -----------------------------------------------------------


class _Table:
    """Options drawn by weight. A pick is `bisect(cum, random() * total, 0,
    last)`, the computation of `rng.choices(range(n), weights)`. The table
    of the options left after dropping one is built on first use and shared
    by every table that leaves the same options."""

    __slots__ = ("options", "items", "cum", "total", "last", "rest")

    def __init__(self, options: tuple[tuple[float, object], ...]):
        self.options = options
        self.items = [item for _, item in options]
        self.cum = list(accumulate(w for w, _ in options))
        self.total = self.cum[-1] + 0.0
        self.last = len(options) - 1
        self.rest: dict[int, _Table] = {}

    def without(self, i: int) -> _Table:
        rest = self.rest.get(i)
        if rest is None:
            rest = self.rest[i] = _table(self.options[:i] + self.options[i + 1 :])
        return rest


# Keyed by the options left, so misses in any order reach one table: about
# a hundred in all, where one per order of misses would be thousands.
_table = cache(_Table)


class _Gen:
    """Builds a program top-down, each subtree once.

    The context is Γ, a `TEnv`; a name's shape is read from its prefix. A
    binding statement adds the type the checker gives it, so the context
    after a program is the checker's `out_env`. A filter over the context
    tests a binding's type before its shape, which costs a call.

    An expression is built under a cap, the highest level it may have: a
    literal is Low, so one always exists; var, deref and app draw from
    sources at or below the cap, and bop and if pass it to their operands.
    App applies only functions with latent effect (), and every function
    the generator binds has latent (), so an expression writes nothing and
    is built without a pc. A statement writes at or above the floor, pc or
    High in effect-clean mode. Under a High floor, bound values are exactly
    High (`high_expr`), and a statement with no High source is not built.

    It draws through `rng`'s `random` and `getrandbits`, bound once. Its
    `choice` and `randint` compute what `rng.choice` and `rng.randint`
    would, from the same words of the stream.
    """

    def __init__(self, rng: random.Random, effect_clean: bool = False):
        self.random = rng.random
        self.getrandbits = rng.getrandbits
        self.effect_clean = effect_clean
        self.counter = 10  # generated names stay clear of tenv indices

    def fresh(self, prefix: str) -> str:
        name = f"{prefix}{self.counter}"
        self.counter += 1
        return name

    def floor(self, pc: SecType) -> SecType:
        return HIGH if self.effect_clean else pc

    def choice(self, seq):
        """`rng.choice(seq)`: an index below n = len(seq) from k = n's bit
        length random bits, drawn again while it is n or more."""
        n = len(seq)
        if not n:
            raise IndexError("Cannot choose from an empty sequence")
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return seq[r]

    def randint(self, a: int, b: int) -> int:
        """`rng.randint(a, b)`: a + an index below b - a + 1, drawn as
        `choice` draws one."""
        n = b - a + 1
        if n <= 0:
            raise ValueError(f"empty range for randint({a}, {b})")
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return a + r

    def draw(self, table: _Table, *args):
        """Draw builders from `table` by weight, without replacement, until
        one builds. A builder returns None, having built nothing, when the
        context has no source for it; a literal or an expression statement
        always builds. A miss moves on to the table of the options left."""
        while True:
            pick = bisect(table.cum, self.random() * table.total, 0, table.last)
            built = getattr(self, table.items[pick])(*args)
            if built is not None:
                return built
            table = table.without(pick)

    # -- expressions ---------------------------------------------------------

    def gen_expr(self, ctx: TEnv, depth, shape, cap):
        """(expr, level): an expression of the given shape (i, b or u) whose
        level is at most `cap`. It writes nothing, so it needs no pc."""
        if shape == "u":
            table = _UNIT_EXPRS
        elif depth <= 0:
            table = _LEAF_EXPRS
        else:
            table = _INT_EXPRS if shape == "i" else _BOOL_EXPRS
        return self.draw(table, ctx, depth, shape, cap)

    def high_expr(self, ctx: TEnv, shape) -> Expr | None:
        """An expression of exactly High: a High variable or a deref of a
        ref High of the given shape, or None when none is in scope."""
        sources = [
            (Var, n) for n, t in ctx.items() if isinstance(t, High) and _shape(n, t) == shape
        ]
        sources += [
            (Deref, n)
            for n, t in ctx.items()
            if isinstance(t, RefType) and isinstance(t.inner, High) and _shape(n, t) == "r" + shape
        ]
        if not sources:
            return None
        node, name = self.choice(sources)
        return node(name)

    def _expr_literal(self, ctx, depth, shape, cap):
        if shape == "i":
            return Num(str(self.randint(*INT_RANGE))), LOW
        if shape == "b":
            return Bool(self.random() < 0.5), LOW
        return Unit(), LOW

    def _expr_var(self, ctx, depth, shape, cap):
        names = [n for n, t in ctx.items() if _shape(n, t) == shape and leq(t, cap)]
        if not names:
            return None
        name = self.choice(names)
        return Var(name), ctx[name]

    def _expr_deref(self, ctx, depth, shape, cap):
        names = [
            n
            for n, t in ctx.items()
            if isinstance(t, RefType) and leq(t.inner, cap) and _shape(n, t) == "r" + shape
        ]
        if not names:
            return None
        name = self.choice(names)
        return Deref(name), ctx[name].inner

    def _expr_bop(self, ctx, depth, shape, cap):
        if shape == "i":
            op = self.choice(_INT_OPS)
            operand_shape = "i"
        else:
            op = self.choice(_BOOL_OPS)
            operand_shape = "b" if op is BinOp.EQ and self.random() < 0.5 else "i"
        e1, t1 = self.gen_expr(ctx, depth - 1, operand_shape, cap)
        if op is BinOp.DIV:
            # nonzero literal divisor keeps generated programs from faulting
            return Bop(op, e1, Num(str(self.randint(1, 8)))), t1
        if op is BinOp.MUL:
            # literal factor caps value growth per step; repeated squaring
            # inside loops would otherwise make single steps arbitrarily slow
            return Bop(op, e1, Num(str(self.randint(*INT_RANGE)))), t1
        e2, t2 = self.gen_expr(ctx, depth - 1, operand_shape, cap)
        if self.random() < 0.5:
            e1, e2 = e2, e1
        return Bop(op, e1, e2), join([t1, t2])

    def _expr_app(self, ctx, depth, shape, cap):
        # only a function that writes nothing keeps the application effect-free
        funs = [
            n
            for n, t in ctx.items()
            if isinstance(t, FunType) and isinstance(t.latent, Empty) and leq(t.result, cap)
            and _shape(n, t) == "f"
        ]
        if not funs:
            return None
        name = self.choice(funs)
        ft: FunType = ctx[name]
        if isinstance(ft.param, High):
            arg = self.high_expr(ctx, "i")
            if arg is None:
                return None
        else:
            arg = self.gen_expr(ctx, depth - 1, "i", LOW)[0]
        return App(Var(name), arg), ft.result

    def _expr_ifexpr(self, ctx, depth, shape, cap):
        ce, ct = self.gen_expr(ctx, depth - 1, "b", cap)
        te, tt = self.gen_expr(ctx, depth - 1, shape, cap)
        oe, ot = self.gen_expr(ctx, depth - 1, shape, cap)
        return If(ce, te, oe), join([ct, tt, ot])

    # -- statements ----------------------------------------------------------

    def gen_program(self, ctx: TEnv, pc, depth) -> Expr:
        stmts: list[Expr] = []
        for _ in range(self.randint(1, 3)):
            stmts.extend(self.gen_stmt(ctx, pc, depth))
        if self.random() < 0.6:
            stmts.extend(self._stmt_expr(ctx, pc, depth))
        return sequence(stmts)

    def gen_stmt(self, ctx: TEnv, pc, depth) -> list[Expr]:
        return self.draw(_STMTS if depth > 0 else _FLAT_STMTS, ctx, pc, depth)

    def _stored(self, ctx, pc, depth, shape):
        """(expr, level) of a value to bind: any level under a Low floor,
        exactly High under a High one (None with no High source)."""
        if isinstance(self.floor(pc), Low):
            return self.gen_expr(ctx, depth, shape, HIGH)
        e = self.high_expr(ctx, shape)
        return None if e is None else (e, HIGH)

    def _stmt_expr(self, ctx, pc, depth):
        table = _STMT_EXPR_SHAPES
        shape = table.items[bisect(table.cum, self.random() * table.total, 0, table.last)]
        return [self.gen_expr(ctx, depth, shape, HIGH)[0]]

    def _stmt_let_base(self, ctx, pc, depth):
        shape = self.choice(("i", "i", "b"))
        got = self._stored(ctx, pc, depth, shape)
        if got is None:
            return None
        name = self.fresh(shape)
        ctx[name] = got[1]
        return [Let(name, None, got[0])]

    def _stmt_let_annot(self, ctx, pc, depth):
        ann = HIGH if isinstance(self.floor(pc), High) else self.choice(_BOTH)
        shape = self.choice(("i", "i", "b"))
        rhs = self.gen_expr(ctx, depth, shape, ann)[0]
        name = self.fresh(shape)
        ctx[name] = ann
        return [Let(name, ann, rhs)]

    def _stmt_let_ref(self, ctx, pc, depth):
        shape = self.choice(("i", "i", "b"))
        got = self._stored(ctx, pc, depth, shape)
        if got is None:
            return None
        name = self.fresh("r" + shape)
        ctx[name] = RefType(got[1])
        return [Let(name, None, Ref(got[0]))]

    def _stmt_let_fun(self, ctx, pc, depth):
        if isinstance(self.floor(pc), High):
            return None
        param_t = self.choice(_BOTH)
        param = self.fresh("i")
        body_ctx = dict(ctx)
        body_ctx[param] = param_t
        body, result_t = self.gen_expr(body_ctx, min(depth - 1, 2), "i", HIGH)
        name = self.fresh("f")
        ctx[name] = FunType(param_t, result_t, EMPTY)
        return [Let(name, None, Func(param, param_t, body))]

    def _stmt_assign(self, ctx, pc, depth):
        floor = self.floor(pc)
        targets = [n for n, t in ctx.items() if isinstance(t, RefType) and leq(floor, t.inner)]
        if not targets:
            return None
        name = self.choice(targets)
        t = ctx[name]
        # a ref's shape ends in the shape of its contents
        return [Assign(name, self.gen_expr(ctx, depth, _shape(name, t)[-1], t.inner)[0])]

    def _stmt_app(self, ctx, pc, depth):
        got = self._expr_app(ctx, max(depth, 1), "i", HIGH)
        return None if got is None else [got[0]]

    def _stmt_if(self, ctx, pc, depth):
        ce, ct = self.gen_expr(ctx, depth - 1, "b", HIGH)
        pc2 = join([pc, ct])
        then = self.gen_program(dict(ctx), pc2, depth - 1)
        orelse = self.gen_program(dict(ctx), pc2, depth - 1)
        return [If(ce, then, orelse)]

    def _stmt_while(self, ctx, pc, depth):
        # let c = ref(k); while !c > 0 { ...; c := !c - 1 }, or rarely a loop
        # that increments its own counter: it burns fuel, exercising the
        # discard path
        diverge = self.random() < 0.06
        if isinstance(self.floor(pc), High):
            init = self.high_expr(ctx, "i")
            if init is None:
                return None
            level = HIGH
        else:
            init = Num("1" if diverge else str(self.randint(1, MAX_FOR_SPAN)))
            level = LOW
        name = self.fresh("ri")
        if diverge:
            body: Expr = Assign(name, Bop(BinOp.ADD, Deref(name), Num("1")))
        else:
            # the body is generated without the counter in view, so nothing
            # can reassign it and the trailing decrement guarantees termination
            stmts = self.gen_stmt(dict(ctx), join([pc, level]), depth - 1)
            body = sequence([*stmts, Assign(name, Bop(BinOp.SUB, Deref(name), Num("1")))])
        ctx[name] = RefType(level)
        cond = Bop(BinOp.GT, Deref(name), Num("0"))
        return [Let(name, None, Ref(init)), While(cond, body)]

    def _stmt_for(self, ctx, pc, depth):
        a = self.randint(-2, 2)
        b = a + self.randint(0, MAX_FOR_SPAN)
        var = self.fresh("i")
        body_ctx = dict(ctx)
        body_ctx[var] = pc  # bounds are literals, so pc2 == pc
        body = self.gen_program(body_ctx, pc, depth - 1)
        return [For(var, Num(str(a)), Num(str(b)), body)]


# The generator's option lists, each a table built once: (weight, builder name).
_LEAF_EXPRS = _Table(((3.0, "_expr_literal"), (4.0, "_expr_var"), (3.0, "_expr_deref")))
_BOOL_EXPRS = _Table((*_LEAF_EXPRS.options, (3.0, "_expr_bop"), (1.0, "_expr_ifexpr")))
_INT_EXPRS = _Table((*_BOOL_EXPRS.options, (1.5, "_expr_app")))
_UNIT_EXPRS = _Table(((4.0, "_expr_literal"), (3.0, "_expr_var")))
_FLAT_STMTS = _Table((
    (1.0, "_stmt_expr"), (2.5, "_stmt_let_base"), (1.5, "_stmt_let_annot"),
    (2.0, "_stmt_let_ref"), (1.5, "_stmt_let_fun"), (2.5, "_stmt_assign"), (1.5, "_stmt_app"),
))
_STMTS = _Table((*_FLAT_STMTS.options, (1.5, "_stmt_if"), (1.0, "_stmt_while"), (1.0, "_stmt_for")))
_STMT_EXPR_SHAPES = _Table(((3, "i"), (1.5, "b"), (0.5, "u")))


# Public generator entry points ------------------------------------------------

def gen_tenv(cfg: GenConfig) -> TEnv:
    """A random typing context of 0..6 bindings.

    Prefixes name the runtime shape; security levels vary independently.
    """
    g = _Gen(random.Random(_derive(cfg.rng_seed, _ROLE_TENV)))
    tenv: TEnv = {}
    for i in range(g.randint(0, 6)):
        prefix, mk = g.choice(_TENV_CHOICES)
        level = g.choice(_BOTH)
        tenv[f"{prefix}{i}"] = mk(level)
    return tenv


def gen_welltyped(cfg: GenConfig, tenv: TEnv, pc: SecType, effect_clean: bool = False) -> Expr:
    """A program meant to pass the checker under (tenv, pc).

    Construction satisfies every side condition outright, so the program is
    not checked here; the suite's program source checks it once, and a
    rejection there is a generator bug. Every function the program binds
    has latent effect (). A function in `tenv` with a latent effect stays in
    scope but is never applied; `gen_tenv` makes none, and no caller passes
    one.
    """
    g = _Gen(random.Random(_derive(cfg.rng_seed, _ROLE_PROG)), effect_clean=effect_clean)
    return g.gen_program(dict(tenv), pc, MAX_DEPTH)


def gen_lowequiv_states(cfg: GenConfig, tenv: TEnv) -> tuple[State, State]:
    """Two states for tenv that agree on everything a low observer sees.

    Each binding gets a pair from `related_values`, of the shape its name
    encodes: a ref's shape ends in the shape of its contents.
    """
    rng = random.Random(_derive(cfg.rng_seed, _ROLE_STATE))
    env1: dict[str, Value] = {}
    env2: dict[str, Value] = {}
    st1, st2 = Store(), Store()
    for name, t in tenv.items():
        env1[name], env2[name] = related_values(t, rng, st1, st2, _shape(name, t)[-1])
    s1, s2 = State(env1, st1), State(env2, st2)
    eq_cfg = EquivConfig(rng_seed=_derive(cfg.rng_seed, _ROLE_EQUIV))
    assert low_equiv(tenv, s1, s2, eq_cfg), "generated states must be low-equivalent"
    return s1, s2


# Trial runners ----------------------------------------------------------------


def _states_agree(j: Judgment, outs: list[Ok], finals: tuple[State, State], eq_cfg, stats):
    return low_equiv(j.out_env, finals[0], finals[1], eq_cfg, stats)


def _results_agree(j: Judgment, outs: list[Ok], finals: tuple[State, State], eq_cfg, stats):
    o1, o2 = outs
    return value_equiv(o1.value, o1.state.store, o2.value, o2.state.store, j.ty, eq_cfg, stats)


def _steered(
    pc: SecType, cfg: GenConfig, tenv: TEnv, effect_clean: bool = False
) -> tuple[Expr, Judgment]:
    """A program source: the steered generator's program and its judgment,
    from the trial path's only checker call; a `CheckError`, or a Low effect
    in effect-clean mode, is a generator bug. `gen_welltyped` and `check` are
    read at call time, so tests and tracers can swap them."""
    prog = gen_welltyped(cfg, tenv, pc, effect_clean=effect_clean)
    j = check(tenv, pc, prog)
    clean = isinstance(j.effect, (High, Empty))
    assert clean or not effect_clean, "effect-clean program has a Low effect"
    return prog, j


def _observable(cfg: GenConfig, tenv: TEnv) -> tuple[Expr, Judgment] | None:
    """lemma1's source: the first of eight pc-Low draws, at seeds salted
    31-38, whose type a low observer can see, else None."""
    for salt in range(31, 39):
        prog, j = _steered(LOW, replace(cfg, rng_seed=_derive(cfg.rng_seed, salt)), tenv)
        if low_observable(j.ty):
            return prog, j
    return None


@dataclass(frozen=True)
class _Suite:
    """What one suite varies; `_trial` runs the steps they all share."""

    salt: int  # derives the suite's per-trial seeds
    detail: str  # Violation text; {ty} is the program's type
    # (cfg, tenv) -> (program, judgment), or None to discard the trial as
    # "unobservable"; the source checks the program, the trial never does
    program: Callable[[GenConfig, TEnv], tuple[Expr, Judgment] | None]
    runs: int = 2  # 1: run s1 only and compare it with its own final state
    observe: Callable[..., bool] = _states_agree


_SUITE_TABLE = {
    # final states of two low-equivalent runs stay low-equivalent
    "soundness": _Suite(11, "final states differ for a low observer", partial(_steered, LOW)),
    # results at a low-observable type agree across low-equivalent runs
    "lemma1": _Suite(12, "results differ at type {ty}", _observable, observe=_results_agree),
    # a program typed under a high pc cannot change the low view
    "lemma2": _Suite(13, "high-pc program changed the low view", partial(_steered, HIGH), runs=1),
    # a program whose effect is High or () cannot change the low view
    "lemma5": _Suite(
        14, "effect-free program changed the low view",
        partial(_steered, LOW, effect_clean=True), runs=1,
    ),
}

SUITES = tuple(_SUITE_TABLE)


# Why a run that did not finish discards its trial; SuiteReport counts each
# cause in its discarded_<cause> field.
_DISCARD_CAUSE = {FuelExhausted: "fuel", RuntimeFault: "runtime", DepthExceeded: "depth"}


def _trial(suite: _Suite, cfg: GenConfig) -> TrialResult:
    """One trial: the suite's program, run from low-equivalent states, must
    leave the suite's observer unable to tell the runs apart. The suite's
    source hands over the program with its judgment."""
    tenv = gen_tenv(cfg)
    chosen = suite.program(cfg, tenv)
    if chosen is None:
        return Discarded("unobservable")
    prog, j = chosen
    s1, s2 = gen_lowequiv_states(cfg, tenv)
    if suite.runs == 1:
        s2 = s1
    outs = [evaluate(prog, s.env, s.store, cfg.fuel) for s in (s1, s2)[: suite.runs]]
    for o in outs:
        if not isinstance(o, Ok):
            return Discarded(_DISCARD_CAUSE[type(o)])
    finals = (outs[0].state if suite.runs == 2 else s1, outs[-1].state)
    stats = EquivStats()
    eq_cfg = EquivConfig(rng_seed=_derive(cfg.rng_seed, _ROLE_EQUIV))
    if suite.observe(j, outs, finals, eq_cfg, stats):
        return Pass(stats.inconclusive_runs)
    detail = suite.detail.format(ty=pretty_type(j.ty))
    return Violation(prog, tenv, s1, s2, finals, cfg.rng_seed, detail)


# Looked up on every run_suite call, so tests and tracers can swap entries.
_TRIAL_FNS = {name: partial(_trial, suite) for name, suite in _SUITE_TABLE.items()}


@dataclass
class SuiteReport:
    suite: str
    trials: int
    passes: int = 0
    discarded_fuel: int = 0
    discarded_runtime: int = 0
    discarded_depth: int = 0
    discarded_unobservable: int = 0
    equiv_inconclusive: int = 0
    violations: list[dict] = field(default_factory=list)

    def _discards(self) -> dict[str, int]:
        """Discarded trials by cause, read from the discarded_<cause> fields."""
        return {
            f.name.removeprefix("discarded_"): getattr(self, f.name)
            for f in fields(self)
            if f.name.startswith("discarded_")
        }

    @property
    def discarded(self) -> int:
        return sum(self._discards().values())

    def to_json(self) -> dict:
        """Every field in order, with `violations` counted and listed after."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["violations"], out["violation_details"] = len(self.violations), self.violations
        return out

    def summary(self) -> str:
        causes = ", ".join(f"{cause}={n}" for cause, n in self._discards().items())
        return (
            f"suite {self.suite}: trials={self.trials} pass={self.passes}"
            f" discard={self.discarded} ({causes})"
            f" inconclusive={self.equiv_inconclusive}"
            f" violations={len(self.violations)}"
        )


def _state_json(s: State) -> dict:
    return {
        "env": {name: pretty_value(v) for name, v in s.env.items()},
        "store": {str(loc): pretty_value(s.store.data[loc]) for loc in sorted(s.store.data)},
    }


def run_suite(suite: str, cfg: GenConfig, trials: int) -> SuiteReport:
    """Run `trials` independent trials of one suite with per-trial derived seeds."""
    fn = _TRIAL_FNS[suite]
    base = _derive(cfg.rng_seed, _SUITE_TABLE[suite].salt)
    report = SuiteReport(suite, trials)
    for i in range(trials):
        tcfg = replace(cfg, rng_seed=_derive(base, i + 1))
        result = fn(tcfg)
        match result:
            case Pass(inconclusive):
                report.passes += 1
                report.equiv_inconclusive += inconclusive
            case Discarded(cause):
                counter = "discarded_" + cause
                setattr(report, counter, getattr(report, counter) + 1)
            case Violation(program=program, tenv=tenv, s1=s1, s2=s2, seed=seed, detail=detail):
                if len(report.violations) < 5:
                    report.violations.append(
                        {
                            "trial": i,
                            "seed": seed,
                            "detail": detail,
                            "tenv": {k: pretty_type(t) for k, t in tenv.items()},
                            "program": pretty(program),
                            "s1": _state_json(s1),
                            "s2": _state_json(s2),
                        }
                    )
                else:
                    report.violations.append({"trial": i, "seed": seed, "detail": detail})
    return report


# Corpus regression -------------------------------------------------------------


@dataclass
class CorpusRow:
    file: str
    expected_verdict: str
    expected_rule: str | None
    actual_verdict: str
    actual_rule: str | None
    ok: bool

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class CorpusReport:
    rows: list[CorpusRow]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_json(self) -> dict:
        return {"ok": self.ok, "rows": [r.to_json() for r in self.rows]}

    def summary(self) -> str:
        lines = []
        for r in self.rows:
            mark = "ok" if r.ok else "MISMATCH"
            want = r.expected_verdict + (f" ({r.expected_rule})" if r.expected_rule else "")
            got = r.actual_verdict + (f" ({r.actual_rule})" if r.actual_rule else "")
            lines.append(f"{mark:8} {r.file}: expected {want}, got {got}")
        return "\n".join(lines)


def default_corpus_dir() -> Path:
    return Path(__file__).parent / "corpus"


class CorpusError(Exception):
    """A corpus's expectations.json cannot be read or is malformed; the
    message names the file."""


def _read_expectations(path: Path) -> dict:
    try:
        expectations = json.loads(path.read_text())
    except OSError as err:
        raise CorpusError(f"cannot read {path}: {err.strerror or err}") from None
    except ValueError as err:  # not UTF-8, or not JSON
        raise CorpusError(f"{path}: not valid JSON: {err}") from None
    if not isinstance(expectations, dict):
        raise CorpusError(f"{path}: expected an object of entries by file name")
    for name, want in expectations.items():
        if not isinstance(want, dict) or "verdict" not in want:
            raise CorpusError(f'{path}: entry {name!r} has no "verdict"')
    return expectations


def run_corpus(corpus_dir: str | Path | None = None) -> CorpusReport:
    """Check every corpus program against its recorded verdict. Raises
    CorpusError before checking any program if expectations.json is bad."""
    root = Path(corpus_dir) if corpus_dir is not None else default_corpus_dir()
    expectations = _read_expectations(root / "expectations.json")
    rows: list[CorpusRow] = []
    for name, want in expectations.items():
        want_verdict = want["verdict"]
        want_rule = want.get("rule")
        path = root / name
        if not path.is_file():
            rows.append(CorpusRow(name, want_verdict, want_rule, "missing", None, False))
            continue
        try:
            ast = parse(path.read_bytes())
        except OSError:
            rows.append(CorpusRow(name, want_verdict, want_rule, "unreadable", None, False))
            continue
        except ParseError:
            rows.append(CorpusRow(name, want_verdict, want_rule, "parse-error", None, False))
            continue
        try:
            check_program(ast)
            actual_verdict, actual_rule = "accept", None
        except CheckError as err:
            actual_verdict, actual_rule = "reject", err.rule
        ok = actual_verdict == want_verdict and (
            want_rule is None or want_rule == actual_rule
        )
        rows.append(CorpusRow(name, want_verdict, want_rule, actual_verdict, actual_rule, ok))
    return CorpusReport(rows)
