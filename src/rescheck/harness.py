"""Randomized testing of the non-interference guarantee.

The generators build programs by inverting the typing rules: every
construction site only emits a form whose side conditions hold in the
current context. Each trial checks its program once; that check is the
generator's postcondition, and a `CheckError` from it is a generator bug.
Alongside the security level of each binding the generator tracks a runtime
shape (int, bool, unit, ref or function), which the type system itself does
not, so that generated programs do not get stuck on shape errors.

Variable names encode their shape by prefix (i/b/u/ri/rb/f) so that state
generation can build matching values from the type environment alone.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

from .equivalence import (
    EquivConfig,
    EquivStats,
    canonical_closure,
    low_equiv,
    low_observable,
    value_equiv,
)
from .interpreter import (
    BoolV,
    ClosV,
    DepthExceeded,
    FuelExhausted,
    IntV,
    LocV,
    Ok,
    RuntimeFault,
    State,
    Store,
    UnitV,
    Value,
    evaluate,
    pretty_value,
)
from .lattice import join, leq, meet
from .parser import ParseError, parse
from .syntax import (
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
    Seq,
    Unit,
    Var,
    While,
    pretty,
    pretty_type,
)
from .typechecker import CheckError, Judgment, TEnv, check, check_program


@dataclass(frozen=True)
class GenConfig:
    rng_seed: int = 0
    fuel: int = 10000
    trials: int = 200


MAX_DEPTH = 5  # statement and expression nesting of generated programs
MAX_FOR_SPAN = 4  # most iterations of a generated for or counter loop
INT_RANGE = (-8, 8)  # generated int literals and state values


# Trial outcomes ------------------------------------------------------------


@dataclass
class Pass:
    equiv_inconclusive: int = 0


@dataclass
class Discarded:
    reason: str  # "fuel", "runtime" or "depth"


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


# Shape tracking --------------------------------------------------------------

_PREFIXES = {
    "ri": ("ref", "int"),
    "rb": ("ref", "bool"),
    "i": "int",
    "b": "bool",
    "u": "unit",
    "f": "fun",
}


def _kind_from_name(name: str, t: SecType):
    stem = name.rstrip("0123456789")
    for prefix, kind in _PREFIXES.items():
        if stem == prefix:
            return kind
    if isinstance(t, RefType):
        return ("ref", "int")
    if isinstance(t, FunType):
        return "fun"
    return "int"


def _ctx_from_tenv(tenv: TEnv) -> dict[str, tuple[SecType, object]]:
    return {name: (t, _kind_from_name(name, t)) for name, t in tenv.items()}


_BOTH = (LOW, HIGH)


# Program generator -----------------------------------------------------------


class _Gen:
    def __init__(self, rng: random.Random, effect_clean: bool = False):
        self.rng = rng
        self.effect_clean = effect_clean
        self.counter = 10  # generated names stay clear of tenv indices

    def fresh(self, prefix: str) -> str:
        name = f"{prefix}{self.counter}"
        self.counter += 1
        return name

    def literal(self, kind) -> Expr:
        if kind == "int":
            return Num(str(self.rng.randint(*INT_RANGE)))
        if kind == "bool":
            return Bool(self.rng.random() < 0.5)
        return Unit()

    # -- expressions ---------------------------------------------------------

    def gen_expr(self, ctx, pc, depth, kind, allowed, pure):
        """An expression of the given shape whose level lands in `allowed`.

        Returns (expr, level, effect) or None when the context cannot
        supply the required level (for example High with no high source).
        """
        options = []
        if kind == "unit":
            if LOW in allowed:
                options.append((4.0, "literal"))
            options.append((3.0, "var"))
        else:
            if LOW in allowed:
                options.append((3.0, "literal"))
            options.append((4.0, "var"))
            options.append((3.0, "deref"))
            if depth > 0:
                options.append((3.0, "bop"))
                options.append((1.0, "ifexpr"))
                if kind == "int":
                    options.append((1.5, "app"))

        while options:
            weights = [w for w, _ in options]
            pick = self.rng.choices(range(len(options)), weights=weights, k=1)[0]
            _, name = options.pop(pick)
            built = getattr(self, "_expr_" + name)(ctx, pc, depth, kind, allowed, pure)
            if built is not None:
                return built
        return None

    def _expr_literal(self, ctx, pc, depth, kind, allowed, pure):
        return self.literal(kind), LOW, EMPTY

    def _expr_var(self, ctx, pc, depth, kind, allowed, pure):
        names = [n for n, (t, k) in ctx.items() if k == kind and t in allowed]
        if not names:
            return None
        name = self.rng.choice(names)
        return Var(name), ctx[name][0], EMPTY

    def _expr_deref(self, ctx, pc, depth, kind, allowed, pure):
        names = [
            n
            for n, (t, k) in ctx.items()
            if k == ("ref", kind) and isinstance(t, RefType) and t.inner in allowed
        ]
        if not names:
            return None
        name = self.rng.choice(names)
        return Deref(name), ctx[name][0].inner, EMPTY

    def _expr_bop(self, ctx, pc, depth, kind, allowed, pure):
        rng = self.rng
        if kind == "int":
            op = rng.choice([BinOp.ADD, BinOp.SUB, BinOp.MUL, BinOp.DIV])
            operand_kind = "int"
        else:
            op = rng.choice([BinOp.EQ, BinOp.LT, BinOp.GT])
            operand_kind = "bool" if op is BinOp.EQ and rng.random() < 0.5 else "int"
            if op in (BinOp.LT, BinOp.GT):
                operand_kind = "int"
        if allowed == frozenset({HIGH}):
            first = self.gen_expr(ctx, pc, depth - 1, operand_kind, frozenset({HIGH}), pure)
            if first is None:
                return None
            second_allowed = frozenset(_BOTH)
        else:
            first = self.gen_expr(ctx, pc, depth - 1, operand_kind, allowed, pure)
            if first is None:
                return None
            second_allowed = allowed
        if op is BinOp.DIV:
            # nonzero literal divisor keeps generated programs from faulting
            second = Num(str(self.rng.randint(1, 8))), LOW, EMPTY
        elif op is BinOp.MUL:
            # literal factor caps value growth per step; repeated squaring
            # inside loops would otherwise make single steps arbitrarily slow
            second = Num(str(self.rng.randint(-8, 8))), LOW, EMPTY
        else:
            second = self.gen_expr(ctx, pc, depth - 1, operand_kind, second_allowed, pure)
        if second is None:
            return None
        e1, t1, f1 = first
        e2, t2, f2 = second
        if self.rng.random() < 0.5 and op not in (BinOp.DIV, BinOp.MUL):
            e1, t1, f1, e2, t2, f2 = e2, t2, f2, e1, t1, f1
        level = join([t1, t2])
        if level not in allowed:
            return None
        return Bop(op, e1, e2), level, meet([f1, f2])

    def _expr_app(self, ctx, pc, depth, kind, allowed, pure):
        funs = []
        for n, (t, k) in ctx.items():
            if k != "fun" or not isinstance(t, FunType):
                continue
            if t.result not in allowed:
                continue
            if pure and not isinstance(t.latent, Empty):
                continue
            if self.effect_clean and isinstance(t.latent, Low):
                continue
            # applying under this pc must satisfy meet{effects} >= pc
            if not leq(pc, meet([EMPTY, t.latent])):
                continue
            funs.append(n)
        if not funs:
            return None
        name = self.rng.choice(funs)
        ft: FunType = ctx[name][0]
        arg = self.gen_expr(ctx, pc, depth - 1, "int", frozenset({ft.param}), True)
        if arg is None:
            return None
        e, _, f_arg = arg
        effect = meet([f_arg, ft.latent, EMPTY])
        return App(Var(name), e), ft.result, effect

    def _expr_ifexpr(self, ctx, pc, depth, kind, allowed, pure):
        cond = self.gen_expr(ctx, pc, depth - 1, "bool", frozenset(_BOTH), pure)
        if cond is None:
            return None
        ce, ct, cf = cond
        pc2 = join([pc, ct])
        then = self.gen_expr(ctx, pc2, depth - 1, kind, frozenset(_BOTH), pure)
        orelse = self.gen_expr(ctx, pc2, depth - 1, kind, frozenset(_BOTH), pure)
        if then is None or orelse is None:
            return None
        te, tt, tf = then
        oe, ot, of = orelse
        level = join([ct, tt, ot])
        if level not in allowed:
            return None
        return If(ce, te, oe), level, meet([cf, tf, of])

    def gen_value_expr(self, ctx, pc, depth):
        kind = self.rng.choices(["int", "bool", "unit"], weights=[3, 1.5, 0.5], k=1)[0]
        return self.gen_expr(ctx, pc, depth, kind, frozenset(_BOTH), False)

    # -- statements ----------------------------------------------------------

    def gen_program(self, ctx, pc, depth) -> Expr:
        stmts: list[Expr] = []
        for _ in range(self.rng.randint(1, 3)):
            stmts.extend(self.gen_stmt(ctx, pc, depth))
        if self.rng.random() < 0.6 or not stmts:
            got = self.gen_value_expr(ctx, pc, depth)
            if got is not None:
                stmts.append(got[0])
        if not stmts:
            stmts.append(self.literal("int"))
        e = stmts[-1]
        for s in reversed(stmts[:-1]):
            e = Seq(s, e)
        return e

    def gen_stmt(self, ctx, pc, depth) -> list[Expr]:
        options = [
            (1.0, "expr"),
            (2.5, "let_base"),
            (1.5, "let_annot"),
            (2.0, "let_ref"),
            (1.5, "let_fun"),
            (2.5, "assign"),
            (1.5, "app"),
        ]
        if depth > 0:
            options += [(1.5, "if"), (1.0, "while"), (1.0, "for")]
        while options:
            weights = [w for w, _ in options]
            pick = self.rng.choices(range(len(options)), weights=weights, k=1)[0]
            _, name = options.pop(pick)
            built = getattr(self, "_stmt_" + name)(ctx, pc, depth)
            if built is not None:
                return built
        return [self.literal("int")]

    def _stmt_expr(self, ctx, pc, depth):
        got = self.gen_value_expr(ctx, pc, depth)
        return None if got is None else [got[0]]

    def _stmt_let_base(self, ctx, pc, depth):
        kind = self.rng.choice(["int", "int", "bool"])
        if self.effect_clean or isinstance(pc, High):
            allowed = frozenset({HIGH})
        else:
            allowed = frozenset(_BOTH)
        got = self.gen_expr(ctx, pc, depth, kind, allowed, False)
        if got is None:
            return None
        rhs, level, _ = got
        name = self.fresh("i" if kind == "int" else "b")
        ctx[name] = (level, kind)
        return [Let(name, None, rhs)]

    def _stmt_let_annot(self, ctx, pc, depth):
        if self.effect_clean or isinstance(pc, High):
            ann = HIGH
        else:
            ann = self.rng.choice([LOW, HIGH])
        kind = self.rng.choice(["int", "int", "bool"])
        allowed = frozenset({LOW}) if isinstance(ann, Low) else frozenset(_BOTH)
        got = self.gen_expr(ctx, pc, depth, kind, allowed, False)
        if got is None:
            return None
        name = self.fresh("i" if kind == "int" else "b")
        ctx[name] = (ann, kind)
        return [Let(name, ann, got[0])]

    def _stmt_let_ref(self, ctx, pc, depth):
        kind = self.rng.choice(["int", "int", "bool"])
        if self.effect_clean or isinstance(pc, High):
            allowed = frozenset({HIGH})
        else:
            allowed = frozenset(_BOTH)
        got = self.gen_expr(ctx, pc, depth, kind, allowed, True)
        if got is None:
            return None
        rhs, level, _ = got
        name = self.fresh("ri" if kind == "int" else "rb")
        ctx[name] = (RefType(level), ("ref", kind))
        return [Let(name, None, Ref(rhs))]

    def _stmt_let_fun(self, ctx, pc, depth):
        if not isinstance(pc, Low) or self.effect_clean:
            return None
        param_t = self.rng.choice([LOW, HIGH])
        param = self.fresh("i")
        body_ctx = dict(ctx)
        body_ctx[param] = (param_t, "int")
        pure = self.rng.random() < 0.8
        got = self.gen_expr(body_ctx, pc, min(depth - 1, 2), "int", frozenset(_BOTH), pure)
        if got is None:
            return None
        body, result_t, effect = got
        if not leq(pc, effect):
            return None
        name = self.fresh("f")
        ctx[name] = (FunType(param_t, result_t, effect), "fun")
        return [Let(name, None, Func(param, param_t, body))]

    def _stmt_assign(self, ctx, pc, depth):
        targets = []
        for n, (t, k) in ctx.items():
            if not isinstance(t, RefType):
                continue
            if not leq(pc, t.inner):
                continue
            if self.effect_clean and isinstance(t.inner, Low):
                continue
            targets.append(n)
        if not targets:
            return None
        name = self.rng.choice(targets)
        t: RefType = ctx[name][0]
        kind = ctx[name][1][1]
        allowed = frozenset({LOW}) if isinstance(t.inner, Low) else frozenset(_BOTH)
        got = self.gen_expr(ctx, pc, depth, kind, allowed, False)
        if got is None:
            return None
        return [Assign(name, got[0])]

    def _stmt_app(self, ctx, pc, depth):
        got = self._expr_app(ctx, pc, max(depth, 1), "int", frozenset(_BOTH), False)
        return None if got is None else [got[0]]

    def _stmt_if(self, ctx, pc, depth):
        cond = self.gen_expr(ctx, pc, depth - 1, "bool", frozenset(_BOTH), False)
        if cond is None:
            return None
        ce, ct, _ = cond
        pc2 = join([pc, ct])
        then = self.gen_program(dict(ctx), pc2, depth - 1)
        orelse = self.gen_program(dict(ctx), pc2, depth - 1)
        return [If(ce, then, orelse)]

    def _stmt_while(self, ctx, pc, depth):
        if self.rng.random() < 0.06:
            built = self._diverging_while(ctx, pc, depth)
            if built is not None:
                return built
        # counter loop: let c = ref(k); while !c > 0 { ...; c := !c - 1 }
        if self.effect_clean or isinstance(pc, High):
            init = self.gen_expr(ctx, pc, depth - 1, "int", frozenset({HIGH}), True)
            if init is None:
                return None
            init_e, level, _ = init
        else:
            level = LOW
            init_e = Num(str(self.rng.randint(1, MAX_FOR_SPAN)))
        name = self.fresh("ri")
        pc2 = join([pc, level])
        # the body is generated without the counter in view, so nothing can
        # reassign it and the trailing decrement guarantees termination
        body_ctx = dict(ctx)
        inner = self.gen_stmt(body_ctx, pc2, depth - 1)
        ctx[name] = (RefType(level), ("ref", "int"))
        step = Assign(name, Bop(BinOp.SUB, Deref(name), Num("1")))
        body: Expr = step
        for s in reversed(inner):
            body = Seq(s, body)
        cond = Bop(BinOp.GT, Deref(name), Num("0"))
        return [Let(name, None, Ref(init_e)), While(cond, body)]

    def _diverging_while(self, ctx, pc, depth):
        # increments its own counter: burns fuel, exercising the discard path
        if self.effect_clean or isinstance(pc, High):
            init = self.gen_expr(ctx, pc, depth - 1, "int", frozenset({HIGH}), True)
            if init is None:
                return None
            init_e, level, _ = init
        else:
            level = LOW
            init_e = Num("1")
        name = self.fresh("ri")
        ctx[name] = (RefType(level), ("ref", "int"))
        cond = Bop(BinOp.GT, Deref(name), Num("0"))
        body = Assign(name, Bop(BinOp.ADD, Deref(name), Num("1")))
        return [Let(name, None, Ref(init_e)), While(cond, body)]

    def _stmt_for(self, ctx, pc, depth):
        a = self.rng.randint(-2, 2)
        b = a + self.rng.randint(0, MAX_FOR_SPAN)
        var = self.fresh("i")
        body_ctx = dict(ctx)
        body_ctx[var] = (pc, "int")  # bounds are literals, so pc2 == pc
        body = self.gen_program(body_ctx, pc, depth - 1)
        return [For(var, Num(str(a)), Num(str(b)), body)]


# Public generator entry points ------------------------------------------------

_TENV_CHOICES = [
    ("i", lambda lvl: lvl),
    ("b", lambda lvl: lvl),
    ("u", lambda lvl: LOW),
    ("ri", lambda lvl: RefType(lvl)),
    ("rb", lambda lvl: RefType(lvl)),
    ("f", lambda lvl: FunType(lvl, lvl, EMPTY)),
]


def gen_tenv(cfg: GenConfig) -> TEnv:
    """A random typing context of 0..6 bindings.

    Prefixes name the runtime shape; security levels vary independently.
    """
    rng = random.Random(_derive(cfg.rng_seed, _ROLE_TENV))
    tenv: TEnv = {}
    for i in range(rng.randint(0, 6)):
        prefix, mk = rng.choice(_TENV_CHOICES)
        level = rng.choice(_BOTH)
        tenv[f"{prefix}{i}"] = mk(level)
    return tenv


def gen_welltyped(cfg: GenConfig, tenv: TEnv, pc: SecType, effect_clean: bool = False) -> Expr:
    """A program meant to pass the checker under (tenv, pc).

    Construction satisfies every side condition outright, so the program is
    not checked here; the trial that uses it checks it once, and a rejection
    there is a generator bug.
    """
    g = _Gen(random.Random(_derive(cfg.rng_seed, _ROLE_PROG)), effect_clean=effect_clean)
    return g.gen_program(_ctx_from_tenv(tenv), pc, MAX_DEPTH)


def _rand_base_value(kind, rng: random.Random) -> Value:
    if kind == "int":
        return IntV(rng.randint(*INT_RANGE))
    if kind == "bool":
        return BoolV(rng.random() < 0.5)
    return UnitV()


def gen_lowequiv_states(cfg: GenConfig, tenv: TEnv) -> tuple[State, State]:
    """Two states for tenv that agree on everything a low observer sees.

    Low and ref Low bindings get identical values, High and ref High get
    independent ones, and function bindings get the same closed closure in
    both states.
    """
    rng = random.Random(_derive(cfg.rng_seed, _ROLE_STATE))
    env1: dict[str, Value] = {}
    env2: dict[str, Value] = {}
    st1, st2 = Store(), Store()
    for name, t in tenv.items():
        kind = _kind_from_name(name, t)
        match t:
            case Low():
                v = _rand_base_value(kind, rng)
                env1[name] = env2[name] = v
            case High():
                env1[name] = _rand_base_value(kind, rng)
                env2[name] = _rand_base_value(kind, rng)
            case RefType(inner):
                pointee = kind[1] if isinstance(kind, tuple) else "int"
                v1 = _rand_base_value(pointee, rng)
                v2 = v1 if isinstance(inner, Low) else _rand_base_value(pointee, rng)
                env1[name] = LocV(st1.alloc(v1))
                env2[name] = LocV(st2.alloc(v2))
            case FunType():
                # a constant result is observationally safe whatever t promises
                clos = canonical_closure(t) or ClosV(Num("0"), "x", {})
                env1[name] = env2[name] = clos
            case _:
                env1[name] = env2[name] = UnitV()
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


def _effect_free(j: Judgment) -> bool:
    return isinstance(j.effect, (High, Empty))


@dataclass(frozen=True)
class _Suite:
    """What one suite varies; `_trial` runs the steps they all share."""

    salt: int  # derives the suite's per-trial seeds
    pc: SecType
    detail: str  # Violation text; {ty} is the program's type
    effect_clean: bool = False
    # (salt, predicate): draw up to 8 programs from salted seeds and keep the
    # first whose judgment passes, else `0`. None: the trial seed's program.
    retry: tuple[int, Callable[[Judgment], bool]] | None = None
    runs: int = 2  # 1: run s1 only and compare it with its own final state
    observe: Callable[..., bool] = _states_agree


_SUITE_TABLE = {
    # final states of two low-equivalent runs stay low-equivalent
    "soundness": _Suite(11, LOW, "final states differ for a low observer"),
    # results at a low-observable type agree across low-equivalent runs
    "lemma1": _Suite(
        12, LOW, "results differ at type {ty}",
        retry=(31, lambda j: low_observable(j.ty)), observe=_results_agree,
    ),
    # a program typed under a high pc cannot change the low view
    "lemma2": _Suite(13, HIGH, "high-pc program changed the low view", runs=1),
    # a program whose effect is High or () cannot change the low view
    "lemma5": _Suite(
        14, LOW, "effect-free program changed the low view",
        effect_clean=True, runs=1,
    ),
}

SUITES = tuple(_SUITE_TABLE)


def _choose_program(suite: _Suite, cfg: GenConfig, tenv: TEnv) -> tuple[Expr, Judgment]:
    """The trial's program and its judgment, from the only checker call on
    the trial path. It is the generator's postcondition: a `CheckError`, or
    a Low effect from an effect-clean draw, is a generator bug."""
    if suite.retry is None:
        draws, accept = [cfg], None
    else:
        salt, accept = suite.retry
        draws = (replace(cfg, rng_seed=_derive(cfg.rng_seed, salt + k)) for k in range(8))
    for sub in draws:
        prog = gen_welltyped(sub, tenv, suite.pc, effect_clean=suite.effect_clean)
        j = check(tenv, suite.pc, prog)
        assert not suite.effect_clean or _effect_free(j), "effect-clean program has a Low effect"
        if accept is None or accept(j):
            return prog, j
    prog = Num("0")
    return prog, check(tenv, suite.pc, prog)


def _trial(suite: _Suite, cfg: GenConfig) -> TrialResult:
    """One trial: a well-typed program run from low-equivalent states must
    leave the suite's observer unable to tell the runs apart."""
    tenv = gen_tenv(cfg)
    prog, j = _choose_program(suite, cfg, tenv)
    s1, s2 = gen_lowequiv_states(cfg, tenv)
    if suite.runs == 1:
        s2 = s1
    outs = [evaluate(prog, s.env, s.store, cfg.fuel) for s in (s1, s2)[: suite.runs]]
    for o in outs:
        if isinstance(o, FuelExhausted):
            return Discarded("fuel")
        if isinstance(o, RuntimeFault):
            return Discarded("runtime")
        if isinstance(o, DepthExceeded):
            return Discarded("depth")
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
    equiv_inconclusive: int = 0
    violations: list[dict] = field(default_factory=list)

    @property
    def discarded(self) -> int:
        return self.discarded_fuel + self.discarded_runtime + self.discarded_depth

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "passes": self.passes,
            "discarded_fuel": self.discarded_fuel,
            "discarded_runtime": self.discarded_runtime,
            "discarded_depth": self.discarded_depth,
            "equiv_inconclusive": self.equiv_inconclusive,
            "violations": len(self.violations),
            "violation_details": self.violations,
        }

    def summary(self) -> str:
        return (
            f"suite {self.suite}: trials={self.trials} pass={self.passes}"
            f" discard={self.discarded} (fuel={self.discarded_fuel},"
            f" runtime={self.discarded_runtime}, depth={self.discarded_depth})"
            f" inconclusive={self.equiv_inconclusive}"
            f" violations={len(self.violations)}"
        )


def _state_json(s: State) -> dict:
    return {
        "env": {name: pretty_value(v) for name, v in s.env.items()},
        "store": {str(loc): pretty_value(s.store.data[loc]) for loc in sorted(s.store.data)},
    }


def run_suite(suite: str, cfg: GenConfig, trials: int | None = None) -> SuiteReport:
    """Run independent trials of one suite with per-trial derived seeds."""
    fn = _TRIAL_FNS[suite]
    if trials is None:
        trials = cfg.trials
    base = _derive(cfg.rng_seed, _SUITE_TABLE[suite].salt)
    report = SuiteReport(suite, trials)
    for i in range(trials):
        tcfg = replace(cfg, rng_seed=_derive(base, i + 1))
        result = fn(tcfg)
        match result:
            case Pass(inconclusive):
                report.passes += 1
                report.equiv_inconclusive += inconclusive
            case Discarded("fuel"):
                report.discarded_fuel += 1
            case Discarded("runtime"):
                report.discarded_runtime += 1
            case Discarded("depth"):
                report.discarded_depth += 1
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
        return {
            "file": self.file,
            "expected_verdict": self.expected_verdict,
            "expected_rule": self.expected_rule,
            "actual_verdict": self.actual_verdict,
            "actual_rule": self.actual_rule,
            "ok": self.ok,
        }


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


def run_corpus(corpus_dir: str | Path | None = None) -> CorpusReport:
    """Check every corpus program against its recorded verdict."""
    root = Path(corpus_dir) if corpus_dir is not None else default_corpus_dir()
    expectations = json.loads((root / "expectations.json").read_text())
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
