"""Value and state equivalence at a security type.

Two runs are indistinguishable to a low observer when their low-typed
variables hold related values: equal for base values, equal-after-deref
for low references, and extensionally related for functions. Closures are
compared by sampling: `related_values` builds a related argument pair for
any well-formed parameter type, both bodies run under bounded fuel, and the
results are compared at the result type. Runs that exhaust fuel or fault,
and functions nested past the comparison depth, are inconclusive and count
as passes; callers can watch the statistics to see how often that happened.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar

from .interpreter import (
    BoolV,
    ClosV,
    IntV,
    LocV,
    Ok,
    State,
    Store,
    UNIT,
    UnitV,
    Value,
    evaluate,
)
from .syntax import Empty, Expr, Func, FunType, High, Low, Num, Ref, RefType, SecType, Var

# Fuel for each sampled closure run. Generated closure bodies are small;
# anything that needs more than this is treated as inconclusive.
CLOSURE_FUEL = 1000

INT_RANGE = (-8, 8)  # ints in related value pairs and generated programs


@dataclass(frozen=True)
class EquivConfig:
    closure_samples: ClassVar[int] = 8  # argument pairs run per closure pair
    closure_depth: ClassVar[int] = 2  # function-type nesting compared by running
    rng_seed: int = 0


@dataclass
class EquivStats:
    """Side channel for the sampling approximation."""

    closure_pairs_sampled: int = 0
    inconclusive_runs: int = 0


def _low_eq(v1: Value, s1: Store, v2: Value, s2: Store, visited: set) -> bool:
    """Equivalence at Low: equality, with locations compared by contents."""
    match (v1, v2):
        case (UnitV(), UnitV()):
            return True
        case (IntV(a), IntV(b)):
            return a == b
        case (BoolV(a), BoolV(b)):
            return a == b
        case (LocV(a), LocV(b)):
            if (a, b) in visited:
                return True
            visited.add((a, b))
            if a not in s1.data or b not in s2.data:
                return False
            return _low_eq(s1.data[a], s1, s2.data[b], s2, visited)
        case _:
            return False


def _high_eq(v1: Value, v2: Value) -> bool:
    """Equivalence at High and (): any two values of the same base shape relate."""
    match (v1, v2):
        case (UnitV(), UnitV()) | (IntV(), IntV()) | (BoolV(), BoolV()) | (LocV(), LocV()):
            return True
        case _:
            return False


def _closures_identical(c1: ClosV, s1: Store, c2: ClosV, s2: Store) -> bool:
    """Syntactically the same function with captures that agree at Low; the
    caller has checked that both capture the same names."""
    if c1.body != c2.body or c1.param != c2.param:
        return False
    return all(
        _low_eq(c1.env[k], s1, c2.env[k], s2, set()) for k in c1.env
    )


def _returning(t: FunType) -> Expr:
    """The body of a closure with parameter x, of type t, that returns a
    value of t's result type: x itself when the result type is the parameter
    type, a fresh `ref(0)` for a ref, a closure built the same way for a
    function, else the constant 0."""
    if t.result == t.param:
        return Var("x")
    if isinstance(t.result, RefType):
        return Ref(Num("0"))
    if isinstance(t.result, FunType):
        return Func("x", t.result.param, _returning(t.result))
    return Num("0")


def related_values(
    t: SecType, rng: random.Random, s1: Store, s2: Store, shape: str = "i"
) -> tuple[Value, Value]:
    """A pair of values a low observer cannot tell apart at the well-formed
    type t, with any reference allocated into s1 and s2.

    `shape` is the runtime shape of a base value or of a reference's
    contents, as the harness's name prefixes spell it: "i" an int, "b" a
    bool, and anything else unit. A Low value, or the contents of a ref Low,
    is drawn once and shared; a High or () one is drawn for each side. A
    function type gets one closure on both sides, whose body `_returning`
    builds. It writes nothing, so it has every latent effect.
    """
    if isinstance(t, FunType):
        c = ClosV(_returning(t), "x", {})
        return c, c
    level = t.inner if isinstance(t, RefType) else t

    def draw() -> Value:
        if shape == "i":
            return IntV(rng.randint(*INT_RANGE))
        return BoolV(rng.random() < 0.5) if shape == "b" else UNIT

    v1 = draw()
    v2 = v1 if isinstance(level, Low) else draw()
    if isinstance(t, RefType):
        return LocV(s1.alloc(v1)), LocV(s2.alloc(v2))
    return v1, v2


def low_observable(t: SecType) -> bool:
    """Whether a low observer can see a value of type t: Low, ref Low or a
    function."""
    return isinstance(t, (Low, FunType)) or (isinstance(t, RefType) and isinstance(t.inner, Low))


class _Equiv:
    def __init__(self, cfg: EquivConfig, stats: EquivStats | None):
        self.cfg = cfg
        self.stats = stats if stats is not None else EquivStats()
        self.rng = random.Random(cfg.rng_seed)

    def values(
        self, v1: Value, s1: Store, v2: Value, s2: Store, t: SecType, depth: int
    ) -> bool:
        match t:
            case High() | Empty():
                return _high_eq(v1, v2)
            case Low():
                return _low_eq(v1, s1, v2, s2, set())
            case RefType(inner):
                # A reference is observed through its contents.
                return self.values(v1, s1, v2, s2, inner, depth)
            case FunType():
                return self.closures(v1, s1, v2, s2, t, depth)
            case _:
                return False

    def closures(
        self, v1: Value, s1: Store, v2: Value, s2: Store, t: FunType, depth: int
    ) -> bool:
        if not isinstance(v1, ClosV) or not isinstance(v2, ClosV):
            return False
        if v1.env.keys() != v2.env.keys():
            return False
        if _closures_identical(v1, s1, v2, s2):
            return True
        self.stats.closure_pairs_sampled += 1
        if depth <= 0:
            self.stats.inconclusive_runs += self.cfg.closure_samples
            return True
        for _ in range(self.cfg.closure_samples):
            c1, c2 = s1.copy(), s2.copy()
            a1, a2 = related_values(t.param, self.rng, c1, c2)
            o1 = evaluate(v1.body, {**v1.env, v1.param: a1}, c1, CLOSURE_FUEL)
            o2 = evaluate(v2.body, {**v2.env, v2.param: a2}, c2, CLOSURE_FUEL)
            if not isinstance(o1, Ok) or not isinstance(o2, Ok):
                self.stats.inconclusive_runs += 1
                continue
            f1, f2 = o1.state.store, o2.state.store
            if not self.values(o1.value, f1, o2.value, f2, t.result, depth - 1):
                return False
            # The argument pair must still be related in the final stores.
            if not self.values(a1, f1, a2, f2, t.param, depth - 1):
                return False
        return True


def value_equiv(
    v1: Value,
    store1: Store,
    v2: Value,
    store2: Store,
    t: SecType,
    cfg: EquivConfig | None = None,
    stats: EquivStats | None = None,
) -> bool:
    """Decide whether two values are indistinguishable at type t."""
    cfg = cfg if cfg is not None else EquivConfig()
    eq = _Equiv(cfg, stats)
    return eq.values(v1, store1, v2, store2, t, cfg.closure_depth)


def low_equiv(
    tenv: dict[str, SecType],
    s1: State,
    s2: State,
    cfg: EquivConfig | None = None,
    stats: EquivStats | None = None,
) -> bool:
    """Decide low equivalence of two states under a type environment.

    Only low-observable bindings constrain the result: Low and ref Low
    variables must agree at Low and function variables must be related at
    their function type. High, ref High and () bindings are unconstrained,
    and may even be absent, since nothing a low observer can do depends on
    them.
    """
    cfg = cfg if cfg is not None else EquivConfig()
    eq = _Equiv(cfg, stats)
    for name, t in tenv.items():
        if not low_observable(t):
            continue
        if name not in s1.env or name not in s2.env:
            return False
        if not eq.values(s1.env[name], s1.store, s2.env[name], s2.store, t, cfg.closure_depth):
            return False
    return True
