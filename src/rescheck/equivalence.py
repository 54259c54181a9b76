"""Value and state equivalence at a security type.

Two runs are indistinguishable to a low observer when their low-typed
variables hold related values: equal for base values, equal-after-deref
for low references, and extensionally related for functions. Closures are
compared by sampling: related argument pairs are generated, both bodies run
under bounded fuel, and the results compared at the result type. Runs that
exhaust fuel or fault are inconclusive and count as passes; callers can
watch the statistics to see how often that happened.
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
)
from .syntax import Empty, FunType, High, Low, RefType, SecType

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
    """Equivalence at High: any two values of the same base shape relate."""
    match (v1, v2):
        case (UnitV(), UnitV()) | (IntV(), IntV()) | (BoolV(), BoolV()) | (LocV(), LocV()):
            return True
        case _:
            return False


def _closures_identical(c1: ClosV, s1: Store, c2: ClosV, s2: Store) -> bool:
    """Syntactically the same function with captures that agree at Low."""
    if c1.body != c2.body or c1.param != c2.param:
        return False
    if c1.env.keys() != c2.env.keys():
        return False
    return all(
        _low_eq(c1.env[k], s1, c2.env[k], s2, set()) for k in c1.env
    )


def related_values(
    t: SecType, rng: random.Random, s1: Store, s2: Store, shape: str = "int"
) -> tuple[Value, Value] | None:
    """A pair of values a low observer cannot tell apart at t, with any
    reference allocated into s1 and s2.

    `shape` ("int", "bool" or "unit") is the runtime shape of a base value
    or of a reference's contents. A Low value, or the contents of a ref Low,
    is drawn once and shared; a High one is drawn for each side. A function
    type gets its canonical closure on both sides. None when t is (), or a
    function type without a canonical closure.
    """
    if isinstance(t, FunType):
        c = canonical_closure(t)
        return None if c is None else (c, c)
    level = t.inner if isinstance(t, RefType) else t
    if not isinstance(level, (Low, High)):
        return None

    def draw() -> Value:
        if shape == "int":
            return IntV(rng.randint(*INT_RANGE))
        return BoolV(rng.random() < 0.5) if shape == "bool" else UNIT

    v1 = draw()
    v2 = v1 if isinstance(level, Low) else draw()
    if isinstance(t, RefType):
        return LocV(s1.alloc(v1)), LocV(s2.alloc(v2))
    return v1, v2


def canonical_closure(t: FunType) -> ClosV | None:
    """A closed, well-typed inhabitant of t, if one is easy to build:
    the identity when the result type is the parameter type, else a
    constant `0` when the result is Low."""
    from .syntax import Num, Var  # local import keeps startup light

    if not isinstance(t.latent, Empty):
        return None
    if t.result == t.param:
        return ClosV(Var("x"), "x", {})
    if isinstance(t.result, Low):
        return ClosV(Num("0"), "x", {})
    return None


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
            case High():
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
        if _closures_identical(v1, s1, v2, s2):
            return True
        if depth <= 0:
            return False
        if v1.env.keys() != v2.env.keys():
            return False
        from .interpreter import evaluate

        self.stats.closure_pairs_sampled += 1
        result_t = t.result.inner if isinstance(t.result, RefType) else t.result
        for _ in range(self.cfg.closure_samples):
            c1, c2 = s1.copy(), s2.copy()
            pair = related_values(t.param, self.rng, c1, c2)
            if pair is None:
                self.stats.inconclusive_runs += 1
                continue
            a1, a2 = pair
            o1 = evaluate(v1.body, {**v1.env, v1.param: a1}, c1, CLOSURE_FUEL)
            o2 = evaluate(v2.body, {**v2.env, v2.param: a2}, c2, CLOSURE_FUEL)
            if not isinstance(o1, Ok) or not isinstance(o2, Ok):
                self.stats.inconclusive_runs += 1
                continue
            f1, f2 = o1.state.store, o2.state.store
            if not self.values(o1.value, f1, o2.value, f2, result_t, depth - 1):
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
    their function type. High and ref High bindings are unconstrained, and
    may even be absent, since nothing a low observer can do depends on them.
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
