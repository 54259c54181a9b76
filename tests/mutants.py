"""The checker's mutants, each with a witness program.

A mutant changes one rule of the checker without touching its source. A
waiver makes `_Checker.fail` return, instead of raising, for one
`(rule, condition)` key, at every `fail` site of that key. A swap replaces
one `typechecker._RULES` entry by a rule written here. `installed(mutant)`
puts one mutant in place and restores the checker on exit.

A weakening mutant accepts more than the checker does. Its witness is typed
in `TENV`: the real checker rejects it, and a trial of the mutant's suite
that runs it from `states()` under the mutant reports a violation. A
strengthening mutant accepts less: the real checker accepts its witness in
`TENV` at pc Low, and the mutant rejects it.

Mutants that cannot change a verdict are left out. `Func t3 ⊒ pc`,
`Let-Base-Ref t1 ∈ {Low, High}` and `Reassign t3 ∈ {Low, High}` cannot fail,
and waiving a shape, scope or join condition leaves its rule with a value it
cannot use.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

from rescheck import HIGH, LOW, For, Func, If, LocV, RefType, State, Store, While
from rescheck.lattice import LatticeError, join, leq, meet
from rescheck.syntax import is_base
from rescheck.typechecker import _RULES, _Checker

# The witnesses' Γ, and two states for it that differ only in the High i0.
TENV = {"i0": HIGH, "ri1": RefType(LOW)}


def states() -> tuple[State, State]:
    """i0 is 0 in the first state and 1 in the second; in both, ri1 points
    at a cell that holds 0."""
    s1, s2 = (State({"i0": h, "ri1": LocV(0)}, Store({0: 0})) for h in (0, 1))
    return s1, s2


@dataclass(frozen=True)
class Mutant:
    name: str
    witness: str  # source text, typed in TENV
    suite: str | None = None  # a weakening mutant's: the suite its witness leaks in
    waive: tuple[str, str] | None = None  # the (rule, condition) whose `fail` returns
    swap: tuple[type, Callable] | None = None  # an Expr class and the rule that replaces its own


# Rules for `swap`: each is the checker's rule of its class with one change.


def _if_at_outer_pc(self, frame, env, pc, e):
    """If-Else, with both branches checked at the outer pc."""
    t1, t2, _ = self.check(env, pc, e.cond)
    if not is_base(t1):
        self.fail("If-Else", "t1 ∈ {Low, High}", e)
    t3, t4, _ = self.check(env, pc, e.then)
    t5, t6, _ = self.check(env, pc, e.orelse)
    try:
        t7 = join([t1, t3, t5])
    except LatticeError:
        self.fail("If-Else", "t7 = ⊔{t1, t3, t5}", e)
    return t7, meet([t2, t4, t6]), env


def _while_at_outer_pc(self, frame, env, pc, e):
    """While, with the body checked at the outer pc."""
    t1, t2, _ = self.check(env, pc, e.cond)
    if not is_base(t1):
        self.fail("While", "t1 ∈ {Low, High}", e)
    _, t4, _ = self.check(env, pc, e.body)
    return LOW, meet([t2, t4]), env


def _for(self, env, pc, e, *, raise_pc=True, low_bounds=False):
    t1, t2, _ = self.check(env, pc, e.start)
    t3, t4, _ = self.check(env, pc, e.stop)
    if not (is_base(t1) and is_base(t3)):
        self.fail("For", "t1, t3 ∈ {Low, High}", e)
    if low_bounds and not leq(join([t1, t3]), LOW):
        self.fail("For", "Low ⊒ t1, t3", e)
    pc2 = join([pc, t1, t3]) if raise_pc else pc
    _, t6, _ = self.check({**env, e.var: pc2}, pc2, e.body)
    return LOW, meet([t2, t4, t6]), env


def _for_at_outer_pc(self, frame, env, pc, e):
    """For, with its variable bound and its body checked at the outer pc."""
    return _for(self, env, pc, e, raise_pc=False)


def _for_with_low_bounds(self, frame, env, pc, e):
    """For, which also requires both bounds to be Low."""
    return _for(self, env, pc, e, low_bounds=True)


def _func_at_low_pc(self, frame, env, pc, e):
    """Func, which also requires a Low pc."""
    if not leq(pc, LOW):
        self.fail("Func", "Low ⊒ pc", e)
    return _Checker._func(self, frame, env, pc, e)


WEAKENING = [
    # the eight level conditions that can fail, each waived
    Mutant("Let-n t1 ⊒ t2", "let x: low = i0", "soundness", waive=("Let-n", "t1 ⊒ t2")),
    Mutant("Let-n t1 ⊒ pc", "let x: low = 1", "lemma2", waive=("Let-n", "t1 ⊒ pc")),
    Mutant("Let-Base t1 ⊒ pc", "let x = 1", "lemma2", waive=("Let-Base", "t1 ⊒ pc")),
    Mutant(
        "Let-Base-Ref t3 ⊒ pc", "let r = ref(1)", "lemma2", waive=("Let-Base-Ref", "t3 ⊒ pc")
    ),
    Mutant(
        "Let-Base-Func Low ⊒ pc", "let k = (x: low) => x", "lemma2",
        waive=("Let-Base-Func", "Low ⊒ pc"),
    ),
    Mutant(
        "App t6 ⊒ pc1", "let g = (x: low) => ri1 := x; if i0 == 0 { g 1 } else { 0 }",
        "soundness", waive=("App", "t6 ⊒ pc1"),
    ),
    Mutant("Reassign t3 ⊒ t1", "ri1 := i0", "soundness", waive=("Reassign", "t3 ⊒ t1")),
    Mutant(
        "Reassign t3 ⊒ pc", "if i0 == 0 { ri1 := 1 } else { 0 }", "soundness",
        waive=("Reassign", "t3 ⊒ pc"),
    ),
    # the three rules that raise the pc, each without the raise
    Mutant(
        "If with no pc raise", "if i0 == 0 { ri1 := 1 } else { 0 }", "soundness",
        swap=(If, _if_at_outer_pc),
    ),
    Mutant(
        "While with no pc raise", "let c = ref(i0); while !c > 0 { ri1 := 1; c := !c - 1 }",
        "soundness", swap=(While, _while_at_outer_pc),
    ),
    Mutant(
        "For with no pc raise", "for k in 0 to i0 { ri1 := k }", "soundness",
        swap=(For, _for_at_outer_pc),
    ),
]

STRENGTHENING = [
    Mutant("For with Low bounds", "for k in 0 to i0 { 0 }", swap=(For, _for_with_low_bounds)),
    Mutant(
        "Func at a Low pc", "if i0 == 0 { ((x: low) => x) 1 } else { 0 }",
        swap=(Func, _func_at_low_pc),
    ),
]

MUTANTS = WEAKENING + STRENGTHENING

WAIVABLE = [m.waive for m in MUTANTS if m.waive is not None]


@contextmanager
def installed(mutant: Mutant):
    """Run the body under `mutant`; `_Checker.fail` and every `_RULES` entry
    are the same objects again on exit, however the body ends."""
    fail, rules = _Checker.fail, dict(_RULES)
    try:
        if mutant.waive is not None:

            def waiving(self, rule, condition, e):
                if (rule, condition) != mutant.waive:
                    fail(self, rule, condition, e)

            _Checker.fail = waiving
        if mutant.swap is not None:
            cls, rule = mutant.swap
            _RULES[cls] = (_RULES[cls][0], rule)
        yield
    finally:
        _Checker.fail = fail
        _RULES.update(rules)
