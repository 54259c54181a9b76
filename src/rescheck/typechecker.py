"""Security type checker.

check(env, pc, e) is syntax directed: each expression form selects exactly
one rule, with `let` dispatching on the annotation or on the shape of the
inferred right-hand type. Judgments carry the expression's type, its write
effect and the updated type environment. Failures raise CheckError with the
rule name, the side condition that failed, the source position and the
derivation path from the root to the failing rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import LatticeError, join, leq, meet
from .syntax import (
    EMPTY,
    LOW,
    App,
    Assign,
    Bool,
    Bop,
    Deref,
    Expr,
    For,
    Func,
    FunType,
    High,
    If,
    Let,
    Low,
    Num,
    Pos,
    Ref,
    RefType,
    SecType,
    Seq,
    Unit,
    Var,
    While,
    display_type,
    is_base,
    pretty,
    pretty_line,
    pretty_type,
    well_formed,
)

TEnv = dict[str, SecType]


def _summary(ty: SecType, effect: SecType) -> str:
    return f"{display_type(ty)} @ {display_type(effect)}"


@dataclass(frozen=True)
class Judgment:
    ty: SecType
    effect: SecType
    out_env: TEnv

    def summary(self) -> str:
        return _summary(self.ty, self.effect)


@dataclass
class TraceFrame:
    """One rule application: which rule, on what, and how it came out.

    The expression's source text is `text[start:]`, sliced only when `expr`
    is read. A sequence's `second` is printed as the tail of the sequence's
    own text (see `pretty`), so the frames down a chain of statements share
    their first frame's `text` and differ only in `start`; every other frame
    has its own text and `start` 0. A frame keeps the judgment's type and
    effect, not its environment, and renders them only when `result` is
    read.
    """

    rule: str
    text: str
    start: int = 0
    judged: tuple[SecType, SecType] | None = None  # set when the rule holds
    failed: str | None = None  # the side condition that failed

    @property
    def expr(self) -> str:
        return self.text[self.start:] if self.start else self.text

    @property
    def result(self) -> str | None:
        """None while the rule is in progress."""
        if self.failed is not None:
            return f"failed: {self.failed}"
        return None if self.judged is None else _summary(*self.judged)


class CheckError(Exception):
    """A typing rule's side condition failed."""

    def __init__(
        self,
        rule: str,
        condition: str,
        at: Pos | None,
        trace: list[TraceFrame],
    ):
        self.rule = rule
        self.condition = condition
        self.at = at
        self.trace = trace
        where = f" at {at.line}:{at.col}" if at else ""
        super().__init__(f"({rule}) requires {condition}{where}")


class _Checker:
    def __init__(self) -> None:
        self.log: list[TraceFrame] = []
        self.text: dict[int, str] = {}  # pretty's memo: each node's text, by id, for this check

    def fail(self, rule: str, condition: str, e: Expr) -> None:
        path = [f for f in self.log if f.judged is None]  # the rules in progress, root first
        path[-1].rule, path[-1].failed = rule, condition
        raise CheckError(rule, condition, e.pos, path)

    def check(
        self, env: TEnv, pc: SecType, e: Expr, text: str | None = None, start: int = 0
    ) -> Judgment:
        """Apply e's rule. `text` and `start` give e's source text as a
        slice of a text already built; without them it is rendered."""
        if text is None:
            text = pretty(e, self.text)
        frame = TraceFrame(_rule_name(e), text, start)
        self.log.append(frame)
        j = self._apply(frame, env, pc, e)
        frame.judged = j.ty, j.effect
        return j

    def _join(self, parts: list[SecType], rule: str, condition: str, e: Expr) -> SecType:
        try:
            return join(parts)
        except LatticeError:
            self.fail(rule, condition, e)
            raise AssertionError  # unreachable

    def _apply(self, frame: TraceFrame, env: TEnv, pc: SecType, e: Expr) -> Judgment:
        match e:
            case Num() | Bool() | Unit():
                return Judgment(LOW, EMPTY, env)

            case Var(x):
                t = env.get(x)
                if t is None:
                    self.fail("Var", "Γ(x) = t", e)
                return Judgment(t, EMPTY, env)

            case Bop(_, lhs, rhs):
                j1 = self.check(env, pc, lhs)
                j2 = self.check(env, pc, rhs)
                if not (is_base(j1.ty) and is_base(j2.ty)):
                    self.fail("Bop", "t1, t3 ∈ {Low, High}", e)
                t5 = self._join([j1.ty, j2.ty], "Bop", "t5 = ⊔{t1, t3}", e)
                return Judgment(t5, meet([j1.effect, j2.effect]), env)

            case Let(x, annot, rhs):
                if annot is not None:
                    frame.rule = "Let-n"
                    if not is_base(annot):
                        self.fail("Let-n", "t1, t2 ∈ {Low, High}", e)
                    j = self.check(env, pc, rhs)
                    if not is_base(j.ty):
                        self.fail("Let-n", "t1, t2 ∈ {Low, High}", e)
                    if not leq(j.ty, annot):
                        self.fail("Let-n", "t1 ⊒ t2", e)
                    if not leq(pc, annot):
                        self.fail("Let-n", "t1 ⊒ pc", e)
                    t4 = meet([j.effect, annot])
                    return Judgment(LOW, t4, {**env, x: annot})
                if isinstance(rhs, Func):
                    # The binding form is known before the premise, so the
                    # rule's own condition is reported ahead of body errors.
                    frame.rule = "Let-Base-Func"
                    if not leq(pc, LOW):
                        self.fail("Let-Base-Func", "Low ⊒ pc", e)
                    j = self.check(env, pc, rhs)
                    return Judgment(LOW, LOW, {**env, x: j.ty})
                j = self.check(env, pc, rhs)
                match j.ty:
                    case FunType():
                        frame.rule = "Let-Base-Func"
                        if not leq(pc, LOW):
                            self.fail("Let-Base-Func", "Low ⊒ pc", e)
                        return Judgment(LOW, LOW, {**env, x: j.ty})
                    case RefType(inner):
                        frame.rule = "Let-Base-Ref"
                        if not is_base(inner):
                            self.fail("Let-Base-Ref", "t1 ∈ {Low, High}", e)
                        t3 = meet([j.effect, inner])
                        if not leq(pc, t3):
                            self.fail("Let-Base-Ref", "t3 ⊒ pc", e)
                        return Judgment(LOW, t3, {**env, x: j.ty})
                    case _:
                        frame.rule = "Let-Base"
                        if not is_base(j.ty):
                            self.fail("Let-Base", "t1 ∈ {Low, High}", e)
                        if not leq(pc, j.ty):
                            self.fail("Let-Base", "t1 ⊒ pc", e)
                        t3 = meet([j.ty, j.effect])
                        return Judgment(LOW, t3, {**env, x: j.ty})

            case If(cond, then, orelse):
                j1 = self.check(env, pc, cond)
                if not is_base(j1.ty):
                    self.fail("If-Else", "t1 ∈ {Low, High}", e)
                pc2 = join([pc, j1.ty])
                j2 = self.check(env, pc2, then)
                j3 = self.check(env, pc2, orelse)
                t7 = self._join([j1.ty, j2.ty, j3.ty], "If-Else", "t7 = ⊔{t1, t3, t5}", e)
                t8 = meet([j1.effect, j2.effect, j3.effect])
                return Judgment(t7, t8, env)

            case While(cond, body):
                j1 = self.check(env, pc, cond)
                if not is_base(j1.ty):
                    self.fail("While", "t1 ∈ {Low, High}", e)
                pc2 = join([pc, j1.ty])
                j2 = self.check(env, pc2, body)
                return Judgment(LOW, meet([j1.effect, j2.effect]), env)

            case For(x, start, stop, body):
                j1 = self.check(env, pc, start)
                j2 = self.check(env, pc, stop)
                if not (is_base(j1.ty) and is_base(j2.ty)):
                    self.fail("For", "t1, t3 ∈ {Low, High}", e)
                pc2 = join([pc, j1.ty, j2.ty])
                j3 = self.check({**env, x: pc2}, pc2, body)
                t8 = meet([j1.effect, j2.effect, j3.effect])
                return Judgment(LOW, t8, env)

            case Seq(first, second):
                j1 = self.check(env, pc, first)
                start = frame.start + len(pretty_line(first, self.text)) + 1
                j2 = self.check(j1.out_env, pc, second, frame.text, start)
                return Judgment(j2.ty, meet([j1.effect, j2.effect]), j2.out_env)

            case Func(x, annot, body):
                if not well_formed(annot):
                    self.fail("Func", "t1 well-formed", e)
                j = self.check({**env, x: annot}, pc, body)
                if not leq(pc, j.effect):
                    self.fail("Func", "t3 ⊒ pc", e)
                return Judgment(FunType(annot, j.ty, j.effect), EMPTY, env)

            case App(fn, arg):
                j2 = self.check(env, pc, arg)  # argument is typed first
                j1 = self.check(env, pc, fn)
                ft = j1.ty
                if not isinstance(ft, FunType):
                    self.fail("App", "e1 : (t1 → t3 @ t4)", e)
                if ft.param != j2.ty:
                    self.fail("App", "e2 : t1", e)
                t6 = meet([j2.effect, ft.latent, j1.effect])
                if not leq(pc, t6):
                    self.fail("App", "t6 ⊒ pc1", e)
                return Judgment(ft.result, t6, env)

            case Ref(inner):
                j = self.check(env, pc, inner)
                if not is_base(j.ty):
                    self.fail("Ref", "t1 ∈ {Low, High}", e)
                return Judgment(RefType(j.ty), j.effect, env)

            case Deref(x):
                t = env.get(x)
                if not isinstance(t, RefType):
                    self.fail("Deref", "Γ(x) = ref t1", e)
                return Judgment(t.inner, EMPTY, env)

            case Assign(x, rhs):
                t = env.get(x)
                if not isinstance(t, RefType):
                    self.fail("Reassign", "Γ(x) = ref t3", e)
                t3 = t.inner
                if not is_base(t3):
                    self.fail("Reassign", "t3 ∈ {Low, High}", e)
                j = self.check(env, pc, rhs)
                if not leq(j.ty, t3):
                    self.fail("Reassign", "t3 ⊒ t1", e)
                if not leq(pc, t3):
                    self.fail("Reassign", "t3 ⊒ pc", e)
                t4 = meet([t3, j.effect])
                return Judgment(LOW, t4, env)

        raise TypeError(f"not an Expr: {e!r}")


_RULE_NAMES = {
    Num: "Num",
    Bool: "Bool",
    Unit: "Unit",
    Var: "Var",
    Bop: "Bop",
    Let: "Let",  # refined to Let-n / Let-Base* once dispatched
    If: "If-Else",
    While: "While",
    For: "For",
    Seq: "Seq",
    Func: "Func",
    App: "App",
    Ref: "Ref",
    Deref: "Deref",
    Assign: "Reassign",
}


def _rule_name(e: Expr) -> str:
    try:
        return _RULE_NAMES[type(e)]
    except KeyError:
        raise TypeError(f"not an Expr: {e!r}") from None


def _validate_inputs(env: TEnv, pc: SecType) -> None:
    if not isinstance(pc, (Low, High)):
        raise ValueError(f"pc must be Low or High, got {pc!r}")
    for name, t in env.items():
        if not well_formed(t):
            raise ValueError(f"ill-formed type for {name!r}: {t!r}")


def trace_check(env: TEnv, pc: SecType, e: Expr) -> tuple[Judgment, list[TraceFrame]]:
    """Like check, but also returns every rule application in derivation order."""
    _validate_inputs(env, pc)
    c = _Checker()
    j = c.check(dict(env), pc, e)
    return j, c.log


def check(env: TEnv, pc: SecType, e: Expr) -> Judgment:
    """Type an expression under an environment and a program-counter level."""
    return trace_check(env, pc, e)[0]


def check_program(e: Expr) -> Judgment:
    """Type a whole program: empty environment, low program counter."""
    return check({}, LOW, e)


# ---------------------------------------------------------------------------
# JSON rendering for the CLI


def _frame_json(f: TraceFrame) -> dict:
    return {"rule": f.rule, "expr": f.expr, "result": f.result}


def judgment_json(j: Judgment, trace: list[TraceFrame] | None = None) -> dict:
    out = {
        "status": "ok",
        "type": pretty_type(j.ty),
        "effect": pretty_type(j.effect),
        "env": {name: pretty_type(t) for name, t in j.out_env.items()},
    }
    if trace is not None:
        out["trace"] = [_frame_json(f) for f in trace]
    return out


def error_json(err: CheckError, trace: bool = False) -> dict:
    out = {
        "status": "error",
        "error": {
            "rule": err.rule,
            "condition": err.condition,
            "line": err.at.line if err.at else None,
            "col": err.at.col if err.at else None,
        },
    }
    if trace:
        out["trace"] = [_frame_json(f) for f in err.trace]
    return out
