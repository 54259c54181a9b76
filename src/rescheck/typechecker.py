"""Security type checker.

check(env, pc, e) is syntax directed: each expression form selects exactly
one rule, with `let` dispatching on the annotation or on the shape of the
inferred right-hand type. `_RULES` maps each `Expr` class to its rule name
and the `_Checker` method that applies it, so a node costs one lookup to
dispatch, and anything else raises TypeError. A rule concludes with the
paper's triple (t, eff, Γ′): the expression's type, its write effect and the
updated type environment, as a plain tuple that the rule over it unpacks
into the names its side conditions quote. One check returns one `Judgment`,
built from the root's triple. Every rule application logs a frame with its
node's `pretty` text. One memo per check holds each node's text: the root's
frame renders the whole tree into it, a node at a time, and each later frame
is one lookup in it, except that a chain of statements joins its statements'
texts and the frames down the chain slice that text. Failures raise
CheckError with the rule name, the side condition that failed, the source
position and the derivation path from the root to the failing rule.
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
Judged = tuple[SecType, SecType, TEnv]  # a rule's conclusion (t, eff, Γ′)


def _summary(ty: SecType, effect: SecType) -> str:
    return f"{display_type(ty)} @ {display_type(effect)}"


@dataclass(frozen=True)
class Judgment:
    """A whole check's conclusion (t, eff, Γ′), from the root's rule."""

    ty: SecType
    effect: SecType
    out_env: TEnv

    def summary(self) -> str:
        return _summary(self.ty, self.effect)


@dataclass(slots=True)
class TraceFrame:
    """One rule application: which rule, on what, and how it came out.

    The expression's source text is `text[start:]`, sliced only when `expr`
    is read: the frames down a chain of statements share one `text`. A frame
    keeps the judgment's type and effect, not its environment, and renders
    them only when `result` is read.
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
    """One check. Each rule is a method `(frame, env, pc, e) -> (t, eff, Γ′)`,
    found by the node's class in `_RULES`; it may refine `frame.rule`. A rule
    unpacks each premise's triple into the names its conditions use."""

    def __init__(self) -> None:
        self.log: list[TraceFrame] = []
        self.text: dict[int, str] = {}  # pretty's memo: each node's text, by id, for this check

    def fail(self, rule: str, condition: str, e: Expr) -> None:
        path = [f for f in self.log if f.judged is None]  # the rules in progress, root first
        path[-1].rule, path[-1].failed = rule, condition
        raise CheckError(rule, condition, e.pos, path)

    def check(self, env: TEnv, pc: SecType, e: Expr) -> Judged:
        """Apply e's rule under a new frame."""
        try:
            name, rule = _RULES[type(e)]
        except KeyError:
            raise TypeError(f"not an Expr: {e!r}") from None
        frame = TraceFrame(name, pretty(e, self.text))
        self.log.append(frame)
        judged = rule(self, frame, env, pc, e)
        frame.judged = judged[:2]
        return judged

    def _num(self, frame: TraceFrame, env: TEnv, pc: SecType, e: Expr) -> Judged:
        return LOW, EMPTY, env

    _bool = _unit = _num

    def _var(self, frame: TraceFrame, env: TEnv, pc: SecType, e: Var) -> Judged:
        t = env.get(e.name)
        if t is None:
            self.fail("Var", "Γ(x) = t", e)
        return t, EMPTY, env

    def _bop(self, frame: TraceFrame, env: TEnv, pc: SecType, e: Bop) -> Judged:
        t1, t2, _ = self.check(env, pc, e.lhs)
        t3, t4, _ = self.check(env, pc, e.rhs)
        if not (is_base(t1) and is_base(t3)):
            self.fail("Bop", "t1, t3 ∈ {Low, High}", e)
        return join([t1, t3]), meet([t2, t4]), env

    def _let(self, frame: TraceFrame, env: TEnv, pc: SecType, e: Let) -> Judged:
        x, t1, rhs = e.name, e.annot, e.rhs
        if t1 is not None:
            frame.rule = "Let-n"
            if not is_base(t1):
                self.fail("Let-n", "t1, t2 ∈ {Low, High}", e)
            t2, t3, _ = self.check(env, pc, rhs)
            if not is_base(t2):
                self.fail("Let-n", "t1, t2 ∈ {Low, High}", e)
            if not leq(t2, t1):
                self.fail("Let-n", "t1 ⊒ t2", e)
            if not leq(pc, t1):
                self.fail("Let-n", "t1 ⊒ pc", e)
            return LOW, meet([t3, t1]), {**env, x: t1}
        if isinstance(rhs, Func):
            # The binding form is known before the premise, so the
            # rule's own condition is reported ahead of body errors.
            frame.rule = "Let-Base-Func"
            if not leq(pc, LOW):
                self.fail("Let-Base-Func", "Low ⊒ pc", e)
        ty, t2, _ = self.check(env, pc, rhs)
        match ty:
            case FunType():
                frame.rule = "Let-Base-Func"
                if not leq(pc, LOW):
                    self.fail("Let-Base-Func", "Low ⊒ pc", e)
                return LOW, LOW, {**env, x: ty}
            case RefType(inner=t1):  # rhs : ref t1 @ t2
                frame.rule = "Let-Base-Ref"
                if not is_base(t1):
                    self.fail("Let-Base-Ref", "t1 ∈ {Low, High}", e)
                t3 = meet([t2, t1])
                if not leq(pc, t3):
                    self.fail("Let-Base-Ref", "t3 ⊒ pc", e)
                return LOW, t3, {**env, x: ty}
            case t1:  # rhs : t1 @ t2
                frame.rule = "Let-Base"
                if not is_base(t1):
                    self.fail("Let-Base", "t1 ∈ {Low, High}", e)
                if not leq(pc, t1):
                    self.fail("Let-Base", "t1 ⊒ pc", e)
                return LOW, meet([t1, t2]), {**env, x: t1}

    def _if(self, frame: TraceFrame, env: TEnv, pc: SecType, e: If) -> Judged:
        t1, t2, _ = self.check(env, pc, e.cond)
        if not is_base(t1):
            self.fail("If-Else", "t1 ∈ {Low, High}", e)
        pc2 = join([pc, t1])
        t3, t4, _ = self.check(env, pc2, e.then)
        t5, t6, _ = self.check(env, pc2, e.orelse)
        try:
            t7 = join([t1, t3, t5])
        except LatticeError:
            self.fail("If-Else", "t7 = ⊔{t1, t3, t5}", e)
        return t7, meet([t2, t4, t6]), env

    def _while(self, frame: TraceFrame, env: TEnv, pc: SecType, e: While) -> Judged:
        t1, t2, _ = self.check(env, pc, e.cond)
        if not is_base(t1):
            self.fail("While", "t1 ∈ {Low, High}", e)
        _, t4, _ = self.check(env, join([pc, t1]), e.body)
        return LOW, meet([t2, t4]), env

    def _for(self, frame: TraceFrame, env: TEnv, pc: SecType, e: For) -> Judged:
        t1, t2, _ = self.check(env, pc, e.start)
        t3, t4, _ = self.check(env, pc, e.stop)
        if not (is_base(t1) and is_base(t3)):
            self.fail("For", "t1, t3 ∈ {Low, High}", e)
        pc2 = join([pc, t1, t3])
        _, t6, _ = self.check({**env, e.var: pc2}, pc2, e.body)
        return LOW, meet([t2, t4, t6]), env

    def _seq(self, frame: TraceFrame, env: TEnv, pc: SecType, e: Seq) -> Judged:
        """Down a chain of statements each link's frame is pushed and its
        `first` checked in turn; the chain's frames share one text, and are
        judged from the last statement back."""
        spine = []  # each link's frame, with its `first`'s effect
        while type(e) is Seq:
            _, first_eff, env = self.check(env, pc, e.first)
            spine.append((frame, first_eff))
            start = frame.start + len(pretty_line(e.first, self.text)) + 1
            e = e.second
            name, rule = _RULES[type(e)]  # an Expr: pretty has rendered the whole chain
            frame = TraceFrame(name, frame.text, start)
            self.log.append(frame)
        t, eff, env = rule(self, frame, env, pc, e)
        frame.judged = t, eff
        for link, first_eff in reversed(spine):
            eff = meet([first_eff, eff])
            link.judged = t, eff
        return t, eff, env

    def _func(self, frame: TraceFrame, env: TEnv, pc: SecType, e: Func) -> Judged:
        t1 = e.annot
        if not well_formed(t1):
            self.fail("Func", "t1 well-formed", e)
        t2, t3, _ = self.check({**env, e.param: t1}, pc, e.body)
        if not leq(pc, t3):
            self.fail("Func", "t3 ⊒ pc", e)
        return FunType(t1, t2, t3), EMPTY, env

    def _app(self, frame: TraceFrame, env: TEnv, pc: SecType, e: App) -> Judged:
        t_arg, t5, _ = self.check(env, pc, e.arg)  # argument is typed first
        ft, t2, _ = self.check(env, pc, e.fn)
        if not isinstance(ft, FunType):
            self.fail("App", "e1 : (t1 → t3 @ t4)", e)
        if ft.param != t_arg:
            self.fail("App", "e2 : t1", e)
        t6 = meet([t5, ft.latent, t2])
        if not leq(pc, t6):
            self.fail("App", "t6 ⊒ pc1", e)
        return ft.result, t6, env

    def _ref(self, frame: TraceFrame, env: TEnv, pc: SecType, e: Ref) -> Judged:
        t1, t2, _ = self.check(env, pc, e.inner)
        if not is_base(t1):
            self.fail("Ref", "t1 ∈ {Low, High}", e)
        return RefType(t1), t2, env

    def _deref(self, frame: TraceFrame, env: TEnv, pc: SecType, e: Deref) -> Judged:
        t = env.get(e.name)
        if not isinstance(t, RefType):
            self.fail("Deref", "Γ(x) = ref t1", e)
        return t.inner, EMPTY, env

    def _assign(self, frame: TraceFrame, env: TEnv, pc: SecType, e: Assign) -> Judged:
        t = env.get(e.name)
        if not isinstance(t, RefType):
            self.fail("Reassign", "Γ(x) = ref t3", e)
        t3 = t.inner
        if not is_base(t3):
            self.fail("Reassign", "t3 ∈ {Low, High}", e)
        t1, t2, _ = self.check(env, pc, e.rhs)
        if not leq(t1, t3):
            self.fail("Reassign", "t3 ⊒ t1", e)
        if not leq(pc, t3):
            self.fail("Reassign", "t3 ⊒ pc", e)
        return LOW, meet([t3, t2]), env


# Each Expr class's rule name and rule: class Num has "Num" and method _num,
# and so on. A `Let` frame's name is refined to Let-n / Let-Base* by its rule.
_RULES = {
    cls: (name, getattr(_Checker, "_" + cls.__name__.lower()))
    for cls, name in (
        (Num, "Num"), (Bool, "Bool"), (Unit, "Unit"), (Var, "Var"), (Bop, "Bop"),
        (Let, "Let"), (If, "If-Else"), (While, "While"), (For, "For"), (Seq, "Seq"),
        (Func, "Func"), (App, "App"), (Ref, "Ref"), (Deref, "Deref"), (Assign, "Reassign"),
    )
}


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
    return Judgment(*c.check(dict(env), pc, e)), c.log


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
