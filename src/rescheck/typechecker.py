"""Security type checker.

check(env, pc, e) is syntax directed: each expression form selects exactly
one rule, with `let` dispatching on the annotation or on the shape of the
inferred right-hand type. `_RULES` maps each `Expr` class to its rule name
and the `_Checker` method that applies it, so a node costs one lookup to
dispatch, and anything else raises TypeError. Every rule application logs a
frame whose text is one memo lookup in `pretty` (a chain of statements
slices its first frame's text). Judgments carry the expression's type, its
write effect and the updated type environment. Failures raise CheckError
with the rule name, the side condition that failed, the source position and
the derivation path from the root to the failing rule.
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


@dataclass(frozen=True, slots=True, init=False)
class Judgment:
    ty: SecType
    effect: SecType
    out_env: TEnv

    def __init__(self, ty: SecType, effect: SecType, out_env: TEnv):
        _set_ty(self, ty)
        _set_effect(self, effect)
        _set_env(self, out_env)

    def summary(self) -> str:
        return _summary(self.ty, self.effect)


# The slots' own setters, without the frozen class's __setattr__ path.
_set_ty, _set_effect, _set_env = (
    Judgment.ty.__set__, Judgment.effect.__set__, Judgment.out_env.__set__
)


@dataclass
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
    """One check. Each rule is a method `(frame, env, pc, e) -> Judgment`,
    found by the node's class in `_RULES`; it may refine `frame.rule`."""

    def __init__(self) -> None:
        self.log: list[TraceFrame] = []
        self.text: dict[int, str] = {}  # pretty's memo: each node's text, by id, for this check

    def fail(self, rule: str, condition: str, e: Expr) -> None:
        path = [f for f in self.log if f.judged is None]  # the rules in progress, root first
        path[-1].rule, path[-1].failed = rule, condition
        raise CheckError(rule, condition, e.pos, path)

    def check(self, env: TEnv, pc: SecType, e: Expr) -> Judgment:
        """Apply e's rule under a new frame."""
        try:
            name, rule = _RULES[type(e)]
        except KeyError:
            raise TypeError(f"not an Expr: {e!r}") from None
        frame = TraceFrame(name, pretty(e, self.text))
        self.log.append(frame)
        j = rule(self, frame, env, pc, e)
        frame.judged = j.ty, j.effect
        return j

    def _join(self, parts: list[SecType], rule: str, condition: str, e: Expr) -> SecType:
        try:
            return join(parts)
        except LatticeError:
            self.fail(rule, condition, e)
            raise AssertionError  # unreachable

    def _num(self, frame: TraceFrame, env: TEnv, pc: SecType, e: Expr) -> Judgment:
        return Judgment(LOW, EMPTY, env)

    _bool = _unit = _num

    def _var(self, frame: TraceFrame, env: TEnv, pc: SecType, e: Var) -> Judgment:
        t = env.get(e.name)
        if t is None:
            self.fail("Var", "Γ(x) = t", e)
        return Judgment(t, EMPTY, env)

    def _bop(self, frame: TraceFrame, env: TEnv, pc: SecType, e: Bop) -> Judgment:
        j1 = self.check(env, pc, e.lhs)
        j2 = self.check(env, pc, e.rhs)
        if not (is_base(j1.ty) and is_base(j2.ty)):
            self.fail("Bop", "t1, t3 ∈ {Low, High}", e)
        t5 = self._join([j1.ty, j2.ty], "Bop", "t5 = ⊔{t1, t3}", e)
        return Judgment(t5, meet([j1.effect, j2.effect]), env)

    def _let(self, frame: TraceFrame, env: TEnv, pc: SecType, e: Let) -> Judgment:
        x, annot, rhs = e.name, e.annot, e.rhs
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

    def _if(self, frame: TraceFrame, env: TEnv, pc: SecType, e: If) -> Judgment:
        j1 = self.check(env, pc, e.cond)
        if not is_base(j1.ty):
            self.fail("If-Else", "t1 ∈ {Low, High}", e)
        pc2 = join([pc, j1.ty])
        j2 = self.check(env, pc2, e.then)
        j3 = self.check(env, pc2, e.orelse)
        t7 = self._join([j1.ty, j2.ty, j3.ty], "If-Else", "t7 = ⊔{t1, t3, t5}", e)
        t8 = meet([j1.effect, j2.effect, j3.effect])
        return Judgment(t7, t8, env)

    def _while(self, frame: TraceFrame, env: TEnv, pc: SecType, e: While) -> Judgment:
        j1 = self.check(env, pc, e.cond)
        if not is_base(j1.ty):
            self.fail("While", "t1 ∈ {Low, High}", e)
        pc2 = join([pc, j1.ty])
        j2 = self.check(env, pc2, e.body)
        return Judgment(LOW, meet([j1.effect, j2.effect]), env)

    def _for(self, frame: TraceFrame, env: TEnv, pc: SecType, e: For) -> Judgment:
        j1 = self.check(env, pc, e.start)
        j2 = self.check(env, pc, e.stop)
        if not (is_base(j1.ty) and is_base(j2.ty)):
            self.fail("For", "t1, t3 ∈ {Low, High}", e)
        pc2 = join([pc, j1.ty, j2.ty])
        j3 = self.check({**env, e.var: pc2}, pc2, e.body)
        t8 = meet([j1.effect, j2.effect, j3.effect])
        return Judgment(LOW, t8, env)

    def _seq(self, frame: TraceFrame, env: TEnv, pc: SecType, e: Seq) -> Judgment:
        """Down a chain of statements each link's frame is pushed and its
        `first` checked in turn; the chain's frames share one text, and are
        judged from the last statement back."""
        spine = []  # each link's frame, with its `first`'s effect
        while type(e) is Seq:
            j = self.check(env, pc, e.first)
            spine.append((frame, j.effect))
            env = j.out_env
            start = frame.start + len(pretty_line(e.first, self.text)) + 1
            e = e.second
            name, rule = _RULES[type(e)]  # an Expr: pretty has rendered the whole chain
            frame = TraceFrame(name, frame.text, start)
            self.log.append(frame)
        j = rule(self, frame, env, pc, e)
        frame.judged = j.ty, j.effect
        for link, effect in reversed(spine):
            j = Judgment(j.ty, meet([effect, j.effect]), j.out_env)
            link.judged = j.ty, j.effect
        return j

    def _func(self, frame: TraceFrame, env: TEnv, pc: SecType, e: Func) -> Judgment:
        if not well_formed(e.annot):
            self.fail("Func", "t1 well-formed", e)
        j = self.check({**env, e.param: e.annot}, pc, e.body)
        if not leq(pc, j.effect):
            self.fail("Func", "t3 ⊒ pc", e)
        return Judgment(FunType(e.annot, j.ty, j.effect), EMPTY, env)

    def _app(self, frame: TraceFrame, env: TEnv, pc: SecType, e: App) -> Judgment:
        j2 = self.check(env, pc, e.arg)  # argument is typed first
        j1 = self.check(env, pc, e.fn)
        ft = j1.ty
        if not isinstance(ft, FunType):
            self.fail("App", "e1 : (t1 → t3 @ t4)", e)
        if ft.param != j2.ty:
            self.fail("App", "e2 : t1", e)
        t6 = meet([j2.effect, ft.latent, j1.effect])
        if not leq(pc, t6):
            self.fail("App", "t6 ⊒ pc1", e)
        return Judgment(ft.result, t6, env)

    def _ref(self, frame: TraceFrame, env: TEnv, pc: SecType, e: Ref) -> Judgment:
        j = self.check(env, pc, e.inner)
        if not is_base(j.ty):
            self.fail("Ref", "t1 ∈ {Low, High}", e)
        return Judgment(RefType(j.ty), j.effect, env)

    def _deref(self, frame: TraceFrame, env: TEnv, pc: SecType, e: Deref) -> Judgment:
        t = env.get(e.name)
        if not isinstance(t, RefType):
            self.fail("Deref", "Γ(x) = ref t1", e)
        return Judgment(t.inner, EMPTY, env)

    def _assign(self, frame: TraceFrame, env: TEnv, pc: SecType, e: Assign) -> Judgment:
        t = env.get(e.name)
        if not isinstance(t, RefType):
            self.fail("Reassign", "Γ(x) = ref t3", e)
        t3 = t.inner
        if not is_base(t3):
            self.fail("Reassign", "t3 ∈ {Low, High}", e)
        j = self.check(env, pc, e.rhs)
        if not leq(j.ty, t3):
            self.fail("Reassign", "t3 ⊒ t1", e)
        if not leq(pc, t3):
            self.fail("Reassign", "t3 ⊒ pc", e)
        t4 = meet([t3, j.effect])
        return Judgment(LOW, t4, env)


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
