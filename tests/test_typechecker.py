"""Typing rules: accepted judgments, rejected side conditions, traces."""

import dataclasses
import pickle
import random

import pytest

import astgen
from rescheck import (
    EMPTY,
    HIGH,
    LOW,
    CheckError,
    FunType,
    GenConfig,
    Judgment,
    RefType,
    check,
    check_program,
    error_json,
    gen_tenv,
    gen_welltyped,
    judgment_json,
    leq,
    parse,
    pretty,
    syntax,
    trace_check,
    typechecker,
)
from rescheck.harness import _SUITE_TABLE


def chk(src, env=None, pc=LOW):
    return check(dict(env or {}), pc, parse(src))


def rejected(src, env=None, pc=LOW) -> CheckError:
    with pytest.raises(CheckError) as exc:
        chk(src, env, pc)
    return exc.value


class TestLiteralsAndVariables:
    def test_literals_are_low_and_pure(self):
        for src in ("3", "-5", "true", "false", "()"):
            j = chk(src)
            assert (j.ty, j.effect) == (LOW, EMPTY)

    def test_var_reads_the_environment(self):
        j = chk("h", env={"h": HIGH})
        assert (j.ty, j.effect) == (HIGH, EMPTY)

    def test_unbound_var(self):
        err = rejected("x")
        assert (err.rule, err.condition) == ("Var", "Γ(x) = t")


class TestBop:
    def test_result_is_the_join_of_the_operands(self):
        assert chk("1 + 2").ty == LOW
        assert chk("h + 2", env={"h": HIGH}).ty == HIGH
        assert chk("2 < h", env={"h": HIGH}).ty == HIGH
        assert chk("1 + 2").effect == EMPTY

    def test_operands_must_be_base_levels(self):
        err = rejected("f + 1", env={"f": FunType(LOW, LOW, EMPTY)})
        assert (err.rule, err.condition) == ("Bop", "t1, t3 ∈ {Low, High}")
        err = rejected("1 + r", env={"r": RefType(LOW)})
        assert err.rule == "Bop"


class TestLetAnnotated:
    def test_annotation_fixes_the_level(self):
        j = chk("let h: high = 2")
        assert j.ty == LOW
        assert j.effect == HIGH
        assert j.out_env == {"h": HIGH}

    def test_high_source_cannot_flow_into_low(self):
        err = rejected("let h: high = 2\nlet l: low = h")
        assert (err.rule, err.condition) == ("Let-n", "t1 ⊒ t2")

    def test_rhs_must_be_a_base_level(self):
        err = rejected("let x: low = ref(1)")
        assert (err.rule, err.condition) == ("Let-n", "t1, t2 ∈ {Low, High}")

    def test_low_binding_rejected_under_high_pc(self):
        err = rejected("let l: low = 1", pc=HIGH)
        assert (err.rule, err.condition) == ("Let-n", "t1 ⊒ pc")

    def test_high_binding_accepted_under_high_pc(self):
        j = chk("let h: high = 1", pc=HIGH)
        assert j.out_env == {"h": HIGH}


class TestLetBase:
    def test_inferred_binding_and_effect(self):
        # The copy inherits the source's level; the whole program still
        # reports the high write that created the binding.
        j = check_program(parse("let h: high = 1\nlet y = h + 2"))
        assert j.ty == LOW
        assert j.effect == HIGH
        assert j.out_env == {"h": HIGH, "y": HIGH}

    def test_low_binding_under_high_pc_rejected(self):
        err = rejected("if h { let l = 3; () } else { () }", env={"h": HIGH})
        assert (err.rule, err.condition) == ("Let-Base", "t1 ⊒ pc")

    def test_high_binding_under_high_pc_accepted(self):
        # result joins the high guard; effect records the high-context write
        j = chk("if h { let x = h; () } else { () }", env={"h": HIGH})
        assert (j.ty, j.effect) == (HIGH, HIGH)


class TestLetBaseRef:
    def test_binding_a_fresh_ref(self):
        j = chk("let r = ref(2)")
        assert j.out_env == {"r": RefType(LOW)}
        assert j.effect == LOW

    def test_high_cell_allocation_has_a_high_effect(self):
        j = chk("let h: high = 2\nlet r = ref(h)")
        assert j.out_env["r"] == RefType(HIGH)

    def test_low_cell_allocation_rejected_under_high_pc(self):
        err = rejected("let r = ref(2)", pc=HIGH)
        assert (err.rule, err.condition) == ("Let-Base-Ref", "t3 ⊒ pc")

    def test_high_cell_allocation_accepted_under_high_pc(self):
        j = chk("let hb = h\nlet r = ref(hb)", env={"h": HIGH}, pc=HIGH)
        assert j.out_env["r"] == RefType(HIGH)


class TestLetBaseFunc:
    def test_binding_a_function_is_a_low_write(self):
        j = chk("let f = (x: low) => x + 1")
        assert j.out_env == {"f": FunType(LOW, LOW, EMPTY)}
        assert j.effect == LOW

    def test_rejected_under_high_pc_before_the_body_is_typed(self):
        # The body's own violation (a low write under a high pc) never
        # surfaces: the binding form is rejected first.
        err = rejected(
            "let f = (x: low) => { l := 5; x }",
            env={"l": RefType(LOW)},
            pc=HIGH,
        )
        assert (err.rule, err.condition) == ("Let-Base-Func", "Low ⊒ pc")

    def test_inferred_function_alias_also_dispatches_here(self):
        err = rejected("let g = f", env={"f": FunType(LOW, LOW, EMPTY)}, pc=HIGH)
        assert (err.rule, err.condition) == ("Let-Base-Func", "Low ⊒ pc")
        j = chk("let g = f", env={"f": FunType(LOW, LOW, EMPTY)})
        assert j.out_env["g"] == FunType(LOW, LOW, EMPTY)


class TestIfElse:
    def test_result_joins_guard_and_branches(self):
        j = chk("if h { 2 } else { 3 }", env={"h": HIGH})
        assert j.ty == HIGH
        j = chk("if true { 2 } else { 3 }")
        assert j.ty == LOW

    def test_guard_must_be_a_base_level(self):
        err = rejected("if r { 1 } else { 2 }", env={"r": RefType(LOW)})
        assert (err.rule, err.condition) == ("If-Else", "t1 ∈ {Low, High}")

    def test_unjoinable_branches(self):
        err = rejected("if true { f } else { 3 }", env={"f": FunType(LOW, LOW, EMPTY)})
        assert (err.rule, err.condition) == ("If-Else", "t7 = ⊔{t1, t3, t5}")

    def test_branches_run_under_the_raised_pc(self):
        err = rejected("if h { l := 1 } else { () }", env={"h": HIGH, "l": RefType(LOW)})
        assert (err.rule, err.condition) == ("Reassign", "t3 ⊒ pc")

    def test_effect_is_the_meet_of_all_parts(self):
        j = chk("if true { g := 1 } else { () }", env={"g": RefType(HIGH)})
        assert j.effect == HIGH

    def test_bindings_inside_branches_do_not_escape(self):
        j = chk("if true { let x = 1; x } else { 2 }")
        assert j.out_env == {}


class TestWhile:
    def test_guard_level_raises_the_body_pc(self):
        err = rejected(
            "while !h { l := 1 }", env={"h": RefType(HIGH), "l": RefType(LOW)}
        )
        assert (err.rule, err.condition) == ("Reassign", "t3 ⊒ pc")

    def test_result_is_low(self):
        j = chk("while false { () }")
        assert (j.ty, j.effect) == (LOW, EMPTY)

    def test_guard_must_be_a_base_level(self):
        err = rejected("while f { () }", env={"f": FunType(LOW, LOW, EMPTY)})
        assert (err.rule, err.condition) == ("While", "t1 ∈ {Low, High}")


class TestFor:
    def test_loop_variable_is_scoped_to_the_body(self):
        j = chk("for i in 1 to 3 { i }")
        assert j.out_env == {}
        err = rejected("for i in 1 to 3 { i }\ni")
        assert err.rule == "Var"

    def test_bounds_must_be_base_levels(self):
        err = rejected("for i in r to 3 { i }", env={"r": RefType(LOW)})
        assert (err.rule, err.condition) == ("For", "t1, t3 ∈ {Low, High}")
        err = rejected("for i in 1 to f { i }", env={"f": FunType(LOW, LOW, EMPTY)})
        assert err.rule == "For"

    def test_high_bounds_raise_the_body_pc(self):
        err = rejected(
            "for i in 1 to h { l := 0 }", env={"h": HIGH, "l": RefType(LOW)}
        )
        assert (err.rule, err.condition) == ("Reassign", "t3 ⊒ pc")
        # with a high rhs the value condition fires first
        err = rejected(
            "for i in 1 to h { l := i }", env={"h": HIGH, "l": RefType(LOW)}
        )
        assert (err.rule, err.condition) == ("Reassign", "t3 ⊒ t1")

    def test_loop_variable_level_tracks_the_bounds(self):
        j = chk("for i in 1 to h { g := i }", env={"h": HIGH, "g": RefType(HIGH)})
        assert (j.ty, j.effect) == (LOW, HIGH)


class TestFunc:
    def test_latent_effect_is_the_body_effect(self):
        j = chk("(x: low) => l := x", env={"l": RefType(LOW)})
        assert j.ty == FunType(LOW, LOW, LOW)
        assert j.effect == EMPTY

    def test_annotation_must_be_well_formed(self):
        from rescheck import Func, Num, Var

        bad = Func("x", RefType(RefType(LOW)), Var("x"))
        with pytest.raises(CheckError) as exc:
            check({}, LOW, bad)
        assert (exc.value.rule, exc.value.condition) == ("Func", "t1 well-formed")

    def test_anonymous_function_accepted_under_high_pc(self):
        # Under a high pc every inferable body effect already dominates the
        # pc, so the effect-vs-pc condition cannot fire for a bare lambda.
        j = chk("(x: low) => x", pc=HIGH)
        assert j.ty == FunType(LOW, LOW, EMPTY)

    def test_ref_parameters_are_allowed(self):
        j = chk("(r: ref high) => !r")
        assert j.ty == FunType(RefType(HIGH), HIGH, EMPTY)


class TestApp:
    def test_result_and_effect(self):
        env = {"f": FunType(LOW, HIGH, EMPTY)}
        j = chk("f 2", env=env)
        assert (j.ty, j.effect) == (HIGH, EMPTY)

    def test_argument_type_must_match_exactly(self):
        err = rejected("f h", env={"f": FunType(LOW, LOW, EMPTY), "h": HIGH})
        assert (err.rule, err.condition) == ("App", "e2 : t1")
        # no implicit widening in the other direction either
        err = rejected("f 2", env={"f": FunType(HIGH, LOW, EMPTY)})
        assert (err.rule, err.condition) == ("App", "e2 : t1")

    def test_callee_must_be_a_function(self):
        err = rejected("x 2", env={"x": LOW})
        assert (err.rule, err.condition) == ("App", "e1 : (t1 → t3 @ t4)")

    def test_low_latent_effect_rejected_under_high_pc(self):
        err = rejected("f 2", env={"f": FunType(LOW, LOW, LOW)}, pc=HIGH)
        assert (err.rule, err.condition) == ("App", "t6 ⊒ pc1")

    def test_high_latent_effect_accepted_under_high_pc(self):
        j = chk("f 2", env={"f": FunType(LOW, LOW, HIGH)}, pc=HIGH)
        assert j.effect == HIGH

    def test_argument_is_typed_before_the_callee(self):
        err = rejected("f z")
        assert err.rule == "Var"
        assert err.at is not None and (err.at.line, err.at.col) == (1, 3)


class TestRefDerefAssign:
    def test_ref_of_a_function_rejected(self):
        err = rejected("ref(f)", env={"f": FunType(LOW, LOW, EMPTY)})
        assert (err.rule, err.condition) == ("Ref", "t1 ∈ {Low, High}")

    def test_deref_needs_a_ref_binding(self):
        assert chk("!r", env={"r": RefType(HIGH)}).ty == HIGH
        err = rejected("!x", env={"x": LOW})
        assert (err.rule, err.condition) == ("Deref", "Γ(x) = ref t1")
        err = rejected("!missing")
        assert err.rule == "Deref"

    def test_assign_needs_a_ref_binding(self):
        err = rejected("x := 1", env={"x": LOW})
        assert (err.rule, err.condition) == ("Reassign", "Γ(x) = ref t3")

    def test_high_value_into_low_cell_rejected(self):
        err = rejected("l := h", env={"l": RefType(LOW), "h": HIGH})
        assert (err.rule, err.condition) == ("Reassign", "t3 ⊒ t1")

    def test_low_value_into_high_cell_accepted(self):
        j = chk("g := 2", env={"g": RefType(HIGH)})
        assert (j.ty, j.effect) == (LOW, HIGH)

    def test_assignment_effect_is_the_cell_level(self):
        assert chk("l := 2", env={"l": RefType(LOW)}).effect == LOW


class TestSeq:
    def test_bindings_thread_left_to_right(self):
        j = chk("let x = 1\nlet y = x\ny")
        assert j.ty == LOW
        assert j.out_env == {"x": LOW, "y": LOW}

    def test_effect_is_the_meet(self):
        j = chk("g := 1\n2", env={"g": RefType(HIGH)})
        assert (j.ty, j.effect) == (LOW, HIGH)


class TestTraceAndValidation:
    def test_trace_lists_rules_in_derivation_order(self):
        _, log = trace_check({}, LOW, parse("1 + 2"))
        assert [f.rule for f in log] == ["Bop", "Num", "Num"]
        assert log[0].result == "Low @ ()"

    def test_error_trace_is_the_path_to_the_failure(self):
        with pytest.raises(CheckError) as exc:
            check({}, LOW, parse("let h: high = 2\nlet l: low = h"))
        assert [f.rule for f in exc.value.trace] == ["Seq", "Let-n"]
        assert exc.value.trace[-1].result == "failed: t1 ⊒ t2"

    def test_error_message_includes_rule_and_position(self):
        with pytest.raises(CheckError) as exc:
            check({}, LOW, parse("let h: high = 2\nlet l: low = h"))
        assert str(exc.value) == "(Let-n) requires t1 ⊒ t2 at 2:1"

    def test_pc_must_be_a_base_level(self):
        with pytest.raises(ValueError):
            check({}, EMPTY, parse("1"))

    def test_env_types_must_be_well_formed(self):
        with pytest.raises(ValueError):
            check({"r": RefType(EMPTY)}, LOW, parse("1"))

    def test_input_env_is_not_mutated(self):
        env = {"h": HIGH}
        chk("let x = 1", env=env)
        assert env == {"h": HIGH}

    def test_check_program_uses_empty_env_and_low_pc(self):
        assert check_program(parse("1 + 2")) == Judgment(LOW, EMPTY, {})


class TestJsonViews:
    def test_judgment_json(self):
        j, log = trace_check({}, LOW, parse("let h: high = 2"))
        out = judgment_json(j)
        assert out == {
            "status": "ok",
            "type": "low",
            "effect": "high",
            "env": {"h": "high"},
        }
        with_trace = judgment_json(j, log)
        assert [f["rule"] for f in with_trace["trace"]] == ["Let-n", "Num"]

    def test_error_json(self):
        with pytest.raises(CheckError) as exc:
            check({"f": FunType(LOW, LOW, EMPTY)}, LOW, parse("f + 1"))
        out = error_json(exc.value)
        assert out["status"] == "error"
        assert out["error"] == {
            "rule": "Bop",
            "condition": "t1, t3 ∈ {Low, High}",
            "line": 1,
            "col": 1,
        }
        assert "trace" not in out
        assert "trace" in error_json(exc.value, trace=True)


class TestDispatch:
    def concrete_exprs(self):
        out, todo = set(), [syntax.Expr]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if cls is not syntax.Expr:
                out.add(cls)
        return out

    def test_every_expr_class_has_exactly_one_rule_and_rule_name(self):
        exprs = self.concrete_exprs()
        assert len(exprs) == 15
        assert set(typechecker._RULES) == exprs
        names = [name for name, _ in typechecker._RULES.values()]
        assert len(set(names)) == len(names)
        for name, rule in typechecker._RULES.values():
            assert getattr(typechecker._Checker, rule.__name__) is rule

    @pytest.mark.parametrize(
        "src, rule",
        [
            ("1", "Num"), ("true", "Bool"), ("()", "Unit"), ("x", "Var"), ("1 + x", "Bop"),
            ("let y = 1", "Let-Base"), ("if true { 1 } else { 2 }", "If-Else"),
            ("while false { () }", "While"), ("for i in 1 to 2 { () }", "For"),
            ("1\n2", "Seq"), ("(z: low) => z", "Func"), ("f 1", "App"), ("ref(1)", "Ref"),
            ("!r", "Deref"), ("r := 1", "Reassign"),
        ],
    )
    def test_each_class_is_judged_by_its_rule(self, src, rule):
        e = parse(src)
        env = {"x": LOW, "f": FunType(LOW, LOW, EMPTY), "r": RefType(LOW)}
        _, log = trace_check(env, LOW, e)
        # The table names a let "Let"; its rule refines the frame's name.
        assert typechecker._RULES[type(e)][0] == rule.removesuffix("-Base")
        assert log[0].rule == rule

    @pytest.mark.parametrize(
        "e",
        [42, "x", None, syntax.Expr(), syntax.Bop(syntax.BinOp.ADD, syntax.Num("1"), 42)],
        ids=["int", "str", "None", "bare Expr", "inside a tree"],
    )
    def test_a_non_expr_is_a_type_error(self, e):
        bad = e.rhs if isinstance(e, syntax.Bop) else e
        with pytest.raises(TypeError) as err:
            check({}, LOW, e)
        assert str(err.value) == f"not an Expr: {bad!r}"


class TestJudgment:
    J = Judgment(LOW, EMPTY, {"x": RefType(HIGH)})

    def test_is_frozen(self):
        for name, value in (("ty", HIGH), ("effect", LOW), ("out_env", {})):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(self.J, name, value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(self.J, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.J.other = 1
        assert not hasattr(self.J, "other")
        assert self.J == Judgment(LOW, EMPTY, {"x": RefType(HIGH)})

    def test_equality_is_by_fields(self):
        assert self.J == Judgment(LOW, EMPTY, {"x": RefType(HIGH)})
        assert self.J != Judgment(HIGH, EMPTY, {"x": RefType(HIGH)})
        assert self.J != Judgment(LOW, LOW, {"x": RefType(HIGH)})
        assert self.J != Judgment(LOW, EMPTY, {})
        assert self.J != (LOW, EMPTY, {"x": RefType(HIGH)})

    def test_repr(self):
        assert repr(self.J) == (
            "Judgment(ty=Low(), effect=Empty(), out_env={'x': RefType(inner=High())})"
        )

    def test_replace(self):
        j = dataclasses.replace(self.J, ty=HIGH)
        assert j == Judgment(HIGH, EMPTY, {"x": RefType(HIGH)})
        assert self.J.ty == LOW
        assert [f.name for f in dataclasses.fields(j)] == ["ty", "effect", "out_env"]

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        j = pickle.loads(pickle.dumps(self.J, protocol))
        assert j == self.J
        assert type(j) is Judgment
        assert j.summary() == "Low @ ()"


class TestOneJudgmentPerCheck:
    """Rules conclude with plain (t, eff, Γ′) triples: the only Judgment a
    check builds is the root's."""

    SOURCE = "\n".join(
        [
            "let r = ref(0)",
            "let h: high = 1",
            "let f = (n: low) => n + 1",
            *(
                [
                    "let vK = f K * 2",
                    "r := !r + K",
                    "if !r < K { r := 1 } else { () }",
                    "while !r > 9 { r := !r - 1 }",
                    "for i in 0 to K { r := i }",
                ][k % 5].replace("K", str(k))
                for k in range(46)
            ),
            "!r",
        ]
    )

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        real = typechecker.Judgment
        monkeypatch.setattr(typechecker, "Judgment", lambda *a: built.append(a) or real(*a))
        return built

    @pytest.mark.parametrize(
        "run",
        [lambda e: check({}, LOW, e), lambda e: trace_check({}, LOW, e)[0], check_program],
        ids=["check", "trace_check", "check_program"],
    )
    def test_one_check_builds_one_judgment(self, built, run):
        assert self.SOURCE.count("\n") + 1 == 50
        j = run(parse(self.SOURCE))
        assert built == [(j.ty, j.effect, j.out_env)]
        assert j.summary() == "Low @ Low"
        assert len(j.out_env) == 13  # r, h, f and v0, v5, …, v45

    def test_a_rejected_check_builds_none(self, built):
        with pytest.raises(CheckError):
            check({}, LOW, parse(self.SOURCE + "\nr := h"))
        assert built == []


class TestConfinement:
    """Every accepted judgment Γ, pc ⊢ e : t @ eff has pc ⊑ eff: each rule
    that writes checks its level against pc, and every other rule meets its
    premises' effects. So three of the paper's premises cannot fail: `Func`'s
    body is checked at the same pc, and a well-formed Γ, with `Ref` and
    `Func` checking their own types, gives every ref type a base inner."""

    UNFIREABLE = {
        ("Func", "t3 ⊒ pc"),
        ("Let-Base-Ref", "t1 ∈ {Low, High}"),
        ("Reassign", "t3 ∈ {Low, High}"),
    }

    def test_random_trees_under_random_environments(self):
        rng, accepted = random.Random(2024), {LOW: 0, HIGH: 0}
        for _ in range(20_000):
            env = {}
            for name in rng.sample(astgen._NAMES, rng.randint(0, len(astgen._NAMES))):
                t = astgen.gen_type(rng)
                if syntax.well_formed(t):
                    env[name] = t
            e = astgen.gen_expr(rng, rng.randint(0, 5))
            for pc in (LOW, HIGH):
                try:
                    j = check(env, pc, e)
                except CheckError as err:
                    assert (err.rule, err.condition) not in self.UNFIREABLE, pretty(e)
                    continue
                accepted[pc] += 1
                assert leq(pc, j.effect), (pc, pretty(e))
        assert min(accepted.values()) > 5_000

    @pytest.mark.parametrize("suite", list(_SUITE_TABLE))
    def test_generated_programs(self, suite):
        pc, clean = _SUITE_TABLE[suite].pc, _SUITE_TABLE[suite].effect_clean
        for seed in range(250):
            cfg = GenConfig(rng_seed=seed)
            tenv = gen_tenv(cfg)
            j = check(tenv, pc, gen_welltyped(cfg, tenv, pc, effect_clean=clean))
            assert leq(pc, j.effect)
