"""Big-step evaluation: values, stores, faults, and fuel accounting."""

import dataclasses
import pickle

import pytest

from rescheck import (
    BoolV,
    ClosV,
    DepthExceeded,
    FaultKind,
    FuelExhausted,
    IntV,
    LocV,
    Ok,
    RuntimeFault,
    Store,
    UnitV,
    evaluate,
    parse,
    pretty_value,
    run_program,
)
from rescheck import interpreter, syntax

FUEL = 10_000


def run(src, env=None, store=None, fuel=FUEL):
    return evaluate(parse(src), dict(env or {}), store or Store(), fuel)


def value_of(src, **kw):
    out = run(src, **kw)
    assert isinstance(out, Ok), out
    return out.value


class TestValues:
    def test_literals(self):
        assert value_of("42") == IntV(42)
        assert value_of("-7") == IntV(-7)
        assert value_of("true") == BoolV(True)
        assert value_of("()") == UnitV()

    def test_pretty_value(self):
        assert pretty_value(IntV(-3)) == "-3"
        assert pretty_value(BoolV(True)) == "true"
        assert pretty_value(UnitV()) == "unit"
        assert pretty_value(LocV(2)) == "ℓ2"

    def test_values_are_frozen(self):
        for v, field in ((IntV(3), "n"), (BoolV(True), "b"), (value_of("1 < 2"), "b")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(v, field, 0)

    @pytest.mark.parametrize(
        "v", [IntV(3), BoolV(True), LocV(0), ClosV(parse("x"), "x", {"y": IntV(1)})], ids=repr
    )
    def test_values_are_slotted_and_reject_new_attributes(self, v):
        assert not hasattr(v, "__dict__")
        field = dataclasses.fields(v)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(v, field)
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.other = 1
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            got = pickle.loads(pickle.dumps(v, protocol))
            assert type(got) is type(v) and got == v

    def test_unit_value_is_slotted_and_rejects_new_attributes(self):
        assert not hasattr(UnitV(), "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            UnitV().other = 1
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(UnitV(), protocol)) == UnitV()

    def test_values_compare_and_hash_by_value(self):
        assert IntV(10**30) == IntV(10**30) and hash(IntV(7)) == hash(IntV(7))
        assert IntV(1) != IntV(2) and IntV(1) != BoolV(True)
        assert value_of("1 < 2") == BoolV(True) and value_of("2 == 3") == BoolV(False)
        assert {IntV(5): "five", BoolV(False): "no"}[value_of("2 + 3")] == "five"

    def test_value_reprs(self):
        assert repr(IntV(-4)) == "IntV(n=-4)"
        assert repr(value_of("true == false")) == "BoolV(b=False)"

    def test_match_patterns_bind(self):
        match value_of("6 * 7"), value_of("1 > 0"):
            case IntV(n), BoolV(b=b):
                assert (n, b) == (42, True)
            case _:
                pytest.fail("no pattern matched")

    def test_pretty_value_past_the_int_to_str_limit(self):
        assert pretty_value(IntV(-(10**5000))) == "-1" + "0" * 5000
        assert pretty_value(ClosV(parse("x"), "x", {})).startswith("<fun ")


class TestArithmetic:
    def test_operators(self):
        assert value_of("2 + 3 * 4") == IntV(14)
        assert value_of("10 - 2 - 3") == IntV(5)
        assert value_of("7 < 8") == BoolV(True)
        assert value_of("7 > 8") == BoolV(False)
        assert value_of("3 == 3") == BoolV(True)
        assert value_of("true == false") == BoolV(False)

    def test_division_truncates_toward_zero(self):
        assert value_of("7 / 2") == IntV(3)
        assert value_of("(0 - 7) / 2") == IntV(-3)
        assert value_of("7 / (0 - 2)") == IntV(-3)
        assert value_of("(0 - 7) / (0 - 2)") == IntV(3)

    def test_division_by_zero_faults(self):
        out = run("1 / 0")
        assert isinstance(out, RuntimeFault)
        assert out.kind == FaultKind.DIV_BY_ZERO
        assert out.at is not None and (out.at.line, out.at.col) == (1, 1)


class TestFaults:
    def test_unbound_variable(self):
        out = run("missing")
        assert isinstance(out, RuntimeFault) and out.kind == FaultKind.UNBOUND_VAR

    def test_not_a_function(self):
        out = run("let x = 1\nx 2")
        assert isinstance(out, RuntimeFault) and out.kind == FaultKind.NOT_A_FUNCTION

    def test_not_a_bool(self):
        out = run("if 1 { 2 } else { 3 }")
        assert isinstance(out, RuntimeFault) and out.kind == FaultKind.NOT_A_BOOL
        out = run("while 1 { () }")
        assert isinstance(out, RuntimeFault) and out.kind == FaultKind.NOT_A_BOOL

    def test_not_an_int(self):
        out = run("true + 1")
        assert isinstance(out, RuntimeFault) and out.kind == FaultKind.NOT_AN_INT
        out = run("1 == true")
        assert isinstance(out, RuntimeFault) and out.kind == FaultKind.NOT_AN_INT
        out = run("for i in true to 3 { () }")
        assert isinstance(out, RuntimeFault) and out.kind == FaultKind.NOT_AN_INT

    def test_not_a_loc(self):
        out = run("let x = 1\n!x")
        assert isinstance(out, RuntimeFault) and out.kind == FaultKind.NOT_A_LOC
        out = run("let x = 1\nx := 2")
        assert isinstance(out, RuntimeFault) and out.kind == FaultKind.NOT_A_LOC

    def test_dangling_location_faults_on_deref(self):
        out = run("!p", env={"p": LocV(9)}, store=Store({0: IntV(1)}))
        assert isinstance(out, RuntimeFault) and out.kind == FaultKind.NOT_A_LOC

    def test_for_bounds_must_be_ascending(self):
        out = run("for i in 3 to 1 { () }")
        assert isinstance(out, RuntimeFault)
        assert out.kind == FaultKind.FOR_BOUNDS_INVALID

    def test_assignment_evaluates_rhs_before_the_target(self):
        # the divide-by-zero in the right-hand side fires before the
        # unbound target is ever looked up
        out = run("nowhere := 1 / 0")
        assert isinstance(out, RuntimeFault) and out.kind == FaultKind.DIV_BY_ZERO

    def test_application_evaluates_callee_before_argument(self):
        out = run("(1 / 0) missing")
        assert isinstance(out, RuntimeFault) and out.kind == FaultKind.DIV_BY_ZERO


class TestEnvAndScope:
    def test_let_threads_bindings(self):
        assert value_of("let x = 2\nlet y = x + 3\ny") == IntV(5)

    def test_closures_capture_statically(self):
        src = "let a = 5\nlet f = (x: low) => x + a\nlet a = 14\nf 1"
        assert value_of(src) == IntV(6)

    def test_if_does_not_leak_bindings(self):
        out = run("if true { let x = 1; x } else { 2 }\nx")
        assert isinstance(out, RuntimeFault) and out.kind == FaultKind.UNBOUND_VAR

    def test_for_variable_does_not_leak(self):
        out = run("for i in 1 to 2 { i }\ni")
        assert isinstance(out, RuntimeFault) and out.kind == FaultKind.UNBOUND_VAR

    def test_while_body_bindings_do_not_leak(self):
        src = "let c = ref(1)\nwhile !c > 0 { let t = 9; c := !c - 1 }\n!c"
        assert value_of(src) == IntV(0)

    def test_a_closure_made_in_a_loop_keeps_its_iteration(self):
        src = (
            "let c = ref(0)\n"
            "for i in 1 to 3 { if i == 1 { c := (x: low) => i } else { 0 } }\n"
            "(!c) 0"
        )
        assert value_of(src) == IntV(1)

    def test_inputs_are_not_mutated(self):
        env = {"p": LocV(0)}
        store = Store({0: IntV(1)})
        out = run("p := 41\nlet q = 2\n!p", env=env, store=store)
        assert isinstance(out, Ok) and out.value == IntV(41)
        assert env == {"p": LocV(0)}
        assert store.data == {0: IntV(1)}


class TestStore:
    def test_aliasing_writes_through(self):
        out = run("let l = ref(2)\nlet h = l\nh := 4\n!l")
        assert isinstance(out, Ok)
        assert out.value == IntV(4)
        assert out.state.store.data == {0: IntV(4)}

    def test_allocation_is_sequential(self):
        out = run("let a = ref(1)\nlet b = ref(2)\nb")
        assert isinstance(out, Ok)
        assert out.value == LocV(1)
        assert out.state.store.data == {0: IntV(1), 1: IntV(2)}

    def test_allocation_skips_preexisting_locations(self):
        store = Store({5: IntV(9)})
        assert store.next_loc == 6
        out = run("ref(3)", store=store)
        assert isinstance(out, Ok) and out.value == LocV(6)
        assert out.state.store.data == {5: IntV(9), 6: IntV(3)}

    def test_aliased_cell_after_function_write(self):
        src = (
            "let l = ref(2)\n"
            "let f = (x: low) => l := x\n"
            "f 7\n"
            "!l"
        )
        assert value_of(src) == IntV(7)


class TestLoops:
    def test_for_sums_an_inclusive_range(self):
        src = "let s = ref(0)\nfor i in 1 to 3 { s := !s + i }\n!s"
        assert value_of(src) == IntV(sum(range(1, 4)))

    def test_for_single_iteration(self):
        src = "let s = ref(0)\nfor i in 2 to 2 { s := i }\n!s"
        assert value_of(src) == IntV(2)

    def test_while_counts_down(self):
        src = (
            "let c = ref(4)\nlet s = ref(0)\n"
            "while !c > 0 { s := !s + !c; c := !c - 1 }\n!s"
        )
        assert value_of(src) == IntV(10)

    def test_infinite_loop_exhausts_fuel(self):
        assert isinstance(run("while true { () }", fuel=50), FuelExhausted)


class TestFunctions:
    def test_application(self):
        assert value_of("let f = (x: low) => x + 1\nf 41") == IntV(42)

    def test_higher_order(self):
        src = (
            "let twice = (f: (low -> low @ ())) => (x: low) => f (f x)\n"
            "let inc = (x: low) => x + 1\n"
            "twice inc 5"
        )
        assert value_of(src) == IntV(7)

    def test_application_restores_the_caller_env(self):
        src = "let f = (x: low) => x + 1\nf 3\nx"
        out = run(src)
        assert isinstance(out, RuntimeFault) and out.kind == FaultKind.UNBOUND_VAR


class TestFuel:
    def test_every_rule_application_costs_one(self):
        # 1 + 2 applies three rules
        assert isinstance(run("1 + 2", fuel=3), Ok)
        assert isinstance(run("1 + 2", fuel=2), FuelExhausted)

    def test_while_false_costs_two(self):
        assert isinstance(run("while false { 0 }", fuel=2), Ok)
        assert isinstance(run("while false { 0 }", fuel=1), FuelExhausted)

    def test_while_charges_each_unfolding(self):
        # measure the exact cost empirically, then check one extra counter
        # turn always adds the same fixed increment
        src = "while !c > 0 { c := !c - 1 }"
        env = {"c": LocV(0)}

        def attempt(fuel):
            return evaluate(parse(src), dict(env), Store({0: IntV(2)}), fuel)

        costs = [f for f in range(1, 40) if isinstance(attempt(f), Ok)]
        assert costs, "loop should finish within 40 fuel"
        exact = costs[0]
        assert isinstance(attempt(exact - 1), FuelExhausted)
        # one more counter turn costs a fixed increment
        more = [
            f
            for f in range(1, 60)
            if isinstance(
                evaluate(parse(src), dict(env), Store({0: IntV(3)}), f), Ok
            )
        ][0]
        two = [
            f
            for f in range(1, 60)
            if isinstance(
                evaluate(parse(src), dict(env), Store({0: IntV(4)}), f), Ok
            )
        ][0]
        assert more - exact == two - more

    def test_for_charges_up_front(self):
        # for + 2 bounds + 3*(stop-start) + one body per iteration
        src = "for i in 1 to 3 { 0 }"
        assert isinstance(run(src, fuel=12), Ok)
        assert isinstance(run(src, fuel=11), FuelExhausted)

    def test_for_charges_the_whole_unfolding_before_the_body(self):
        # for + 2 bounds + 3 * 100 = 303 before the first `1 / 0`, which costs 3
        src = "for i in 0 to 100 { 1 / 0 }"
        assert isinstance(run(src, fuel=302), FuelExhausted)  # the unfolding does not fit
        assert isinstance(run(src, fuel=305), FuelExhausted)
        fault = RuntimeFault(FaultKind.DIV_BY_ZERO, syntax.Pos(1, 21))
        assert run(src, fuel=306) == run(src, fuel=1000) == fault

    def test_zero_and_negative_fuel(self):
        assert isinstance(run("1", fuel=0), FuelExhausted)
        assert isinstance(run("1", fuel=1), Ok)

    def test_deep_recursion_is_depth_not_a_crash(self):
        # self-application nests one App inside the next, so with fuel to
        # spare it reaches the depth limit: a diagnosis of its own, not fuel
        src = "let w = (f: low) => f f\nw w"
        out = run(src, fuel=200_000)
        assert out == DepthExceeded(2500)

    def test_deeply_nested_expression_does_not_crash(self):
        src = "0" + (" + 1" * 3000)
        out = run(src, fuel=100_000)
        assert out == DepthExceeded(2500)

    def test_depth_limit_only_applies_with_fuel_left(self):
        src = "let w = (f: low) => f f\nw w"
        assert isinstance(run(src, fuel=2_000), FuelExhausted)

    def test_a_chain_far_past_the_limit_is_depth_not_a_crash(self):
        e = syntax.Num("0")
        for _ in range(20_000):
            e = syntax.Bop(syntax.BinOp.ADD, e, syntax.Num("1"))
        assert evaluate(e, {}, Store(), 100_000) == DepthExceeded(2500)

    @pytest.mark.parametrize(
        "src, fuel, outcome",
        [
            # 2,499 additions nest exactly 2,500 deep and apply 4,999 rules
            ("0" + " + 1" * 2499, 4998, FuelExhausted),
            ("0" + " + 1" * 2499, 4999, Ok),
            # one more addition puts its innermost literal past the limit
            ("0" + " + 1" * 2500, 2500, FuelExhausted),
            ("0" + " + 1" * 2500, 2501, DepthExceeded),
            # each let costs its link, itself and its literal, and every
            # statement runs one level below the chain: no chain is too deep
            ("\n".join(f"let x{i} = {i}" for i in range(2498)) + "\nx0", 7494, FuelExhausted),
            ("\n".join(f"let x{i} = {i}" for i in range(2498)) + "\nx0", 7495, Ok),
            ("\n".join(f"let x{i} = {i}" for i in range(2499)) + "\nx0", 7497, FuelExhausted),
            ("\n".join(f"let x{i} = {i}" for i in range(2499)) + "\nx0", 7498, Ok),
            ("let w = (f: low) => f f\nw w", 7498, FuelExhausted),
            ("let w = (f: low) => f f\nw w", 7499, DepthExceeded),
        ],
        ids=[
            "2499-adds-fuel", "2499-adds-ok", "2500-adds-fuel", "2500-adds-depth",
            "2498-lets-fuel", "2498-lets-ok", "2499-lets-fuel", "2499-lets-ok",
            "self-app-fuel", "self-app-depth",
        ],
    )
    def test_outcomes_at_the_depth_boundary(self, src, fuel, outcome):
        out = run(src, fuel=fuel)
        assert type(out) is outcome
        if outcome is DepthExceeded:
            assert out == DepthExceeded(2500)


class TestDispatch:
    def concrete_exprs(self):
        out, todo = set(), [syntax.Expr]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if cls is not syntax.Expr:
                out.add(cls)
        return out

    def test_every_expr_class_has_exactly_one_rule(self):
        exprs = self.concrete_exprs()
        assert len(exprs) == 15
        assert set(interpreter._RULES) == exprs
        rules = list(interpreter._RULES.values())
        assert len(set(rules)) == len(rules)

    @pytest.mark.parametrize(
        "e", [42, "x", None, syntax.Expr()], ids=["int", "str", "None", "bare Expr"]
    )
    def test_a_non_expr_is_a_type_error(self, e):
        with pytest.raises(TypeError) as err:
            evaluate(e, {}, Store(), 10)
        assert str(err.value) == f"not an Expr: {e!r}"


class TestCompile:
    def test_a_closure_body_compiles_once_per_run(self):
        body = parse("x * 2 + 1")
        compiled = []

        class Counting(interpreter._Evaluator):
            def compile(self, e, level=0):
                if e is body:
                    compiled.append(level)
                return super().compile(e, level)

        ev = Counting(Store({0: IntV(0)}), 100_000)
        code = ev.compile(parse("for i in 1 to 1000 { r := !r + f i }"))
        code({"f": ClosV(body, "x", {}), "r": LocV(0)})
        assert ev.store.data[0] == IntV(sum(2 * i + 1 for i in range(1, 1001)))
        assert compiled == [0]


class TestRunProgram:
    def test_runs_from_empty_state(self):
        out = run_program(parse("let x = 1\nx + 1"), 100)
        assert isinstance(out, Ok) and out.value == IntV(2)

    def test_determinism(self):
        src = "let r = ref(3)\nfor i in 1 to 4 { r := !r * 2 }\n!r"
        a, b = run(src), run(src)
        assert isinstance(a, Ok) and isinstance(b, Ok)
        assert a.value == b.value
        assert a.state.store == b.state.store
