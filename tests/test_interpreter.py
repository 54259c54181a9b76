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

import definitional

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
        for v, field in ((BoolV(True), "b"), (value_of("1 < 2"), "b")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(v, field, 0)

    @pytest.mark.parametrize(
        "v", [BoolV(True), LocV(0), ClosV(parse("x"), "x", {"y": IntV(1)})], ids=repr
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

    def test_int_values_are_plain_ints(self):
        # every other value is a record; an int is a Python int, never a bool,
        # whether it is built, read from a literal, computed, or a loop's counter
        src = "let r = ref(0)\nfor i in 1 to 3 { r := i }\n!r"
        for v in (IntV(3), value_of("3"), value_of("1 + 2"), value_of("7 / 2 + 0 * x", env={"x": 1}),
                  value_of(src)):
            assert type(v) is int and isinstance(v, IntV) and v == 3 and hash(v) == hash(3)
            with pytest.raises(AttributeError):
                v.n = 0
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                got = pickle.loads(pickle.dumps(v, protocol))
                assert type(got) is int and got == v
            match v:
                case BoolV():
                    pytest.fail("an int matched BoolV")
                case IntV(n):
                    assert n == 3
                case _:
                    pytest.fail("no pattern matched")
        assert type(value_of("1 < 2")) is BoolV and type(value_of("1 == 1")) is BoolV
        assert IntV(1) != BoolV(True) and BoolV(True) != IntV(1) and IntV(0) != BoolV(False)

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
        assert repr(IntV(-4)) == "-4"
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


# One value of each kind as an operator's left operand, and as its right one
# (where `zero` is the literal 0). Equal records sit on both sides, so an
# operator that compared any two values alike would give `true`.
_CLOSURE = ClosV(syntax.Var("y"), "y", {})
LEFT_OPERANDS = {
    "int": IntV(7), "bool": BoolV(True), "unit": UnitV(), "loc": LocV(0), "closure": _CLOSURE,
}
RIGHT_OPERANDS = {
    "int": IntV(-2), "zero": IntV(0), "bool": BoolV(True), "unit": UnitV(), "loc": LocV(0),
    "closure": _CLOSURE,
}

# Each operator's outcome on the pairs of kinds it takes: a value, or
# DivByZero. Every other pair is a NotAnInt fault at the operator.
OPERATOR_TABLE = {
    "+": {("int", "int"): IntV(5), ("int", "zero"): IntV(7)},
    "-": {("int", "int"): IntV(9), ("int", "zero"): IntV(7)},
    "*": {("int", "int"): IntV(-14), ("int", "zero"): IntV(0)},
    "/": {("int", "int"): IntV(-3), ("int", "zero"): FaultKind.DIV_BY_ZERO},
    "<": {("int", "int"): BoolV(False), ("int", "zero"): BoolV(False)},
    ">": {("int", "int"): BoolV(True), ("int", "zero"): BoolV(True)},
    "==": {
        ("int", "int"): BoolV(False), ("int", "zero"): BoolV(False),
        ("bool", "bool"): BoolV(True),
    },
}


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

    @pytest.mark.parametrize(
        "form", ["a {} {}", "id a {} id {}", "a {} id {}", "id a {} {}"],
        ids=["variables", "applications", "pure-left", "pure-right"],
    )
    @pytest.mark.parametrize("op", list(OPERATOR_TABLE))
    def test_every_operator_on_every_pair_of_value_kinds(self, op, form):
        # as variables the operator is pure and reads them raw; beside an
        # application it is impure: its charge covers a pure left operand,
        # and a pure right one pays its own
        ident = ClosV(syntax.Var("x"), "x", {})
        for left, lv in LEFT_OPERANDS.items():
            for right, rv in RIGHT_OPERANDS.items():
                src = form.format(op, "0" if right == "zero" else "b")
                env = {"a": lv, "b": rv, "id": ident}
                out = run(src, env=env, store=Store({0: IntV(0)}))
                want = OPERATOR_TABLE[op].get((left, right), FaultKind.NOT_AN_INT)
                if isinstance(want, FaultKind):
                    assert out == RuntimeFault(want, syntax.Pos(1, 1)), (src, left, right)
                else:
                    assert isinstance(out, Ok), (src, left, right, out)
                    assert type(out.value) is type(want) and out.value == want, (src, left, right)


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


# A fault inside a pure operand (literals, variables, dereferences and
# operators) of each rule that evaluates one: first after the rule's own
# charge (`let`, `:=`, `ref`, an `if` guard, a `for` bound, an application's
# argument, an operator's left operand beside an impure right one), after an
# impure operand (`bop-after`, `app-after`), and in a `while` guard.
# NotAnInt and DivByZero in a guard wait for the loop's second unfolding; an
# UnboundVar or NotALoc cannot, since a loop's env and live cells stay the
# same, so those fault on the first. Each row: rule, program, cost, fault and
# its column on line 1, all recorded before pure operands were charged in one
# step. The program runs unchecked from `CONSUMER_ENV` and `consumer_store()`.
CONSUMER_FAULTS = [
    ("let", "let z = 1 + (x * (2 + true))\nz", 9, FaultKind.NOT_AN_INT, 19),
    ("let", "let z = 1 + (x * nope)\nz", 7, FaultKind.UNBOUND_VAR, 18),
    ("let", "let z = 1 + (x * !x)\nz", 7, FaultKind.NOT_A_LOC, 18),
    ("let", "let z = 1 + (x * (7 / (x - 1)))\nz", 11, FaultKind.DIV_BY_ZERO, 19),
    ("assign", "r := 1 + (x * (2 + true))", 8, FaultKind.NOT_AN_INT, 16),
    ("assign", "r := 1 + (x * nope)", 6, FaultKind.UNBOUND_VAR, 15),
    ("assign", "r := 1 + (x * !x)", 6, FaultKind.NOT_A_LOC, 15),
    ("assign", "r := 1 + (x * (7 / (x - 1)))", 10, FaultKind.DIV_BY_ZERO, 16),
    ("ref", "ref(1 + (x * (2 + true)))", 8, FaultKind.NOT_AN_INT, 15),
    ("ref", "ref(1 + (x * nope))", 6, FaultKind.UNBOUND_VAR, 14),
    ("ref", "ref(1 + (x * !x))", 6, FaultKind.NOT_A_LOC, 14),
    ("ref", "ref(1 + (x * (7 / (x - 1))))", 10, FaultKind.DIV_BY_ZERO, 15),
    ("if", "if 0 < 1 + (x * (2 + true)) { 1 } else { 2 }", 10, FaultKind.NOT_AN_INT, 18),
    ("if", "if 0 < 1 + (x * nope) { 1 } else { 2 }", 8, FaultKind.UNBOUND_VAR, 17),
    ("if", "if 0 < 1 + (x * !x) { 1 } else { 2 }", 8, FaultKind.NOT_A_LOC, 17),
    ("if", "if 0 < 1 + (x * (7 / (x - 1))) { 1 } else { 2 }", 12, FaultKind.DIV_BY_ZERO, 18),
    ("app", "f (1 + (x * (2 + true)))", 9, FaultKind.NOT_AN_INT, 14),
    ("app", "f (1 + (x * nope))", 7, FaultKind.UNBOUND_VAR, 13),
    ("app", "f (1 + (x * !x))", 7, FaultKind.NOT_A_LOC, 13),
    ("app", "f (1 + (x * (7 / (x - 1))))", 11, FaultKind.DIV_BY_ZERO, 14),
    ("for", "for i in 1 + (x * (2 + true)) to 3 { 0 }", 8, FaultKind.NOT_AN_INT, 20),
    ("for", "for i in 1 + (x * nope) to 3 { 0 }", 6, FaultKind.UNBOUND_VAR, 19),
    ("for", "for i in 1 + (x * !x) to 3 { 0 }", 6, FaultKind.NOT_A_LOC, 19),
    ("for", "for i in 1 + (x * (7 / (x - 1))) to 3 { 0 }", 10, FaultKind.DIV_BY_ZERO, 20),
    ("bop", "(1 + (x * (2 + true))) + f 1", 8, FaultKind.NOT_AN_INT, 12),
    ("bop", "(1 + (x * nope)) + f 1", 6, FaultKind.UNBOUND_VAR, 11),
    ("bop", "(1 + (x * !x)) + f 1", 6, FaultKind.NOT_A_LOC, 11),
    ("bop", "(1 + (x * (7 / (x - 1)))) + f 1", 10, FaultKind.DIV_BY_ZERO, 12),
    ("bop-after", "f 1 + (1 + (x * (2 + true)))", 12, FaultKind.NOT_AN_INT, 18),
    ("bop-after", "f 1 + (1 + (x * nope))", 10, FaultKind.UNBOUND_VAR, 17),
    ("bop-after", "f 1 + (1 + (x * !x))", 10, FaultKind.NOT_A_LOC, 17),
    ("bop-after", "f 1 + (1 + (x * (7 / (x - 1))))", 14, FaultKind.DIV_BY_ZERO, 18),
    ("app-after", "(f f) (1 + (x * (2 + true)))", 12, FaultKind.NOT_AN_INT, 18),
    ("app-after", "(f f) (1 + (x * nope))", 10, FaultKind.UNBOUND_VAR, 17),
    ("app-after", "(f f) (1 + (x * !x))", 10, FaultKind.NOT_A_LOC, 17),
    ("app-after", "(f f) (1 + (x * (7 / (x - 1))))", 14, FaultKind.DIV_BY_ZERO, 18),
    ("while", "while !c < 2 + (x * (1 + !r)) { r := true; c := !c + 1 }", 27, FaultKind.NOT_AN_INT, 22),
    ("while", "while !c < 2 + (x * nope) { c := !c + 1 }", 8, FaultKind.UNBOUND_VAR, 21),
    ("while", "while !c < 2 + (x * !x) { c := !c + 1 }", 8, FaultKind.NOT_A_LOC, 21),
    ("while", "while !c < 2 + (x * (7 / (1 - !c))) { c := !c + 1 }", 28, FaultKind.DIV_BY_ZERO, 22),
    # Faults that code on Python ints meets two operators deep, recorded with
    # every operator running its exact code and labelled by rule and cause: a
    # Boolean operand, a comparison under arithmetic, a variable and a literal
    # divisor of zero, an unbound dereference.
    ("let-bool", "let z = 1 + (x * b)\nz", 7, FaultKind.NOT_AN_INT, 14),
    ("let-cmp-left", "let z = (1 < 2) + 1\nz", 7, FaultKind.NOT_AN_INT, 9),
    ("let-cmp-right", "let z = x + (o < 4)\nz", 7, FaultKind.NOT_AN_INT, 9),
    ("assign-cmp", "r := (x < o) + (1 * x)", 8, FaultKind.NOT_AN_INT, 6),
    ("ref-var-divisor", "ref(1 + (x / o))", 6, FaultKind.DIV_BY_ZERO, 10),
    ("if-literal-divisor", "if 0 < 1 + (x / 0) { 1 } else { 2 }", 8, FaultKind.DIV_BY_ZERO, 13),
    ("app-literal-quotient", "f (x + (1 / 0))", 7, FaultKind.DIV_BY_ZERO, 9),
    ("for-unbound-deref", "for i in 1 + (x * !nope) to 3 { 0 }", 6, FaultKind.UNBOUND_VAR, 19),
    ("bop-bool", "(1 + (x * b)) + f 1", 6, FaultKind.NOT_AN_INT, 7),
    ("while-bool", "while !c < 2 + (x * b) { c := !c + 1 }", 8, FaultKind.NOT_AN_INT, 17),
    # == takes any two values without raising, so int code must refuse a
    # non-int name it compares: a Boolean, one behind a ref, a closure, unit.
    # Each cost and column is the one the exact code gives.
    ("eq-bool", "let b = true; b == 1", 6, FaultKind.NOT_AN_INT, 15),
    ("eq-bool-deref", "let rb = ref(true); 1 == !rb", 7, FaultKind.NOT_AN_INT, 21),
    ("eq-closure", "f == 2", 3, FaultKind.NOT_AN_INT, 1),
    ("eq-unit", "let u = (); u == 0", 6, FaultKind.NOT_AN_INT, 13),
]
CONSUMER_ENV = {
    "x": IntV(1), "o": IntV(0), "b": BoolV(True), "r": LocV(0), "c": LocV(1),
    "f": ClosV(syntax.Var("y"), "y", {}),
}


def consumer_store():
    return Store({0: IntV(0), 1: IntV(0)})


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
            # a 2,500-term chain as the right-hand side of a `let` or `:=`
            # starts two levels down, so its 2,499th addition is the first
            # node past the limit: it stops after the statements' charges and
            # the 2,498 additions above it
            ("let y = 0" + " + 1" * 2499 + "\ny", 2500, FuelExhausted),
            ("let y = 0" + " + 1" * 2499 + "\ny", 2501, DepthExceeded),
            ("let r = ref(0)\nr := 0" + " + 1" * 2499, 2503, FuelExhausted),
            ("let r = ref(0)\nr := 0" + " + 1" * 2499, 2504, DepthExceeded),
        ],
        ids=[
            "2499-adds-fuel", "2499-adds-ok", "2500-adds-fuel", "2500-adds-depth",
            "2498-lets-fuel", "2498-lets-ok", "2499-lets-fuel", "2499-lets-ok",
            "self-app-fuel", "self-app-depth", "let-chain-fuel", "let-chain-depth",
            "assign-chain-fuel", "assign-chain-depth",
        ],
    )
    def test_outcomes_at_the_depth_boundary(self, src, fuel, outcome):
        out = run(src, fuel=fuel)
        assert type(out) is outcome
        if outcome is DepthExceeded:
            assert out == DepthExceeded(2500)

    @pytest.mark.parametrize(
        "src, cost, kind, col",
        [row[1:] for row in CONSUMER_FAULTS],
        ids=[f"{row[0]}-{row[3].value}" for row in CONSUMER_FAULTS],
    )
    def test_a_fault_in_a_pure_operand_at_every_fuel(self, src, cost, kind, col):
        fault = RuntimeFault(kind, syntax.Pos(1, col))
        for fuel in range(cost + 2):
            out = evaluate(parse(src), dict(CONSUMER_ENV), consumer_store(), fuel)
            assert out == (fault if fuel >= cost else FuelExhausted()), fuel


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

    @pytest.mark.parametrize("src", ["0 + f 1", "f 1 + 0"], ids=["right", "left"])
    def test_a_non_expr_body_under_an_operator_is_a_type_error(self, src):
        # the error comes out of the application, not as the operator's fault
        with pytest.raises(TypeError) as err:
            run(src, env={"f": ClosV(42, "x", {})})
        assert str(err.value) == "not an Expr: 42"


class TestCompile:
    def body_levels(self, src):
        """Run `src` with `f` a closure of `x * 2 + 1` and `r` a ref; return
        the store's cell and the level of each compile of that body."""
        body = parse("x * 2 + 1")
        compiled = []

        class Counting(interpreter._Evaluator):
            def compile(self, e, level=0, at=0):
                if e is body:
                    compiled.append(level)
                return super().compile(e, level, at)

        ev = Counting(Store({0: IntV(0)}), 100_000)
        code = ev.charged(*ev.compile(parse(src)))
        code({"f": ClosV(body, "x", {}), "r": LocV(0)})
        return ev.store.data[0], compiled

    def test_a_closure_body_compiles_once_per_run(self):
        cell, compiled = self.body_levels("for i in 1 to 1000 { r := !r + f i }")
        assert cell == IntV(sum(2 * i + 1 for i in range(1, 1001)))
        # once, one level below `f i`, which is below `for`, `:=` and `+`
        assert compiled == [4]

    def test_a_body_compiles_once_per_application_node(self):
        src = "for i in 1 to 3 { r := f i }\nr := 0 + f 2\nr := 0 + f 3"
        assert self.body_levels(src) == (IntV(7), [4, 4, 4])

    def test_a_body_compiles_at_the_depth_of_its_application(self):
        assert self.body_levels("r := f 1\nr := 0 + f 2") == (IntV(5), [3, 4])

    @pytest.mark.parametrize("sites", [1, 2], ids=["one-site", "shallow-site-first"])
    @pytest.mark.parametrize("m", [0, 1, 100])
    @pytest.mark.parametrize("total, outcome", [(2497, Ok), (2498, DepthExceeded)])
    def test_depth_boundary_through_an_application(self, total, outcome, m, sites):
        # the body's innermost `x` runs at 2 + m + k: the chain, m additions,
        # the application and k additions above it; 2,499 is the deepest that runs
        k = total - m
        lines = ["let f = (x: low) => x" + " + 1" * k]
        lines += ["f 1"] * (sites - 1)  # a shallower call first, at its own depth
        lines.append("0 + (" * m + "f 1" + ")" * m)
        out = run("\n".join(lines), fuel=1_000_000)
        assert type(out) is outcome
        if outcome is Ok:
            assert out.value == IntV(1 + k)
        else:
            assert out == DepthExceeded(2500)


def reference(e, env, store, fuel, level=0):
    """The definitional interpreter's outcome, or its value if it is Ok."""
    out = definitional.run(e, env, store, fuel, level)[0]
    return out.value if isinstance(out, Ok) else out


class TestIntCode:
    """A pure operator is a kernel that reads a variable or dereference
    operand inline, and runs its checked code only where that read fails.
    Each test compares its outcomes with the definitional interpreter's."""

    @pytest.mark.parametrize(
        "src, cost, value",
        [
            ("let z = (2 + 3) * (7 - 4) / 2\nz", 12, IntV(7)),
            ("let z = 1 + 2 * 3 == 7\nz", 10, BoolV(True)),
            ("let z = x + 2 * 3\nz", 8, IntV(7)),
            ("let z = (true == false) == (x < 2)\nz", 10, BoolV(False)),
            ("let z = b == b\nz", 6, BoolV(True)),
            ("let z = !r - (x * (o - 4))\nz", 10, IntV(4)),
        ],
        ids=["literals", "literal-comparison", "literal-operand", "boolean-==",
             "==-of-two-names", "deref-and-vars"],
    )
    def test_a_value_at_every_fuel(self, src, cost, value):
        # costs and values recorded with every operator testing its operands' values
        outs = [evaluate(parse(src), dict(CONSUMER_ENV), consumer_store(), f)
                for f in range(cost + 2)]
        assert all(isinstance(o, FuelExhausted) for o in outs[:cost])
        assert [o.value for o in outs[cost:]] == [value, value]
        assert outs == [definitional.run(parse(src), dict(CONSUMER_ENV), consumer_store(), f)[0]
                        for f in range(cost + 2)]

    @pytest.mark.parametrize(
        "src, level, last",
        [
            ("x + (x * 2)", 2496, IntV(3)),
            ("x + (x * 2)", 2497, IntV(3)),  # the leaves of `x * 2` run at 2,499
            ("x + (x * 2)", 2498, DepthExceeded(2500)),  # and here at 2,500
            ("x + (nope * 2)", 2497, RuntimeFault(FaultKind.UNBOUND_VAR, syntax.Pos(1, 6))),
            ("x + (nope * 2)", 2498, DepthExceeded(2500)),
            ("(x * 2) + nope", 2498, DepthExceeded(2500)),
            ("x + (!r * 2)", 2497, IntV(1)),  # `!r` runs at 2,499, read inline
            ("x + (!r * 2)", 2498, DepthExceeded(2500)),
        ],
    )
    def test_a_tree_whose_leaves_sit_at_the_depth_limit(self, src, level, last):
        e, outs = parse(src), []
        for fuel in range(7):  # the value or outcome of `e` compiled `level` deep
            ev = interpreter._Evaluator(consumer_store(), fuel)
            try:
                outs.append(ev.charged(*ev.compile(e, level))(dict(CONSUMER_ENV)))
            except interpreter._Stop as stop:
                outs.append(stop.outcome)
        assert outs[0] == FuelExhausted() and outs[-1] == last
        assert outs == [reference(e, dict(CONSUMER_ENV), consumer_store(), fuel, level)
                        for fuel in range(7)]

    def test_compiling_an_operator_makes_no_closure_cells(self):
        # pure or impure, an operator's code takes its operands and fault as defaults
        assert interpreter._Evaluator._bop.__code__.co_cellvars == ()

    @pytest.mark.parametrize("src, cost, col", [("!p + 1", 2, 1), ("1 + !p", 3, 5)])
    def test_a_dangling_location_read_inside_an_operator(self, src, cost, col):
        # `p` holds a location the store has not got: the kernel's inline
        # read fails, and the checked dereference faults where it stands
        env, store = {"p": LocV(9)}, Store({0: IntV(1)})
        outs = [run(src, env=env, store=store, fuel=fuel) for fuel in range(cost + 3)]
        fault = RuntimeFault(FaultKind.NOT_A_LOC, syntax.Pos(1, col))
        assert outs == [FuelExhausted()] * cost + [fault] * 3
        assert outs == [reference(parse(src), env, store, fuel) for fuel in range(cost + 3)]


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
