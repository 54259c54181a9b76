"""Low-observer equivalence on values and whole states."""

import random

from rescheck import (
    EMPTY,
    HIGH,
    LOW,
    BoolV,
    ClosV,
    EquivConfig,
    EquivStats,
    FunType,
    IntV,
    LocV,
    RefType,
    State,
    Store,
    UnitV,
    enumerate_types,
    low_equiv,
    parse,
    value_equiv,
)
from rescheck.equivalence import related_values

S0 = Store()


def veq(v1, v2, t, s1=None, s2=None, **kw):
    return value_equiv(v1, s1 or Store(), v2, s2 or Store(), t, **kw)


class TestBaseValues:
    def test_low_is_equality(self):
        assert veq(IntV(3), IntV(3), LOW)
        assert not veq(IntV(3), IntV(7), LOW)
        assert veq(BoolV(True), BoolV(True), LOW)
        assert not veq(BoolV(True), BoolV(False), LOW)
        assert veq(UnitV(), UnitV(), LOW)

    def test_low_distinguishes_shapes(self):
        assert not veq(IntV(0), BoolV(False), LOW)
        assert not veq(IntV(0), UnitV(), LOW)

    def test_high_relates_any_same_shaped_values(self):
        assert veq(IntV(3), IntV(7), HIGH)
        assert veq(BoolV(True), BoolV(False), HIGH)
        assert veq(UnitV(), UnitV(), HIGH)
        assert not veq(IntV(3), BoolV(True), HIGH)


class TestReferences:
    def test_low_refs_compare_contents_not_addresses(self):
        s1 = Store({0: IntV(5)})
        s2 = Store({3: IntV(5)})
        assert veq(LocV(0), LocV(3), RefType(LOW), s1, s2)
        s2.data[3] = IntV(6)
        assert not veq(LocV(0), LocV(3), RefType(LOW), s1, s2)

    def test_high_refs_ignore_contents(self):
        s1 = Store({0: IntV(5)})
        s2 = Store({0: IntV(99)})
        assert veq(LocV(0), LocV(0), RefType(HIGH), s1, s2)

    def test_dangling_low_ref_is_not_equivalent(self):
        s1 = Store({0: IntV(5)})
        assert not veq(LocV(0), LocV(4), RefType(LOW), s1, Store())

    def test_chained_locations_do_not_loop_forever(self):
        # cells that point at each other terminate via the visited set
        s1 = Store({0: LocV(1), 1: LocV(0)})
        s2 = Store({0: LocV(1), 1: LocV(0)})
        assert veq(LocV(0), LocV(0), RefType(LOW), s1, s2)


class TestClosures:
    def test_identical_closures_relate(self):
        c = ClosV(parse("x + 1"), "x", {})
        assert veq(c, c, FunType(LOW, LOW, EMPTY))

    def test_identical_bodies_with_agreeing_captures(self):
        body = parse("x + a")
        c1 = ClosV(body, "x", {"a": IntV(2)})
        c2 = ClosV(body, "x", {"a": IntV(2)})
        assert veq(c1, c2, FunType(LOW, LOW, EMPTY))

    def test_bodies_with_different_capture_names_do_not_relate(self):
        # "x" alone would relate: the captures are never read, only named
        body = parse("x")
        c1 = ClosV(body, "x", {"a": IntV(2)})
        c2 = ClosV(body, "x", {"b": IntV(2)})
        stats = EquivStats()
        assert not veq(c1, c2, FunType(LOW, LOW, EMPTY), stats=stats)
        assert stats.closure_pairs_sampled == 0

    def test_sampling_distinguishes_different_functions(self):
        c1 = ClosV(parse("x"), "x", {})
        c2 = ClosV(parse("x + 1"), "x", {})
        assert not veq(c1, c2, FunType(LOW, LOW, EMPTY))

    def test_extensionally_equal_bodies_relate(self):
        c1 = ClosV(parse("x + 0"), "x", {})
        c2 = ClosV(parse("x"), "x", {})
        assert veq(c1, c2, FunType(LOW, LOW, EMPTY))

    def test_high_to_high_observed_through_related_args(self):
        c1 = ClosV(parse("x + 1"), "x", {})
        c2 = ClosV(parse("x + 2"), "x", {})
        # any int back is fine at a high result
        assert veq(c1, c2, FunType(HIGH, HIGH, EMPTY))
        # but at a low result the outputs must agree pointwise
        assert not veq(c1, c2, FunType(LOW, LOW, EMPTY))

    def test_non_closures_never_relate_at_function_types(self):
        assert not veq(IntV(1), IntV(1), FunType(LOW, LOW, EMPTY))
        assert not veq(ClosV(parse("x"), "x", {}), IntV(1), FunType(LOW, LOW, EMPTY))

    def test_fuel_burning_bodies_count_as_inconclusive(self):
        looping = parse("while true { () }")
        c1 = ClosV(looping, "x", {})
        c2 = ClosV(parse("0"), "x", {})
        stats = EquivStats()
        assert veq(c1, c2, FunType(LOW, LOW, EMPTY), stats=stats)
        assert stats.inconclusive_runs > 0
        assert stats.closure_pairs_sampled == 1

    def test_ref_low_parameters_get_one_shared_content(self):
        t = FunType(RefType(LOW), LOW, EMPTY)
        c1 = ClosV(parse("!r"), "r", {})
        assert veq(c1, ClosV(parse("!r + 0"), "r", {}), t)
        assert not veq(c1, ClosV(parse("!r + 1"), "r", {}), t)
        # the cells must still agree after the runs
        assert not veq(ClosV(parse("r := 1; 0"), "r", {}), ClosV(parse("r := 2; 0"), "r", {}), t)

    def test_ref_high_parameters_get_independent_contents(self):
        c1 = ClosV(parse("!r"), "r", {})
        c2 = ClosV(parse("!r + 0"), "r", {})
        assert veq(c1, c2, FunType(RefType(HIGH), HIGH, EMPTY))
        assert not veq(c1, c2, FunType(RefType(HIGH), LOW, EMPTY))

    def test_function_parameters_get_the_canonical_closure(self):
        # the identity inhabits (low -> low @ ()), so g 3 and 3 agree
        t = FunType(FunType(LOW, LOW, EMPTY), LOW, EMPTY)
        c1 = ClosV(parse("g 3"), "g", {})
        assert veq(c1, ClosV(parse("3"), "g", {}), t)
        assert not veq(c1, ClosV(parse("g 4"), "g", {}), t)

    def test_function_parameters_are_sampled_with_a_closure_of_their_type(self):
        # a low observer tells `1` from `2` whatever the parameter
        stats = EquivStats()
        t = FunType(FunType(LOW, HIGH, EMPTY), LOW, EMPTY)
        assert not veq(ClosV(parse("1"), "g", {}), ClosV(parse("2"), "g", {}), t, stats=stats)
        # a parameter that may write high still gets a closure to apply
        t = FunType(FunType(LOW, LOW, HIGH), LOW, EMPTY)
        c1 = ClosV(parse("g 3"), "g", {})
        assert not veq(c1, ClosV(parse("g 4"), "g", {}), t, stats=stats)
        assert veq(c1, ClosV(parse("3"), "g", {}), t, stats=stats)
        assert stats.inconclusive_runs == 0

    def test_function_parameters_returning_refs_or_functions_get_such_results(self):
        # g returns a fresh cell or a function, so a body can read or apply it
        stats = EquivStats()
        t = FunType(FunType(LOW, RefType(LOW), EMPTY), LOW, EMPTY)
        c1 = ClosV(parse("let r = g 1; !r"), "g", {})
        assert not veq(c1, ClosV(parse("let r = g 1; !r + 1"), "g", {}), t, stats=stats)
        assert veq(c1, ClosV(parse("let r = g 1; !r + 0"), "g", {}), t, stats=stats)
        t = FunType(FunType(LOW, FunType(LOW, LOW, EMPTY), EMPTY), LOW, EMPTY)
        c1 = ClosV(parse("let h = g 1; h 2"), "g", {})
        assert not veq(c1, ClosV(parse("let h = g 1; h 3"), "g", {}), t, stats=stats)
        assert veq(c1, ClosV(parse("let h = g 1; h 2 + 0"), "g", {}), t, stats=stats)
        assert stats.inconclusive_runs == 0

    def test_nesting_past_closure_depth_is_inconclusive(self):
        # equal curried functions one level deeper than sampling reaches
        t = FunType(LOW, FunType(LOW, FunType(LOW, LOW, EMPTY), EMPTY), EMPTY)
        c1 = ClosV(parse("(y: low) => (z: low) => z"), "x", {})
        c2 = ClosV(parse("(y: low) => (z: low) => z + 0"), "x", {})
        stats = EquivStats()
        assert veq(c1, c2, t, stats=stats)
        assert stats.inconclusive_runs > 0
        assert low_equiv({"f": t}, State({"f": c1}, S0), State({"f": c2}, S0))

    def test_related_values_relate_at_every_type(self):
        base = {"i": IntV, "b": BoolV, "u": UnitV}
        for t in enumerate_types(2):
            for shape, cls in base.items():
                s1, s2 = Store(), Store()
                v1, v2 = related_values(t, random.Random(0), s1, s2, shape)
                assert value_equiv(v1, s1, v2, s2, t), (t, shape)
                if isinstance(t, FunType):
                    assert isinstance(v1, ClosV) and v1 == v2, (t, shape)
                elif isinstance(t, RefType):
                    assert isinstance(v1, LocV) and isinstance(v2, LocV), (t, shape)
                    drawn = (s1.data[v1.loc], s2.data[v2.loc])
                    assert all(type(v) is cls for v in drawn), (t, shape)
                else:
                    assert type(v1) is cls and type(v2) is cls, (t, shape)

    def test_sampling_is_deterministic_in_the_seed(self):
        c1 = ClosV(parse("x + 1"), "x", {})
        c2 = ClosV(parse("x * 2"), "x", {})
        t = FunType(HIGH, LOW, EMPTY)
        cfg = EquivConfig(rng_seed=5)
        assert veq(c1, c2, t, cfg=cfg) == veq(c1, c2, t, cfg=cfg)


class TestLowEquiv:
    def test_empty_environment_relates_everything(self):
        s1 = State({"x": IntV(1)}, Store())
        s2 = State({}, Store({0: IntV(9)}))
        assert low_equiv({}, s1, s2)

    def test_low_bindings_must_agree(self):
        s1 = State({"l": IntV(3)}, S0)
        s2 = State({"l": IntV(3)}, S0)
        assert low_equiv({"l": LOW}, s1, s2)
        s3 = State({"l": IntV(4)}, S0)
        assert not low_equiv({"l": LOW}, s1, s3)

    def test_high_bindings_are_unconstrained(self):
        s1 = State({"h": IntV(3)}, S0)
        s2 = State({"h": BoolV(True)}, S0)
        assert low_equiv({"h": HIGH}, s1, s2)

    def test_high_bindings_may_be_absent(self):
        s1 = State({"h": IntV(3)}, S0)
        s2 = State({}, S0)
        assert low_equiv({"h": HIGH}, s1, s2)
        assert low_equiv({"h": RefType(HIGH)}, s1, s2)

    def test_constrained_bindings_must_be_present(self):
        s1 = State({"l": IntV(3)}, S0)
        s2 = State({}, S0)
        assert not low_equiv({"l": LOW}, s1, s2)
        assert not low_equiv({"l": LOW}, s2, s1)

    def test_low_refs_compared_through_the_store(self):
        t = {"r": RefType(LOW)}
        s1 = State({"r": LocV(0)}, Store({0: IntV(7)}))
        s2 = State({"r": LocV(5)}, Store({5: IntV(7)}))
        assert low_equiv(t, s1, s2)
        s2.store.data[5] = IntV(8)
        assert not low_equiv(t, s1, s2)

    def test_high_refs_unconstrained(self):
        t = {"r": RefType(HIGH)}
        s1 = State({"r": LocV(0)}, Store({0: IntV(7)}))
        s2 = State({"r": LocV(0)}, Store({0: IntV(999)}))
        assert low_equiv(t, s1, s2)

    def test_function_bindings_are_constrained(self):
        t = {"f": FunType(LOW, LOW, EMPTY)}
        c = ClosV(parse("x"), "x", {})
        s1 = State({"f": c}, S0)
        s2 = State({"f": c}, S0)
        assert low_equiv(t, s1, s2)
        s3 = State({"f": ClosV(parse("x + 1"), "x", {})}, S0)
        assert not low_equiv(t, s1, s3)

    def test_mixed_environment(self):
        tenv = {"l": LOW, "h": HIGH, "r": RefType(LOW)}
        s1 = State({"l": IntV(1), "h": IntV(5), "r": LocV(0)}, Store({0: IntV(2)}))
        s2 = State({"l": IntV(1), "h": IntV(6), "r": LocV(1)}, Store({1: IntV(2)}))
        assert low_equiv(tenv, s1, s2)

    def test_reflexive_and_symmetric(self):
        tenv = {"l": LOW, "r": RefType(LOW), "h": HIGH}
        s1 = State({"l": IntV(1), "r": LocV(0), "h": IntV(4)}, Store({0: IntV(2)}))
        s2 = State({"l": IntV(1), "r": LocV(3), "h": IntV(9)}, Store({3: IntV(2)}))
        assert low_equiv(tenv, s1, s1)
        assert low_equiv(tenv, s1, s2) == low_equiv(tenv, s2, s1)

    def test_transitive_on_first_order_environments(self):
        tenv = {"l": LOW, "r": RefType(LOW)}
        states = [
            State({"l": IntV(1), "r": LocV(i)}, Store({i: IntV(2)})) for i in range(3)
        ]
        a, b, c = states
        assert low_equiv(tenv, a, b) and low_equiv(tenv, b, c)
        assert low_equiv(tenv, a, c)
