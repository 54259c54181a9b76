"""Security ordering, join/meet, and the type enumerator."""

import pytest

from rescheck import lattice
from rescheck import (
    EMPTY,
    HIGH,
    LOW,
    FunType,
    LatticeError,
    RefType,
    enumerate_types,
    join,
    leq,
    meet,
)


class TestOrder:
    def test_base_chain(self):
        assert leq(LOW, LOW)
        assert leq(LOW, HIGH)
        assert leq(LOW, EMPTY)
        assert leq(HIGH, HIGH)
        assert leq(HIGH, EMPTY)
        assert leq(EMPTY, EMPTY)
        assert not leq(HIGH, LOW)
        assert not leq(EMPTY, LOW)
        assert not leq(EMPTY, HIGH)

    def test_references_relate_to_nothing(self):
        # No widening direction is safe for a readable, writable cell, so
        # refs are not even reflexively ordered.
        assert not leq(RefType(LOW), RefType(LOW))
        assert not leq(RefType(HIGH), RefType(HIGH))
        assert not leq(RefType(LOW), RefType(HIGH))
        assert not leq(RefType(HIGH), RefType(LOW))
        assert not leq(RefType(LOW), LOW)
        assert not leq(LOW, RefType(LOW))
        assert not leq(RefType(HIGH), EMPTY)

    def test_functions_covariant_param_contravariant_result(self):
        assert leq(FunType(LOW, HIGH, EMPTY), FunType(HIGH, LOW, EMPTY))
        assert not leq(FunType(HIGH, LOW, EMPTY), FunType(LOW, HIGH, EMPTY))
        assert leq(FunType(LOW, EMPTY, EMPTY), FunType(EMPTY, LOW, EMPTY))
        assert not leq(FunType(LOW, LOW, EMPTY), FunType(LOW, HIGH, EMPTY))
        assert leq(FunType(LOW, HIGH, EMPTY), FunType(LOW, LOW, EMPTY))

    def test_latent_effects_are_ignored(self):
        assert leq(FunType(LOW, LOW, HIGH), FunType(LOW, LOW, LOW))
        assert leq(FunType(LOW, LOW, LOW), FunType(LOW, LOW, HIGH))
        assert leq(FunType(LOW, LOW, EMPTY), FunType(LOW, LOW, HIGH))

    def test_ref_components_inside_functions(self):
        # Components compare with the same order, so ref params never relate.
        assert not leq(FunType(RefType(LOW), LOW, EMPTY), FunType(RefType(LOW), LOW, EMPTY))
        assert leq(FunType(LOW, RefType(LOW), EMPTY), FunType(LOW, RefType(LOW), EMPTY)) is False

    def test_functions_never_relate_to_levels(self):
        assert not leq(FunType(LOW, LOW, EMPTY), EMPTY)
        assert not leq(LOW, FunType(LOW, LOW, EMPTY))


class TestJoinMeet:
    def test_join_examples(self):
        assert join([LOW, HIGH]) == HIGH
        assert join([HIGH, EMPTY]) == EMPTY
        assert join([LOW, HIGH, EMPTY]) == EMPTY
        assert join([LOW, LOW]) == LOW

    def test_meet_examples(self):
        assert meet([HIGH, EMPTY]) == HIGH
        assert meet([EMPTY, EMPTY]) == EMPTY
        assert meet([LOW, HIGH, EMPTY]) == LOW

    def test_singletons(self):
        for t in (LOW, HIGH, EMPTY, FunType(LOW, HIGH, EMPTY)):
            assert join([t]) == t
            assert meet([t]) == t

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            join([])
        with pytest.raises(ValueError):
            meet([])

    def test_unrelated_operands_raise(self):
        with pytest.raises(LatticeError):
            join([LOW, RefType(LOW)])
        with pytest.raises(LatticeError):
            meet([RefType(LOW), RefType(LOW)])
        with pytest.raises(LatticeError):
            join([LOW, FunType(LOW, LOW, EMPTY)])

    def test_error_carries_operands(self):
        with pytest.raises(LatticeError) as exc:
            join([HIGH, RefType(HIGH)])
        assert exc.value.kind == "Incomparable"
        assert exc.value.operands == (HIGH, RefType(HIGH))
        assert str(exc.value) == "Incomparable: High() vs RefType(inner=High())"

    def test_level_fast_path_agrees_with_leq(self):
        """Two levels are joined and met by rank, without leq. Every pair
        that has a level on one side, over the depth-2 universe, and every
        pair of the depth-1 universe gets the operand that leq picks, or the
        LatticeError where leq relates neither way."""

        def by_leq(a, b, upper):
            if leq(a, b):
                return b if upper else a
            if leq(b, a):
                return a if upper else b
            return LatticeError

        def got(f, a, b):
            try:
                return f([a, b])
            except LatticeError:
                return LatticeError

        levels, d1, d2 = enumerate_types(0), enumerate_types(1), enumerate_types(2)
        pairs = {(a, b) for a in d1 for b in d1}
        pairs |= {p for lv in levels for t in d2 for p in ((lv, t), (t, lv))}
        for a, b in pairs:
            assert got(join, a, b) is by_leq(a, b, upper=True), (a, b)
            assert got(meet, a, b) is by_leq(a, b, upper=False), (a, b)

    def test_triples_fold_the_pairwise_reference(self):
        """The checker folds three types (`join([t1, t3, t5])`). Over every
        triple of the depth-1 universe, join and meet give the operand that a
        left fold of leq's pairwise choice gives, or raise the LatticeError
        that names the pair where that fold stops."""

        def by_leq(ts, upper):
            acc = ts[0]
            for t in ts[1:]:
                if leq(acc, t):
                    acc = t if upper else acc
                elif leq(t, acc):
                    acc = acc if upper else t
                else:
                    return [acc, t]
            return [acc]

        def got(f, ts):
            try:
                return [f(ts)]
            except LatticeError as err:
                return list(err.operands)

        d1 = enumerate_types(1)
        for ts in ([a, b, c] for a in d1 for b in d1 for c in d1):
            for f, upper in ((join, True), (meet, False)):
                want, have = by_leq(ts, upper), got(f, ts)
                assert len(have) == len(want), (f.__name__, ts)
                assert all(x is y for x, y in zip(have, want)), (f.__name__, ts)

    def test_two_operand_tables_return_the_folds_operand(self):
        """`join`, `meet` and `leq` answer a pair of levels from tables. On
        every pair of the depth-1 universe, every depth-2 pair with a level
        on one side, each level beside an equal copy of itself, and every
        depth-1 triple, join and meet return the very object `_bound`'s fold
        returns, or raise where it raises; leq agrees with the rule it had
        before the tables."""

        def old_leq(a, b):
            ta, tb = type(a), type(b)
            if ta is FunType:
                return tb is FunType and old_leq(a.param, b.param) and old_leq(b.result, a.result)
            ra, rb = lattice._RANK.get(ta), lattice._RANK.get(tb)
            return ra is not None and rb is not None and ra <= rb

        def outcome(f, *args):
            try:
                return f(*args)
            except LatticeError as err:
                return err.kind, err.operands

        def same(x, y):
            return x is y or (type(x) is tuple and x == y and all(a is b for a, b in zip(x[1], y[1])))

        levels, d1, d2 = enumerate_types(0), enumerate_types(1), enumerate_types(2)
        twins = [type(lv)() for lv in levels]  # equal to a level, but another object
        pairs = [(a, b) for a in d1 for b in d1]
        pairs += [p for lv in levels for t in d2 for p in ((lv, t), (t, lv))]
        pairs += [p for lv, twin in zip(levels, twins) for p in ((lv, twin), (twin, lv))]
        for a, b in pairs:
            assert leq(a, b) is old_leq(a, b), (a, b)
        lists = [list(p) for p in pairs] + [[a, b, c] for a in d1 for b in d1 for c in d1]
        for ts in lists:
            for f, upper in ((join, True), (meet, False)):
                want = outcome(lattice._bound, ts, f.__name__, upper)
                assert same(outcome(f, ts), want), (f.__name__, ts)

    def test_function_joins_through_comparability(self):
        f_small = FunType(LOW, HIGH, EMPTY)
        f_big = FunType(HIGH, LOW, EMPTY)
        assert join([f_small, f_big]) == f_big
        assert meet([f_small, f_big]) == f_small


class TestEnumerator:
    def test_depth_zero_is_the_effect_levels(self):
        assert enumerate_types(0) == [LOW, HIGH, EMPTY]

    def test_depth_one_count(self):
        ts = enumerate_types(1)
        assert len(ts) == 32  # 3 levels + 2 refs + 3*3*3 functions

    def test_distinct_and_growing(self):
        d1 = enumerate_types(1)
        d2 = enumerate_types(2)
        assert len(set(d1)) == len(d1)
        assert len(set(d2)) == len(d2)
        assert set(d1) <= set(d2)

    def test_depth_one_laws_hold_where_defined(self):
        # Exhaustive check over all 32x32(x32) combinations: the order is a
        # preorder on the ref-free fragment and transitive everywhere.
        ts = enumerate_types(1)

        def ref_free(t):
            match t:
                case RefType(_):
                    return False
                case FunType(p, r, _):
                    return ref_free(p) and ref_free(r)
                case _:
                    return True

        for a in ts:
            assert leq(a, a) == ref_free(a)
        rel = {(a, b) for a in ts for b in ts if leq(a, b)}
        for a, b in rel:
            for c in ts:
                if (b, c) in rel:
                    assert (a, c) in rel
