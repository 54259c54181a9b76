"""Syntax trees: equality, well-formedness, and pretty printing."""

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import rescheck
from rescheck import (
    EMPTY,
    HIGH,
    LOW,
    App,
    Assign,
    BinOp,
    Bool,
    Bop,
    Deref,
    Empty,
    For,
    FunType,
    High,
    If,
    Let,
    Low,
    Num,
    Pos,
    Ref,
    RefType,
    Seq,
    Unit,
    Var,
    While,
    display_type,
    enumerate_types,
    is_base,
    is_effect,
    parse,
    pretty,
    pretty_type,
    well_formed,
)
from rescheck.syntax import Expr, Func, sequence


class TestLevels:
    def test_singletons_equal_fresh_instances(self):
        assert LOW == Low()
        assert HIGH == High()
        assert EMPTY == Empty()

    def test_is_base(self):
        assert is_base(LOW)
        assert is_base(HIGH)
        assert not is_base(EMPTY)
        assert not is_base(RefType(LOW))
        assert not is_base(FunType(LOW, LOW, EMPTY))

    def test_is_effect(self):
        assert is_effect(LOW)
        assert is_effect(HIGH)
        assert is_effect(EMPTY)
        assert not is_effect(RefType(LOW))


_HASHES_SCRIPT = """
from rescheck import enumerate_types
print(hash("low"))
print([hash(t) for t in enumerate_types(2)])
"""


def _hashes_in_fresh_process(seed: str) -> tuple[str, str]:
    src = str(Path(rescheck.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", _HASHES_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.splitlines()
    return out[0], out[1]


class TestTypeHashes:
    def test_levels_hash_apart(self):
        assert len({hash(LOW), hash(HIGH), hash(EMPTY)}) == 3

    def test_depth_two_universe_hashes_are_distinct(self):
        universe = enumerate_types(2)
        assert len(universe) == 3077
        assert len({hash(t) for t in universe}) == 3077

    def test_hashes_do_not_depend_on_the_hash_seed(self):
        str_a, types_a = _hashes_in_fresh_process("1")
        str_b, types_b = _hashes_in_fresh_process("2024")
        assert str_a != str_b  # the seed did reach the child processes
        assert types_a == types_b
        assert types_a == str([hash(t) for t in enumerate_types(2)])


class TestWellFormed:
    def test_levels(self):
        assert well_formed(LOW)
        assert well_formed(HIGH)
        assert well_formed(EMPTY)

    def test_refs_hold_base_levels_only(self):
        assert well_formed(RefType(LOW))
        assert well_formed(RefType(HIGH))
        assert not well_formed(RefType(EMPTY))
        assert not well_formed(RefType(RefType(LOW)))
        assert not well_formed(RefType(FunType(LOW, LOW, EMPTY)))

    def test_function_components_recurse(self):
        assert well_formed(FunType(LOW, HIGH, EMPTY))
        assert well_formed(FunType(RefType(LOW), LOW, EMPTY))
        assert well_formed(FunType(LOW, FunType(HIGH, HIGH, HIGH), LOW))
        assert not well_formed(FunType(RefType(EMPTY), LOW, EMPTY))
        assert not well_formed(FunType(LOW, RefType(RefType(HIGH)), EMPTY))

    def test_latent_must_be_an_effect(self):
        assert not well_formed(FunType(LOW, LOW, RefType(LOW)))
        assert not well_formed(FunType(LOW, LOW, FunType(LOW, LOW, EMPTY)))


class TestTypeRendering:
    def test_pretty_type(self):
        assert pretty_type(LOW) == "low"
        assert pretty_type(HIGH) == "high"
        assert pretty_type(EMPTY) == "()"
        assert pretty_type(RefType(HIGH)) == "ref high"
        assert pretty_type(FunType(LOW, HIGH, EMPTY)) == "(low -> high @ ())"
        nested = FunType(FunType(LOW, LOW, EMPTY), RefType(LOW), HIGH)
        assert pretty_type(nested) == "((low -> low @ ()) -> ref low @ high)"

    def test_display_type(self):
        assert display_type(LOW) == "Low"
        assert display_type(HIGH) == "High"
        assert display_type(EMPTY) == "()"
        assert display_type(RefType(HIGH)) == "ref High"
        assert display_type(FunType(LOW, HIGH, LOW)) == "(Low -> High @ Low)"

    def test_rendering_rejects_non_types(self):
        with pytest.raises(TypeError):
            pretty_type("low")  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            display_type(42)  # type: ignore[arg-type]


class TestPositions:
    def test_positions_do_not_affect_equality(self):
        a = Num("3", pos=Pos(1, 1))
        b = Num("3", pos=Pos(9, 4))
        assert a == b
        assert Var("x", pos=Pos(2, 7)) == Var("x")

    def test_value_differences_still_matter(self):
        assert Num("3") != Num("4")
        assert Var("x") != Var("y")

    def test_pos_is_frozen_and_slotted(self):
        p = Pos(2, 7)
        for name in ("line", "col"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(p, name)
        # A slotted frozen dataclass has no room for a new attribute; Python
        # 3.11 reports that as a TypeError from the frozen class's setter.
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            p.other = 1
        assert not hasattr(p, "__dict__")
        assert (p.line, p.col) == (2, 7)

    def test_pos_compares_and_hashes_by_value(self):
        assert Pos(2, 7) == Pos(2, 7) == Pos(line=2, col=7)
        assert Pos(2, 7) != Pos(7, 2)
        assert Pos(2, 7) != (2, 7)
        assert hash(Pos(2, 7)) == hash(Pos(2, 7))
        assert len({Pos(1, 1), Pos(1, 1), Pos(1, 2)}) == 2
        assert repr(Pos(2, 7)) == "Pos(line=2, col=7)"

    def test_pos_replace(self):
        p = Pos(2, 7)
        assert dataclasses.replace(p, col=9) == Pos(2, 9)
        assert p == Pos(2, 7)
        assert [f.name for f in dataclasses.fields(p)] == ["line", "col"]

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pos_pickle_round_trip(self, protocol):
        p = pickle.loads(pickle.dumps(Pos(2, 7), protocol))
        assert p == Pos(2, 7)
        assert type(p) is Pos
        node = pickle.loads(pickle.dumps(Var("x", pos=Pos(3, 4)), protocol))
        assert node.pos == Pos(3, 4)


# One node of every concrete Expr class.
NODES = [
    Num("3"), Bool(True), Unit(), Var("x"), Bop(BinOp.ADD, Num("1"), Var("y")),
    Let("x", HIGH, Num("1")), If(Bool(True), Num("1"), Num("2")), While(Bool(False), Unit()),
    For("i", Num("1"), Num("2"), Unit()), Seq(Num("1"), Num("2")), Func("x", LOW, Var("x")),
    App(Var("f"), Num("1")), Ref(Num("0")), Deref("r"), Assign("r", Num("1")),
]


class TestSlottedNodes:
    def test_nodes_cover_every_class(self):
        assert sorted(type(e).__name__ for e in NODES) == sorted(
            cls.__name__ for cls in Expr.__subclasses__()
        )

    @pytest.mark.parametrize("e", NODES, ids=lambda e: type(e).__name__)
    def test_node_is_frozen_and_slotted(self, e):
        assert not hasattr(e, "__dict__")
        for f in dataclasses.fields(e):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(e, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(e, f.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.other = 1

    @pytest.mark.parametrize("e", NODES, ids=lambda e: type(e).__name__)
    def test_pos_is_ignored_by_eq_and_hash(self, e):
        moved = dataclasses.replace(e, pos=Pos(9, 4))
        assert moved.pos == Pos(9, 4) and e.pos is None
        assert moved == e
        assert hash(moved) == hash(e)

    @pytest.mark.parametrize("e", NODES, ids=lambda e: type(e).__name__)
    def test_pickle_keeps_pos_at_every_protocol(self, e):
        moved = dataclasses.replace(e, pos=Pos(9, 4))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            got = pickle.loads(pickle.dumps(moved, protocol))
            assert type(got) is type(e)
            assert got == e and got.pos == Pos(9, 4)


class TestPretty:
    def test_atoms(self):
        assert pretty(Num("42")) == "42"
        assert pretty(Bool(True)) == "true"
        assert pretty(Bool(False)) == "false"
        assert pretty(Unit()) == "()"
        assert pretty(Var("x")) == "x"
        assert pretty(Deref("r")) == "!r"

    def test_operator_spacing_and_precedence(self):
        e = Bop(BinOp.ADD, Num("1"), Bop(BinOp.MUL, Num("2"), Num("3")))
        assert pretty(e) == "1 + 2 * 3"
        e = Bop(BinOp.MUL, Bop(BinOp.ADD, Num("1"), Num("2")), Num("3"))
        assert pretty(e) == "(1 + 2) * 3"

    def test_left_associativity_needs_no_parens(self):
        e = Bop(BinOp.SUB, Bop(BinOp.SUB, Num("1"), Num("2")), Num("3"))
        assert pretty(e) == "1 - 2 - 3"

    def test_right_nested_subtraction_is_parenthesised(self):
        e = Bop(BinOp.SUB, Num("1"), Bop(BinOp.SUB, Num("2"), Num("3")))
        assert pretty(e) == "1 - (2 - 3)"

    def test_comparison_operands_wrap_nested_comparisons(self):
        e = Bop(BinOp.LT, Bop(BinOp.LT, Num("1"), Num("2")), Num("3"))
        assert pretty(e) == "(1 < 2) < 3"

    # Tightness of each operator, written out apart from syntax.BINOP_LEVEL.
    TIGHTNESS = {"==": 0, "<": 0, ">": 0, "+": 1, "-": 1, "*": 2, "/": 2}

    @pytest.mark.parametrize("outer", list(BinOp), ids=lambda op: op.value)
    def test_every_operator_pair_round_trips(self, outer):
        # A nested operator needs parentheses when it binds looser than its
        # parent, or as tightly on the right, or under a comparison, which
        # does not chain.
        for inner in BinOp:
            nested = Bop(inner, Var("a"), Var("b"))
            looser = self.TIGHTNESS[inner.value] < self.TIGHTNESS[outer.value]
            same = self.TIGHTNESS[inner.value] == self.TIGHTNESS[outer.value]
            comparison = self.TIGHTNESS[outer.value] == 0
            text = f"a {inner.value} b"
            for right in (False, True):
                wrap = looser or (same and (right or comparison))
                shown = f"({text})" if wrap else text
                if right:
                    e, want = Bop(outer, Var("c"), nested), f"c {outer.value} {shown}"
                else:
                    e, want = Bop(outer, nested, Var("c")), f"{shown} {outer.value} c"
                assert pretty(e) == want
                assert parse(want) == e

    def test_negative_literal_positions(self):
        # operator context re-parses bare, application context needs parens
        e = Bop(BinOp.MUL, Num("2"), Num("-3"))
        assert pretty(e) == "2 * -3"
        e = App(Var("f"), Num("-3"))
        assert pretty(e) == "f (-3)"

    def test_let_and_annotation(self):
        assert pretty(Let("x", None, Num("1"))) == "let x = 1"
        assert pretty(Let("h", HIGH, Num("2"))) == "let h: high = 2"

    def test_top_level_seq_uses_newlines(self):
        e = Seq(Let("x", None, Num("1")), Var("x"))
        assert pretty(e) == "let x = 1\nx"

    def test_nested_seq_uses_semicolons(self):
        e = If(Bool(True), Seq(Num("1"), Num("2")), Num("3"))
        assert pretty(e) == "if true { 1; 2 } else { 3 }"

    def test_sequence_chains_to_the_right(self):
        a, b, c = Num("1", pos=Pos(1, 1)), Num("2", pos=Pos(2, 1)), Num("3")
        assert sequence([a]) is a
        chain = sequence([a, b, c])
        assert chain == Seq(a, Seq(b, c))
        assert (chain.pos, chain.second.pos) == (a.pos, b.pos)

    # A block of four statements, one of them a parenthesised sequence.
    BLOCK = [Let("x", None, Num("1")), Assign("r", Var("x")), Seq(Num("2"), Num("3")), Deref("r")]

    def test_nested_blocks_join_every_statement_with_semicolons(self):
        e = While(Var("b"), sequence(self.BLOCK))
        assert pretty(e) == "while b { let x = 1; r := x; (2; 3); !r }"

    @pytest.mark.parametrize("size", [3, 4, 40])
    def test_nested_blocks_round_trip(self, size):
        block = sequence((self.BLOCK * size)[:size])
        for e in (
            If(Var("b"), block, block),
            While(Var("b"), block),
            For("i", Num("1"), Num("2"), block),
            Ref(block),
            Let("y", None, Ref(If(Var("b"), block, While(Var("b"), block)))),
        ):
            assert parse(pretty(e)) == e
            assert parse(pretty(sequence([e, e, block]))) == sequence([e, e, block])

    def test_application_is_left_associative(self):
        e = App(App(Var("f"), Var("x")), Var("y"))
        assert pretty(e) == "f x y"
        e = App(Var("f"), App(Var("g"), Var("x")))
        assert pretty(e) == "f (g x)"

    def test_statement_forms_wrap_inside_operators(self):
        e = Bop(BinOp.ADD, Assign("x", Num("1")), Num("2"))
        assert pretty(e) == "(x := 1) + 2"

    def test_pretty_rejects_non_expressions(self):
        with pytest.raises(TypeError):
            pretty("x")  # type: ignore[arg-type]
