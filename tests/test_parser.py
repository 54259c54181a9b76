"""Surface syntax: tokenizer, expression grammar, and type grammar."""

import pytest

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
    For,
    Func,
    FunType,
    If,
    Let,
    Num,
    ParseError,
    Ref,
    RefType,
    Seq,
    Unit,
    Var,
    While,
    parse,
    parse_type,
    pretty,
    pretty_type,
    tokenize,
)


class TestAtoms:
    def test_literals(self):
        assert parse("42") == Num("42")
        assert parse("-7") == Num("-7")
        assert parse("true") == Bool(True)
        assert parse("false") == Bool(False)
        assert parse("()") == Unit()

    def test_variables_and_deref(self):
        assert parse("x") == Var("x")
        assert parse("foo_bar2") == Var("foo_bar2")
        assert parse("!r") == Deref("r")

    def test_ref_requires_parens(self):
        assert parse("ref(3)") == Ref(Num("3"))
        with pytest.raises(ParseError):
            parse("ref 3")


class TestOperators:
    def test_mul_binds_tighter_than_add(self):
        assert parse("1 + 2 * 3") == Bop(
            BinOp.ADD, Num("1"), Bop(BinOp.MUL, Num("2"), Num("3"))
        )

    def test_add_and_sub_are_left_associative(self):
        assert parse("1 - 2 - 3") == Bop(
            BinOp.SUB, Bop(BinOp.SUB, Num("1"), Num("2")), Num("3")
        )

    def test_mul_and_div_are_left_associative(self):
        assert parse("8 / 4 / 2") == Bop(
            BinOp.DIV, Bop(BinOp.DIV, Num("8"), Num("4")), Num("2")
        )

    def test_comparison_is_non_associative(self):
        assert parse("1 < 2") == Bop(BinOp.LT, Num("1"), Num("2"))
        with pytest.raises(ParseError):
            parse("1 < 2 < 3")
        with pytest.raises(ParseError):
            parse("1 == 2 == 3")

    def test_not_equal_is_not_an_operator(self):
        with pytest.raises(ParseError) as exc:
            parse("a != 2")
        assert (exc.value.line, exc.value.col) == (1, 4)
        assert exc.value.message == "expected 'ident' but found '='"

    def test_comparison_over_arithmetic(self):
        assert parse("1 + 2 == 3") == Bop(
            BinOp.EQ, Bop(BinOp.ADD, Num("1"), Num("2")), Num("3")
        )

    def test_unary_minus_only_on_literals(self):
        assert parse("2 * -3") == Bop(BinOp.MUL, Num("2"), Num("-3"))
        with pytest.raises(ParseError):
            parse("-x")


class TestApplication:
    def test_juxtaposition_folds_left(self):
        assert parse("f x y") == App(App(Var("f"), Var("x")), Var("y"))

    def test_binds_tighter_than_operators(self):
        assert parse("f x + 1") == Bop(BinOp.ADD, App(Var("f"), Var("x")), Num("1"))

    def test_parenthesised_argument(self):
        assert parse("f (g x)") == App(Var("f"), App(Var("g"), Var("x")))
        assert parse("f (-2)") == App(Var("f"), Num("-2"))

    def test_unit_argument(self):
        assert parse("f ()") == App(Var("f"), Unit())


class TestStatements:
    def test_let_without_annotation(self):
        assert parse("let x = 1") == Let("x", None, Num("1"))

    def test_let_with_level_annotation(self):
        assert parse("let h: high = 2") == Let("h", HIGH, Num("2"))
        assert parse("let l: low = h") == Let("l", LOW, Var("h"))

    def test_let_annotation_must_be_a_level(self):
        with pytest.raises(ParseError):
            parse("let x: ref low = ref(1)")
        with pytest.raises(ParseError):
            parse("let f: (low -> low @ ()) = (x: low) => x")

    def test_assignment(self):
        assert parse("r := !r + 1") == Assign(
            "r", Bop(BinOp.ADD, Deref("r"), Num("1"))
        )

    def test_keywords_are_not_identifiers(self):
        for bad in ("let let = 1", "let if = 1", "let ref = 1", "let to = 1"):
            with pytest.raises(ParseError):
                parse(bad)


class TestControlFlow:
    def test_if_else(self):
        assert parse("if b { 1 } else { 2 }") == If(Var("b"), Num("1"), Num("2"))

    def test_else_is_mandatory(self):
        with pytest.raises(ParseError):
            parse("if b { 1 }")

    def test_while(self):
        assert parse("while !c > 0 { c := !c - 1 }") == While(
            Bop(BinOp.GT, Deref("c"), Num("0")),
            Assign("c", Bop(BinOp.SUB, Deref("c"), Num("1"))),
        )

    def test_for(self):
        assert parse("for i in 1 to 3 { i }") == For("i", Num("1"), Num("3"), Var("i"))

    def test_header_brace_starts_the_body(self):
        # `f` is not applied to the block: the brace after a header opens it.
        assert parse("while f { () }") == While(Var("f"), Unit())
        assert parse("if f { 1 } else { 2 }") == If(Var("f"), Num("1"), Num("2"))

    def test_block_bodies_may_hold_sequences(self):
        got = parse("if b { x := 1; 2 } else { 3 }")
        assert got == If(Var("b"), Seq(Assign("x", Num("1")), Num("2")), Num("3"))


class TestFunctions:
    def test_lambda_requires_annotation(self):
        assert parse("(x: low) => x + 1") == Func(
            "x", LOW, Bop(BinOp.ADD, Var("x"), Num("1"))
        )
        with pytest.raises(ParseError):
            parse("(x) => x")

    def test_lambda_with_structured_annotation(self):
        got = parse("(r: ref high) => !r")
        assert got == Func("r", RefType(HIGH), Deref("r"))
        got = parse("(f: (low -> low @ ())) => f 1")
        assert got == Func("f", FunType(LOW, LOW, EMPTY), App(Var("f"), Num("1")))

    def test_lambda_as_let_rhs(self):
        got = parse("let f = (x: low) => x")
        assert got == Let("f", None, Func("x", LOW, Var("x")))


class TestSequencesAndLayout:
    def test_newline_separates_statements(self):
        got = parse("let x = 1\nx")
        assert got == Seq(Let("x", None, Num("1")), Var("x"))

    def test_semicolon_separates_statements(self):
        assert parse("1; 2; 3") == Seq(Num("1"), Seq(Num("2"), Num("3")))

    def test_blank_lines_and_trailing_newlines_ignored(self):
        assert parse("\n\nlet x = 1\n\n\nx\n") == Seq(Let("x", None, Num("1")), Var("x"))

    def test_newlines_inside_parens_do_not_separate(self):
        assert parse("(1 +\n 2)") == Bop(BinOp.ADD, Num("1"), Num("2"))

    def test_adjacent_statements_need_a_separator(self):
        with pytest.raises(ParseError):
            parse("let x = 1 let y = 2")

    def test_comments_run_to_end_of_line(self):
        got = parse("let x = 1 // binds x\nx // result")
        assert got == Seq(Let("x", None, Num("1")), Var("x"))


class TestPositions:
    def test_positions_are_one_based(self):
        e = parse("let x = 1")
        assert e.pos is not None and (e.pos.line, e.pos.col) == (1, 1)

    def test_second_line_position(self):
        e = parse("1\nlet y = 2")
        assert isinstance(e, Seq)
        assert e.second.pos is not None
        assert (e.second.pos.line, e.second.pos.col) == (2, 1)

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse("let x = @")
        assert (exc.value.line, exc.value.col) == (1, 9)
        assert str(exc.value).startswith("1:9:")


class TestBytesInput:
    def test_utf8_bytes_accepted(self):
        assert parse(b"1 + 2") == Bop(BinOp.ADD, Num("1"), Num("2"))

    def test_invalid_utf8_is_a_parse_error(self):
        with pytest.raises(ParseError) as exc:
            parse(b"\xff\xfe")
        assert (exc.value.line, exc.value.col) == (1, 1)


class TestTypeGrammar:
    def test_levels_and_empty(self):
        assert parse_type("low") == LOW
        assert parse_type("high") == HIGH
        assert parse_type("()") == EMPTY

    def test_ref_and_fun(self):
        assert parse_type("ref high") == RefType(HIGH)
        assert parse_type("(low -> high @ ())") == FunType(LOW, HIGH, EMPTY)

    def test_nested_fun(self):
        t = parse_type("((low -> low @ ()) -> ref low @ high)")
        assert t == FunType(FunType(LOW, LOW, EMPTY), RefType(LOW), HIGH)

    def test_round_trips_through_pretty_type(self):
        for src in ("low", "high", "()", "ref low", "(high -> ref high @ low)"):
            t = parse_type(src)
            assert parse_type(pretty_type(t)) == t

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_type("low high")
        with pytest.raises(ParseError):
            parse_type("int")


class TestTokenizer:
    def test_symbols_maximal_munch(self):
        kinds = [t.kind for t in tokenize("x := y == z => ()")]
        assert kinds == ["ident", ":=", "ident", "==", "ident", "=>", "(", ")", "eof"]

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("1 $ 2")

    def test_numbers_are_decimal_digits_only(self):
        # "²" is a digit to str.isdigit but not a decimal int() can read
        with pytest.raises(ParseError) as exc:
            tokenize("²")
        assert (exc.value.line, exc.value.col) == (1, 1)
        with pytest.raises(ParseError) as exc:
            tokenize("1²")
        assert (exc.value.line, exc.value.col) == (1, 2)
        assert [(t.kind, t.text) for t in tokenize("٣")] == [("num", "٣"), ("eof", "")]


class TestRoundTrip:
    def test_corpus_style_programs_round_trip(self):
        sources = [
            "let h: high = 2\nlet l = h",
            "let l = ref(2)\nlet h = l\nh := 4\n!l",
            "let f = (x: low) => x + 1\nf 41",
            "let s = ref(0)\nfor i in 1 to 3 { s := !s + i }\n!s",
            "if h { f 2 } else { 3 }",
            "while !c > 0 { c := !c - 1; () }",
        ]
        for src in sources:
            ast = parse(src)
            assert parse(pretty(ast)) == ast
