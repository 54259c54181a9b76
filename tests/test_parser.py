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
from rescheck.cli import ast_json


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


def brief(j: dict) -> str:
    """ast_json of an operator tree, written compactly: `(op lhs rhs)@line:col`
    for a Bop, `(app fn arg)@line:col` for an App, `x@line:col` for a leaf."""
    at = f"@{j['pos']['line']}:{j['pos']['col']}"
    match j["node"]:
        case "Bop":
            return f"({j['op']} {brief(j['lhs'])} {brief(j['rhs'])}){at}"
        case "App":
            return f"(app {brief(j['fn'])} {brief(j['arg'])}){at}"
        case "Var":
            return j["name"] + at
        case "Num":
            return j["literal"] + at
    raise AssertionError(j)


class TestOperatorTrees:
    """Binding, associativity and positions of operator chains, pinned
    through `ast_json` (each Bop sits at its leftmost operand)."""

    @pytest.mark.parametrize(
        "source, expected",
        [
            (
                "a * b + c < d - e / f",
                "(< (+ (* a@1:1 b@1:5)@1:1 c@1:9)@1:1 (- d@1:13 (/ e@1:17 f@1:21)@1:17)@1:13)@1:1",
            ),
            ("1 - 2 - 3", "(- (- 1@1:1 2@1:5)@1:1 3@1:9)@1:1"),
            (
                "f x - -1 * g (y)",
                "(- (app f@1:1 x@1:3)@1:1 (* -1@1:7 (app g@1:12 y@1:15)@1:12)@1:7)@1:1",
            ),
            ("a == b + c", "(== a@1:1 (+ b@1:6 c@1:10)@1:6)@1:1"),
            ("a <\n b + c", "(< a@1:1 (+ b@2:2 c@2:6)@2:2)@1:1"),
        ],
    )
    def test_ast_json(self, source, expected):
        assert brief(ast_json(parse(source))) == expected

    def test_comparisons_do_not_chain(self):
        with pytest.raises(ParseError) as exc:
            parse("a < b < c")
        assert (exc.value.message, exc.value.line, exc.value.col) == ("unexpected '<'", 1, 7)
        assert exc.value.expected == (";", "eof")


class TestNesting:
    """How deep the parser nests before Python's recursion limit. Each
    parenthesis costs five parser frames and each `if` six; under pytest the
    limits measured 190 and 158."""

    def test_nested_parentheses(self):
        n = 180
        assert parse("(" * n + "1" + ")" * n) == Num("1")

    def test_nested_ifs(self):
        n = 150
        tree = parse("if x { " * n + "1" + " } else { 0 }" * n)
        for _ in range(n):
            assert isinstance(tree, If)
            tree = tree.then
        assert tree == Num("1")


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

    @pytest.mark.parametrize(
        "rhs, expected",
        [
            ("{ x } + 1", [((1, 9), (1, 11))]),
            ("{\n  y\n  x\n} * 2 + 1", [((1, 9), (1, 9)), ((1, 9), (2, 3))]),
            ("(x) + 1", [((1, 9), (1, 10))]),
            ("( \n x ) < 1", [((1, 9), (2, 2))]),
            ("-3 + 1", [((1, 9), (1, 9))]),
            ("f x + 1", [((1, 9), (1, 9))]),
            ("(f) x + 1", [((1, 9), (1, 10))]),
            ("if c { 1 } else { 2 } + 1", [((1, 9), (1, 9))]),
            ("!r + 1", [((1, 9), (1, 9))]),
            ("1 + { x } * 2", [((1, 9), (1, 9)), ((1, 13), (1, 15))]),
            ("() == x", [((1, 9), (1, 9))]),
        ],
    )
    def test_operator_chain_positions(self, rhs, expected):
        """A chain of operators starts at its first token, and its first
        operand keeps its own position: inside the braces or parentheses
        when the operand is a block or a parenthesized expression. Each
        pair is a `Bop`'s (line, col) and its `lhs`'s, the operators in
        preorder."""

        def chains(e):
            if not isinstance(e, Bop):
                return []
            here = ((e.pos.line, e.pos.col), (e.lhs.pos.line, e.lhs.pos.col))
            return [here, *chains(e.lhs), *chains(e.rhs)]

        let = parse("let z = " + rhs)
        assert chains(let.rhs) == expected

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

    def test_integer_literals_have_at_most_4300_digits(self):
        assert tokenize("1" * 4300)[0] == ("num", "1" * 4300, 1, 1)
        with pytest.raises(ParseError) as exc:
            tokenize("x\nx + " + "1" * 4301)
        assert (exc.value.line, exc.value.col) == (2, 5)
        assert exc.value.message == "integer literal longer than 4300 digits"
        with pytest.raises(ParseError) as exc:
            tokenize("x =  \t" + "1" * 4301)
        assert (exc.value.line, exc.value.col) == (1, 7)

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("x²", [("ident", "x²", 1, 1), ("eof", "", 1, 3)]),
            ("1²", (1, 2)),
            ("_a", (1, 1)),
            ("a_1", [("ident", "a_1", 1, 1), ("eof", "", 1, 4)]),
            ("let1", [("ident", "let1", 1, 1), ("eof", "", 1, 5)]),
            ("Ⅷ", (1, 1)),
            ("½", (1, 1)),
            ("é1", [("ident", "é1", 1, 1), ("eof", "", 1, 3)]),
            ("\xa0", (1, 1)),
            ("\f", (1, 1)),
            ("a//c", [("ident", "a", 1, 1), ("eof", "", 1, 5)]),
            (
                "a//c\nb",
                [
                    ("ident", "a", 1, 1),
                    ("newline", "\n", 1, 5),
                    ("ident", "b", 2, 1),
                    ("eof", "", 2, 2),
                ],
            ),
            (
                "a\r\nb",
                [
                    ("ident", "a", 1, 1),
                    ("newline", "\n", 1, 3),
                    ("ident", "b", 2, 1),
                    ("eof", "", 2, 2),
                ],
            ),
            (
                "(a\nb)",
                [
                    ("(", "(", 1, 1),
                    ("ident", "a", 1, 2),
                    ("ident", "b", 2, 1),
                    (")", ")", 2, 2),
                    ("eof", "", 2, 3),
                ],
            ),
            (
                ")\nx",
                [
                    (")", ")", 1, 1),
                    ("newline", "\n", 1, 2),
                    ("ident", "x", 2, 1),
                    ("eof", "", 2, 2),
                ],
            ),
            ("==>", [("==", "==", 1, 1), (">", ">", 1, 3), ("eof", "", 1, 4)]),
            (":==", [(":=", ":=", 1, 1), ("=", "=", 1, 3), ("eof", "", 1, 4)]),
            ("->-", [("->", "->", 1, 1), ("-", "-", 1, 3), ("eof", "", 1, 4)]),
            ("1x", [("num", "1", 1, 1), ("ident", "x", 1, 2), ("eof", "", 1, 3)]),
            ("   ", [("eof", "", 1, 4)]),
            ("  \t  ", [("eof", "", 1, 6)]),
            ("x \t \t", [("ident", "x", 1, 1), ("eof", "", 1, 6)]),
            ("x // c", [("ident", "x", 1, 1), ("eof", "", 1, 7)]),
            (
                "a \r\n\r\n b\r\n",
                [
                    ("ident", "a", 1, 1),
                    ("newline", "\n", 1, 4),
                    ("newline", "\n", 2, 2),
                    ("ident", "b", 3, 2),
                    ("newline", "\n", 3, 4),
                    ("eof", "", 4, 1),
                ],
            ),
            (
                "( \t\n x)",
                [("(", "(", 1, 1), ("ident", "x", 2, 2), (")", ")", 2, 3), ("eof", "", 2, 4)],
            ),
            ("x  $", (1, 4)),
            ("let  ¿", (1, 6)),
            (
                "letter iffy",
                [("ident", "letter", 1, 1), ("ident", "iffy", 1, 8), ("eof", "", 1, 12)],
            ),
        ],
    )
    def test_edge_cases(self, source, expected):
        # A list is the (kind, text, line, col) of every token; a pair is
        # where the "unexpected character" error points.
        if isinstance(expected, list):
            assert [(t.kind, t.text, t.line, t.col) for t in tokenize(source)] == expected
        else:
            with pytest.raises(ParseError) as exc:
                tokenize(source)
            assert (exc.value.line, exc.value.col) == expected
            assert exc.value.message == f"unexpected character {source[expected[1] - 1]!r}"


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
