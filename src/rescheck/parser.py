"""Lexer and parser for the surface language: recursive descent for
statements, precedence climbing for binary operators.

Statements are separated by newlines or semicolons; newlines inside
parentheses are ignored. Application is juxtaposition and binds tighter
than any operator, so `f x + 1` is `(f x) + 1`.
"""

from __future__ import annotations

import re
import sys
from typing import NamedTuple

from .syntax import (
    BINOP_LEVEL,
    CMP_LEVEL,
    EMPTY,
    HIGH,
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
    If,
    Let,
    Num,
    Pos,
    Ref,
    RefType,
    SecType,
    Unit,
    Var,
    While,
    sequence,
)

KEYWORDS = frozenset(
    ["let", "if", "else", "while", "for", "in", "to", "ref", "true", "false", "low", "high"]
)

# The most digits int() converts in this process, which bounds an integer
# literal; 0 means no limit, as on Pythons before 3.10.7.
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)

# Alternatives are tried in order; tokenize refuses a word that starts with no letter (`_a`, `²`).
_TOKEN = re.compile(
    r"(?P<newline>\n)|[ \t\r]+|//[^\n]*|(?P<num>\d+)|(?P<word>\w+)"
    r"|(?P<sym>==|=>|:=|->|[(){};:=<>+\-*/!@])|(?P<bad>.)"
)


class ParseError(Exception):
    """Syntax error with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"{line}:{col}: {message}")


class Token(NamedTuple):
    kind: str  # 'num', 'ident', a keyword, a symbol, 'newline' or 'eof'
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start, depth = 1, 0, 0  # depth: open parentheses, inside which newlines are blanks
    max_digits = _digit_limit()
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind is None:  # blanks or a comment
            continue
        text = m.group()
        col = m.start() - line_start + 1
        if kind == "newline":
            if depth == 0:
                toks.append(Token(kind, text, line, col))
            line, line_start = line + 1, m.end()
        elif kind == "num" and max_digits and len(text) > max_digits:
            raise ParseError(f"integer literal longer than {max_digits} digits", line, col)
        elif kind == "num":
            toks.append(Token(kind, text, line, col))
        elif kind == "word" and text[0].isalpha():
            toks.append(Token(text if text in KEYWORDS else "ident", text, line, col))
        elif kind == "sym":
            depth = max(0, depth + (text == "(") - (text == ")"))
            toks.append(Token(text, text, line, col))
        else:
            raise ParseError(f"unexpected character {text[0]!r}", line, col)
    toks.append(Token("eof", "", line, len(source) - line_start + 1))
    return toks


_ATOM_START = frozenset(
    ["num", "ident", "true", "false", "(", "!", "ref", "if", "while", "for", "{"]
)

# Each binary operator by its token; syntax.BINOP_LEVEL gives its level.
_BINOPS = {op.value: op for op in BINOP_LEVEL}


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0
        # While parsing an if/while/for header a brace opens the body, so
        # blocks are not atoms there.
        self.no_block = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        if not ahead:
            return self.toks[self.i]  # advance never moves past the final eof
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def advance(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                f"expected {kind!r} but found {t.text or t.kind!r}",
                t.line,
                t.col,
                expected=(kind,),
            )
        return self.advance()

    def skip_newlines(self) -> None:
        while self.peek().kind == "newline":
            self.advance()

    def skip_separators(self) -> bool:
        saw = False
        while self.peek().kind in ("newline", ";"):
            self.advance()
            saw = True
        return saw

    def pos(self) -> Pos:
        t = self.peek()
        return Pos(t.line, t.col)

    # -- grammar ------------------------------------------------------------

    def parse_program(self) -> Expr:
        self.skip_separators()
        e = self.parse_seq(stop=("eof",))
        self.skip_separators()
        self.expect("eof")
        return e

    def parse_seq(self, stop: tuple[str, ...]) -> Expr:
        items = [self.parse_expr()]
        while True:
            saw_sep = self.skip_separators()
            nxt = self.peek().kind
            if nxt in stop or nxt == "eof":
                break
            if not saw_sep:
                t = self.peek()
                raise ParseError(
                    f"unexpected {t.text or t.kind!r}", t.line, t.col, expected=(";",) + stop
                )
            items.append(self.parse_expr())
        return sequence(items)

    def parse_expr(self) -> Expr:
        t = self.peek()
        if t.kind == "let":
            return self.parse_let()
        if t.kind == "ident" and self.peek(1).kind == ":=":
            p = self.pos()
            name = self.advance().text
            self.advance()
            self.skip_newlines()
            return Assign(name, self.parse_expr(), pos=p)
        if t.kind == "(" and self.peek(1).kind == "ident" and self.peek(2).kind == ":":
            return self.parse_func()
        return self.parse_binary(CMP_LEVEL)

    def parse_let(self) -> Expr:
        p = self.pos()
        self.expect("let")
        name = self.expect("ident").text
        annot: SecType | None = None
        if self.peek().kind == ":":
            self.advance()
            lvl = self.peek()
            if lvl.kind == "low":
                annot = LOW
            elif lvl.kind == "high":
                annot = HIGH
            else:
                raise ParseError(
                    "let annotations must be 'low' or 'high'",
                    lvl.line,
                    lvl.col,
                    expected=("low", "high"),
                )
            self.advance()
        self.expect("=")
        self.skip_newlines()
        return Let(name, annot, self.parse_expr(), pos=p)

    def parse_func(self) -> Expr:
        p = self.pos()
        self.expect("(")
        param = self.expect("ident").text
        self.expect(":")
        annot = self.parse_type()
        self.expect(")")
        self.expect("=>")
        self.skip_newlines()
        body = self.parse_expr()
        return Func(param, annot, body, pos=p)

    def parse_binary(self, min_level: int) -> Expr:
        """Operators that bind at `min_level` or tighter, by precedence
        climbing: a chain associates to the left, its right operands bind one
        level tighter, and a comparison ends the chain, so comparisons do
        not chain."""
        p = self.pos()
        e = self.parse_operand()
        while (op := _BINOPS.get(self.peek().kind)) is not None:
            level = BINOP_LEVEL[op]
            if level < min_level:
                break
            self.advance()
            self.skip_newlines()
            e = Bop(op, e, self.parse_binary(level + 1), pos=p)
            if level == CMP_LEVEL:
                break
        return e

    def _at_atom(self) -> bool:
        k = self.peek().kind
        if k == "{" and self.no_block > 0:
            return False
        return k in _ATOM_START

    def parse_operand(self) -> Expr:
        """An operator's operand: a negative literal, or an application,
        which folds juxtaposed atoms to the left."""
        t = self.peek()
        if t.kind == "-":
            self.advance()
            num = self.expect("num")
            return Num("-" + num.text, pos=Pos(t.line, t.col))
        e = self.parse_atom()
        while self._at_atom():
            arg = self.parse_atom()
            e = App(e, arg, pos=e.pos)
        return e

    def parse_header_expr(self) -> Expr:
        """Parse an if/while condition or for bound, where `{` starts the body."""
        self.no_block += 1
        try:
            return self.parse_binary(CMP_LEVEL)
        finally:
            self.no_block -= 1

    def parse_block(self) -> Expr:
        self.expect("{")
        self.skip_separators()
        e = self.parse_seq(stop=("}",))
        self.skip_separators()
        self.expect("}")
        return e

    def parse_atom(self) -> Expr:
        t = self.peek()
        p = Pos(t.line, t.col)
        match t.kind:
            case "num":
                self.advance()
                return Num(t.text, pos=p)
            case "true":
                self.advance()
                return Bool(True, pos=p)
            case "false":
                self.advance()
                return Bool(False, pos=p)
            case "ident":
                self.advance()
                return Var(t.text, pos=p)
            case "!":
                self.advance()
                name = self.expect("ident")
                return Deref(name.text, pos=p)
            case "ref":
                self.advance()
                self.expect("(")
                inner = self.parse_seq(stop=(")",))
                self.expect(")")
                return Ref(inner, pos=p)
            case "if":
                self.advance()
                self.skip_newlines()
                cond = self.parse_header_expr()
                then = self.parse_block()
                self.skip_newlines()
                self.expect("else")
                self.skip_newlines()
                orelse = self.parse_block()
                return If(cond, then, orelse, pos=p)
            case "while":
                self.advance()
                self.skip_newlines()
                cond = self.parse_header_expr()
                body = self.parse_block()
                return While(cond, body, pos=p)
            case "for":
                self.advance()
                var = self.expect("ident").text
                self.expect("in")
                self.skip_newlines()
                start = self.parse_header_expr()
                self.expect("to")
                self.skip_newlines()
                stop = self.parse_header_expr()
                body = self.parse_block()
                return For(var, start, stop, body, pos=p)
            case "{":
                return self.parse_block()
            case "(":
                self.advance()
                if self.peek().kind == ")":
                    self.advance()
                    return Unit(pos=p)
                if self.peek().kind == "ident" and self.peek(1).kind == ":":
                    # step back and let parse_func consume the '('
                    self.i -= 1
                    return self.parse_func()
                e = self.parse_seq(stop=(")",))
                self.expect(")")
                return e
        raise ParseError(
            f"expected an expression but found {t.text or t.kind!r}", t.line, t.col
        )

    # -- types --------------------------------------------------------------

    def parse_type(self) -> SecType:
        t = self.peek()
        match t.kind:
            case "low":
                self.advance()
                return LOW
            case "high":
                self.advance()
                return HIGH
            case "ref":
                self.advance()
                return RefType(self.parse_type())
            case "(":
                self.advance()
                if self.peek().kind == ")":
                    self.advance()
                    return EMPTY
                param = self.parse_type()
                self.expect("->")
                result = self.parse_type()
                self.expect("@")
                latent = self.parse_type()
                self.expect(")")
                return FunType(param, result, latent)
        raise ParseError(f"expected a type but found {t.text or t.kind!r}", t.line, t.col)


def _parser(source: str | bytes) -> _Parser:
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8 input: {exc.reason}", 1, 1) from None
    return _Parser(tokenize(source))


def parse(source: str | bytes) -> Expr:
    """Parse a program. Raises ParseError on any malformed input."""
    return _parser(source).parse_program()


def parse_type(source: str | bytes) -> SecType:
    """Parse a type written in surface syntax, e.g. '(low -> high @ ())'."""
    p = _parser(source)
    p.skip_newlines()
    t = p.parse_type()
    p.skip_newlines()
    p.expect("eof")
    return t
