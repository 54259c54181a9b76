"""Lexer and parser for the surface language: recursive descent for
statements, precedence climbing for binary operators.

Statements are separated by newlines or semicolons; newlines inside
parentheses are ignored. Application is juxtaposition and binds tighter
than any operator, so `f x + 1` is `(f x) + 1`.

`_scan` reads the source in one pass and fills four parallel lists, the
token columns: each token's kind, text, line and column, ending with `eof`.
It makes one regex match per token, which takes the blanks before the token
along with it. The parser indexes those lists, so looking ahead is reading
`kinds[i + 1]` and a token costs four list entries and no object of its own.
`tokenize` zips the columns into one `Token` per token for callers that want
them. A `Pos` is made only for a node, from the columns of the token where
the node starts: most tokens (separators, operators, `=`, `)`) start no
node, so an object per token would mostly be made to be thrown away. An
operator chain starts where its first operand does, so it shares that
operand's `Pos`, except when the operand is the inner expression of a
`(…)` or `{…}`.
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

# One match per token: the blanks before it, then the token, a comment or the
# end. Alternatives are tried in order; _scan refuses a word that starts with
# no letter (`_a`, `²`).
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<newline>\n)|//[^\n]*|(?P<num>\d+)|(?P<word>\w+)"
    r"|(?P<sym>==|=>|:=|->|[(){};:=<>+\-*/!@])|(?P<bad>.)|\Z)"
)

# A word's kind: itself for a keyword, else 'ident'.
_WORD_KINDS = {k: k for k in KEYWORDS}


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


def _scan(source: str) -> tuple[list[str], list[str], list[int], list[int]]:
    """Each token's kind, text, line and column, in four parallel lists that
    end with `eof`. A match takes the blanks before its token too, so the
    token's text and column are those of its named group."""
    kinds: list[str] = []
    texts: list[str] = []
    lines: list[int] = []
    cols: list[int] = []
    line, line_start, depth = 1, 0, 0  # depth: open parentheses, inside which newlines are blanks
    max_digits = _digit_limit()
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind is None:  # blanks, then a comment or the end
            continue
        text = m[kind]
        col = m.start(kind) - line_start + 1
        if kind == "newline":
            if not depth:
                kinds.append(kind)
                texts.append(text)
                lines.append(line)
                cols.append(col)
            line, line_start = line + 1, m.end()
            continue
        if kind == "word" and text[0].isalpha():
            kind = _WORD_KINDS.get(text, "ident")
        elif kind == "sym":
            kind = text
            if text == "(":
                depth += 1
            elif text == ")" and depth:
                depth -= 1
        elif kind != "num":
            raise ParseError(f"unexpected character {text[0]!r}", line, col)
        elif max_digits and len(text) > max_digits:
            raise ParseError(f"integer literal longer than {max_digits} digits", line, col)
        kinds.append(kind)
        texts.append(text)
        lines.append(line)
        cols.append(col)
    kinds.append("eof")
    texts.append("")
    lines.append(line)
    cols.append(len(source) - line_start + 1)
    return kinds, texts, lines, cols


def tokenize(source: str) -> list[Token]:
    """The token columns as one `Token` per token."""
    return [Token(*t) for t in zip(*_scan(source))]


_ATOM_START = frozenset(
    ["num", "ident", "true", "false", "(", "!", "ref", "if", "while", "for", "{"]
)

# Each binary operator's token to the operator and its syntax.BINOP_LEVEL.
_BINOPS = {op.value: (op, level) for op, level in BINOP_LEVEL.items()}

_LET_LEVELS = {"low": LOW, "high": HIGH}

# Atoms that may return the expression inside them, whose position is not theirs.
_INNER_OPENERS = frozenset(["(", "{"])


class _Parser:
    """Recursive descent over the scanner's columns; `i` indexes them and
    never passes the final `eof` before the parse ends."""

    __slots__ = ("kinds", "texts", "lines", "cols", "i", "no_block")

    def __init__(self, source: str):
        self.kinds, self.texts, self.lines, self.cols = _scan(source)
        self.i = 0
        # While parsing an if/while/for header a brace opens the body, so
        # blocks are not atoms there.
        self.no_block = 0

    # -- token helpers ------------------------------------------------------

    def pos_at(self, i: int) -> Pos:
        return Pos(self.lines[i], self.cols[i])

    def error(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        """An error at the current token."""
        i = self.i
        return ParseError(message, self.lines[i], self.cols[i], expected)

    def found(self) -> str:
        i = self.i
        return repr(self.texts[i] or self.kinds[i])

    def expect(self, kind: str) -> str:
        """Consume a token of `kind` and return its text."""
        i = self.i
        if self.kinds[i] != kind:
            raise self.error(f"expected {kind!r} but found {self.found()}", (kind,))
        self.i = i + 1
        return self.texts[i]

    def skip_newlines(self) -> None:
        kinds, i = self.kinds, self.i
        while kinds[i] == "newline":
            i += 1
        self.i = i

    def skip_separators(self) -> bool:
        kinds, i = self.kinds, self.i
        while kinds[i] == "newline" or kinds[i] == ";":
            i += 1
        saw, self.i = i != self.i, i
        return saw

    # -- grammar ------------------------------------------------------------

    def parse_program(self) -> Expr:
        self.skip_separators()
        e = self.parse_seq("eof")
        self.expect("eof")
        return e

    def parse_seq(self, stop: str) -> Expr:
        """Statements up to `stop` or the end, and the separators after them."""
        kinds = self.kinds
        items = [self.parse_expr()]
        while True:
            saw_sep = self.skip_separators()
            nxt = kinds[self.i]
            if nxt == stop or nxt == "eof":
                break
            if not saw_sep:
                raise self.error(f"unexpected {self.found()}", (";", stop))
            items.append(self.parse_expr())
        return sequence(items)

    def parse_expr(self) -> Expr:
        kinds, i = self.kinds, self.i
        k = kinds[i]
        if k == "let":
            return self.parse_let()
        if k == "ident" and kinds[i + 1] == ":=":
            self.i = i + 2
            self.skip_newlines()
            return Assign(self.texts[i], self.parse_expr(), pos=self.pos_at(i))
        if k == "(" and kinds[i + 1] == "ident" and kinds[i + 2] == ":":
            return self.parse_func()
        return self.parse_binary(CMP_LEVEL)

    def parse_let(self) -> Expr:
        i = self.i
        p = Pos(self.lines[i], self.cols[i])
        self.i = i + 1  # 'let'
        name = self.expect("ident")
        annot: SecType | None = None
        if self.kinds[self.i] == ":":
            self.i += 1
            annot = _LET_LEVELS.get(self.kinds[self.i])
            if annot is None:
                raise self.error("let annotations must be 'low' or 'high'", ("low", "high"))
            self.i += 1
        self.expect("=")
        self.skip_newlines()
        return Let(name, annot, self.parse_expr(), pos=p)

    def parse_func(self) -> Expr:
        """`(x: t) => e`, once the caller has seen `(`, a name and `:`."""
        i = self.i
        self.i = i + 3
        annot = self.parse_type()
        self.expect(")")
        self.expect("=>")
        self.skip_newlines()
        return Func(self.texts[i + 1], annot, self.parse_expr(), pos=self.pos_at(i))

    def parse_binary(self, min_level: int) -> Expr:
        """Operators that bind at `min_level` or tighter, by precedence
        climbing: a chain associates to the left, its right operands bind one
        level tighter, and a comparison ends the chain, so comparisons do
        not chain. An operand is a negative literal, or an application,
        which folds juxtaposed atoms to the left."""
        kinds, start = self.kinds, self.i
        if kinds[start] == "-":
            self.i += 1
            e: Expr = Num("-" + self.expect("num"), pos=self.pos_at(start))
        else:
            e = self.parse_atom()
            while (k := kinds[self.i]) in _ATOM_START and not (k == "{" and self.no_block):
                e = App(e, self.parse_atom(), pos=e.pos)
        p = None  # every operator of the chain takes the position where it starts
        while (entry := _BINOPS.get(kinds[self.i])) is not None and entry[1] >= min_level:
            op, level = entry
            self.i += 1
            self.skip_newlines()
            if p is None:
                # the first operand's own, unless it is the inner expression
                # of a `(…)` or `{…}`, which starts elsewhere
                p = self.pos_at(start) if kinds[start] in _INNER_OPENERS else e.pos
            e = Bop(op, e, self.parse_binary(level + 1), pos=p)
            if level == CMP_LEVEL:
                break
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
        e = self.parse_seq("}")
        self.expect("}")
        return e

    def parse_atom(self) -> Expr:
        kinds, i = self.kinds, self.i
        k = kinds[i]
        p = Pos(self.lines[i], self.cols[i])
        self.i = i + 1
        match k:
            case "ident":
                return Var(self.texts[i], pos=p)
            case "num":
                return Num(self.texts[i], pos=p)
            case "true" | "false":
                return Bool(k == "true", pos=p)
            case "!":
                return Deref(self.expect("ident"), pos=p)
            case "ref":
                self.expect("(")
                inner = self.parse_seq(")")
                self.expect(")")
                return Ref(inner, pos=p)
            case "if":
                self.skip_newlines()
                cond = self.parse_header_expr()
                then = self.parse_block()
                self.skip_newlines()
                self.expect("else")
                self.skip_newlines()
                return If(cond, then, self.parse_block(), pos=p)
            case "while":
                self.skip_newlines()
                cond = self.parse_header_expr()
                return While(cond, self.parse_block(), pos=p)
            case "for":
                var = self.expect("ident")
                self.expect("in")
                self.skip_newlines()
                start = self.parse_header_expr()
                self.expect("to")
                self.skip_newlines()
                stop = self.parse_header_expr()
                return For(var, start, stop, self.parse_block(), pos=p)
            case "{":
                self.i = i
                return self.parse_block()
            case "(":
                if kinds[i + 1] == ")":
                    self.i = i + 2
                    return Unit(pos=p)
                if kinds[i + 1] == "ident" and kinds[i + 2] == ":":
                    self.i = i
                    return self.parse_func()
                e = self.parse_seq(")")
                self.expect(")")
                return e
        self.i = i
        raise self.error(f"expected an expression but found {self.found()}")

    # -- types --------------------------------------------------------------

    def parse_type(self) -> SecType:
        i = self.i
        self.i = i + 1
        match self.kinds[i]:
            case "low":
                return LOW
            case "high":
                return HIGH
            case "ref":
                return RefType(self.parse_type())
            case "(":
                if self.kinds[i + 1] == ")":
                    self.i = i + 2
                    return EMPTY
                param = self.parse_type()
                self.expect("->")
                result = self.parse_type()
                self.expect("@")
                latent = self.parse_type()
                self.expect(")")
                return FunType(param, result, latent)
        self.i = i
        raise self.error(f"expected a type but found {self.found()}")


def _parser(source: str | bytes) -> _Parser:
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8 input: {exc.reason}", 1, 1) from None
    return _Parser(source)


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
