"""Lexer and recursive-descent parser for the surface language.

Statements are separated by newlines or semicolons; newlines inside
parentheses are ignored. Application is juxtaposition and binds tighter
than any operator, so `f x + 1` is `(f x) + 1`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    BINOP_LEVEL,
    CMP_LEVEL,
    EMPTY,
    HIGH,
    LOW,
    MUL_LEVEL,
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
    Seq,
    Unit,
    Var,
    While,
)

KEYWORDS = frozenset(
    ["let", "if", "else", "while", "for", "in", "to", "ref", "true", "false", "low", "high"]
)

_SYMBOLS = ["==", "=>", ":=", "->", "(", ")", "{", "}", ";", ":", "=", "<", ">", "+", "-", "*", "/", "!", "@"]


class ParseError(Exception):
    """Syntax error with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"{line}:{col}: {message}")


@dataclass(frozen=True)
class Token:
    kind: str  # 'num', 'ident', a keyword, a symbol, 'newline' or 'eof'
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    i = 0
    line, col = 1, 1
    depth = 0  # parenthesis nesting; newlines inside parens are not separators
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            if depth == 0:
                toks.append(Token("newline", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            toks.append(Token("num", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = word if word in KEYWORDS else "ident"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                if sym == "(":
                    depth += 1
                elif sym == ")":
                    depth = max(0, depth - 1)
                toks.append(Token(sym, sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


_ATOM_START = frozenset(
    ["num", "ident", "true", "false", "(", "!", "ref", "if", "while", "for", "{"]
)

# The operators of each binding level, by token, from syntax.BINOP_LEVEL.
_LEVEL_OPS = {
    level: {op.value: op for op, at in BINOP_LEVEL.items() if at == level}
    for level in set(BINOP_LEVEL.values())
}


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0
        # While parsing an if/while/for header a brace opens the body, so
        # blocks are not atoms there.
        self.no_block = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        j = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[j]

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
        e = items[-1]
        for item in reversed(items[:-1]):
            e = Seq(item, e, pos=item.pos)
        return e

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

    def parse_binary(self, level: int) -> Expr:
        """Operators that bind at `level` or tighter: a left-associative
        chain, or at the comparison level a single comparison."""
        p = self.pos()
        e = self.parse_binary(level + 1) if level < MUL_LEVEL else self.parse_unary()
        ops = _LEVEL_OPS[level]
        while (op := ops.get(self.peek().kind)) is not None:
            self.advance()
            self.skip_newlines()
            rhs = self.parse_binary(level + 1) if level < MUL_LEVEL else self.parse_unary()
            e = Bop(op, e, rhs, pos=p)
            if level == CMP_LEVEL:
                break
        return e

    def parse_unary(self) -> Expr:
        t = self.peek()
        if t.kind == "-":
            self.advance()
            num = self.expect("num")
            return Num("-" + num.text, pos=Pos(t.line, t.col))
        return self.parse_app()

    def _at_atom(self) -> bool:
        k = self.peek().kind
        if k == "{" and self.no_block > 0:
            return False
        return k in _ATOM_START

    def parse_app(self) -> Expr:
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


def _decode(source: str | bytes) -> str:
    if isinstance(source, bytes):
        try:
            return source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8 input: {exc.reason}", 1, 1) from None
    return source


def parse(source: str | bytes) -> Expr:
    """Parse a program. Raises ParseError on any malformed input."""
    text = _decode(source)
    p = _Parser(tokenize(text))
    return p.parse_program()


def parse_type(source: str | bytes) -> SecType:
    """Parse a type written in surface syntax, e.g. '(low -> high @ ())'."""
    text = _decode(source)
    p = _Parser(tokenize(text))
    p.skip_newlines()
    t = p.parse_type()
    p.skip_newlines()
    p.expect("eof")
    return t
