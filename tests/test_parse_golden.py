"""The parser's exact behaviour, pinned by a golden file.

`parse_golden.json` was generated at commit 09296b3, before the parser was
rewritten over token columns, by running this module as a script:

    PYTHONPATH=src:tests python tests/test_parse_golden.py

Each row names one input and holds a digest of it (`input`, the first 16 hex
digits of the sha256 of its UTF-8 bytes, so a change in how inputs are made
shows as such) and what the parser made of it: `ast`, the sha256 of
`ast_json(parse(s))`, which holds every node's `pos`; `type`, the
`pretty_type` of `parse_type(s)`; or `error`, the `ParseError`'s message,
line, column and expected tokens. The inputs are all made from seeds:

- the 14 corpus programs;
- `astgen` trees through `pretty` (seeds 0-499, depth 1 + seed % 5);
- one to three seeded token mutations of such a text (delete, repeat,
  swap, or replace a token with one from `_TOKENS`), and one to three
  character mutations (delete, or insert or replace with one of `_CHARS`);
- byte mutations, parsed as bytes, which are mostly invalid UTF-8;
- `astgen` types and token mutations of them through `parse_type`;
- the `_HAND` inputs, at least one for each place that raises a
  `ParseError`.

Every row is parsed with the integer digit limit at Python's default of
4,300, so the digit-limit rows do not depend on `PYTHONINTMAXSTRDIGITS`.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from pathlib import Path

from rescheck import ParseError, parse, parse_type, pretty, pretty_type
from rescheck.cli import ast_json
from rescheck.harness import default_corpus_dir

import astgen

GOLDEN = Path(__file__).with_name("parse_golden.json")
TREES = 500
MUTANTS = 600
BYTE_MUTANTS = 40
TYPES = 80
DIGITS = 4300

_TOKENS = [
    "let", "if", "else", "while", "for", "in", "to", "ref", "true", "false",
    "low", "high", "x", "f1", "0", "-", "17", "(", ")", "{", "}", ";", ":",
    "=", ":=", "==", "=>", "->", "@", "!", "+", "*", "/", "<", ">", "\n",
    "_a", "²", "$", "1" * (DIGITS + 1),
]
_CHARS = ["\n", ";", "(", ")", "{", "}", ":", "=", "-", ">", "@", "!", " ", "\t",
          "\r", "/", "1", "a", "²", "_", "#", "é", "\xa0"]
_WORD = re.compile(r"\w+|==|=>|:=|->|//|\S|\s+")

_HAND = [
    "let x = 1 +",                   # atom: eof where an expression goes
    "let = 3",                       # expect: an ident
    "let x: ref low = 1",            # let annotation
    "let x: (low -> low @ ()) = 1",  # let annotation on '('
    "1 2 )",                         # statement separator
    "{ 1 2",                         # expect: '}' at eof
    "if x { 1 } 2",                  # expect: 'else'
    "(x: lowx) => x",                # type
    "(x: (low -> high) @ low) => x", # expect: '@'
    "1 $ 2",                         # unexpected character
    "x\nx + " + "1" * (DIGITS + 1),  # digit limit
    "1" * DIGITS,                    # the longest literal
    "- x",                           # expect: a number after '-'
    "ref (1",                        # expect: ')'
    "for i in 0 to 3 { i }; for in", # expect: an ident after 'for'
    "(\n1\n+\n2\n)\n\n",             # newlines inside parentheses
    "a // comment\r\n; b",           # comment and carriage return
    "f x y + !r * -3 == g (h 1)",    # application, deref, negative literal
    "",                              # nothing at all
]
_HAND_BYTES = [b"\xff", b"let x = \xc3", b"1 +\n\x80"]
_HAND_TYPES = ["low", "(low -> ref high @ ())", "()", "ref", "(low -> low)", "low high",
               "\n(ref low -> high @ high)\n", "int"]


def _tokens(rng: random.Random, text: str) -> str:
    toks = _WORD.findall(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(toks)) if toks else 0
        match rng.randrange(4) if toks else 3:
            case 0:
                del toks[i]
            case 1:
                toks.insert(i, toks[i])
            case 2:
                j = min(i + 1, len(toks) - 1)
                toks[i], toks[j] = toks[j], toks[i]
            case _:
                toks[i:i + 1] = [rng.choice(_TOKENS), " "]
    return "".join(toks)


def _chars(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        match rng.randrange(3) if chars else 1:
            case 0:
                del chars[min(i, len(chars) - 1)]
            case 1:
                chars.insert(i, rng.choice(_CHARS))
            case _:
                chars[min(i, len(chars) - 1)] = rng.choice(_CHARS)
    return "".join(chars)


def _bytes(rng: random.Random, text: str) -> bytes:
    data = bytearray(text.encode("utf-8"))
    data.insert(rng.randrange(len(data) + 1), rng.choice([0xFF, 0xC3, 0x80, 0xE2, 0x41]))
    return bytes(data)


def tree_text(seed: int) -> str:
    return pretty(astgen.gen_expr(random.Random(seed), 1 + seed % 5))


def type_text(seed: int) -> str:
    return pretty_type(astgen.gen_type(random.Random(seed), 3))


def inputs():
    """Every (name, entry point, source) row, in file order."""
    for path in sorted(Path(default_corpus_dir()).glob("*.resc")):
        yield f"corpus/{path.name}", parse, path.read_text()
    for s in range(TREES):
        yield f"astgen/{s}", parse, tree_text(s)
    for s in range(MUTANTS):
        rng = random.Random(s)
        yield f"tokens/{s}", parse, _tokens(rng, tree_text(s % TREES))
    for s in range(MUTANTS):
        rng = random.Random(-1 - s)
        yield f"chars/{s}", parse, _chars(rng, tree_text(s % TREES))
    for s in range(BYTE_MUTANTS):
        yield f"bytes/{s}", parse, _bytes(random.Random(s), tree_text(s))
    for s in range(TYPES):
        yield f"type/{s}", parse_type, type_text(s)
        yield f"type-tokens/{s}", parse_type, _tokens(random.Random(s), type_text(s))
    for i, text in enumerate(_HAND):
        yield f"hand/{i}", parse, text
    for i, data in enumerate(_HAND_BYTES):
        yield f"hand-bytes/{i}", parse, data
    for i, text in enumerate(_HAND_TYPES):
        yield f"hand-type/{i}", parse_type, text


def _sha(data: str | bytes) -> str:
    raw = data if isinstance(data, bytes) else data.encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


def outcome(entry, source: str | bytes) -> dict:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGITS)
    try:
        got = entry(source)
    except ParseError as err:
        return {"error": [err.message, err.line, err.col, list(err.expected)]}
    finally:
        sys.set_int_max_str_digits(limit)
    if entry is parse_type:
        return {"type": pretty_type(got)}
    return {"ast": _sha(json.dumps(ast_json(got), ensure_ascii=False))}


def build_rows() -> list[dict]:
    return [
        {"name": name, "input": _sha(source)[:16], **outcome(entry, source)}
        for name, entry, source in inputs()
    ]


def test_every_input_keeps_its_tree_or_error():
    rows = json.loads(GOLDEN.read_text())
    made = list(inputs())
    assert [r["name"] for r in rows] == [name for name, _, _ in made]
    for row, (name, entry, source) in zip(rows, made):
        assert row["input"] == _sha(source)[:16], f"{name}: the input itself changed"
        assert {"name": name, "input": row["input"], **outcome(entry, source)} == row


def test_rows_reach_every_parse_error():
    """One row or more for each message a ParseError can carry."""
    messages = {r["error"][0] for r in json.loads(GOLDEN.read_text()) if "error" in r}
    kinds = [
        r"expected '[^']+' but found .+",          # _Parser.expect
        r"unexpected (?!character ).+",            # a missing statement separator
        r"let annotations must be 'low' or 'high'",
        r"expected an expression but found .+",
        r"expected a type but found .+",
        r"unexpected character .+",
        rf"integer literal longer than {DIGITS} digits",
        r"invalid UTF-8 input: .+",
    ]
    for kind in kinds:
        assert any(re.fullmatch(kind, m) for m in messages), kind
    assert not [m for m in messages if not any(re.fullmatch(k, m) for k in kinds)]


def test_rows_mix_trees_and_errors():
    rows = json.loads(GOLDEN.read_text())
    assert len(rows) > 1900
    errors = sum("error" in r for r in rows)
    assert 0.2 < errors / len(rows) < 0.6


if __name__ == "__main__":
    rows = (json.dumps(r, ensure_ascii=False) for r in build_rows())
    GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n")
