"""Command-line front end.

Subcommands: `check` (typecheck a file), `run` (typecheck then evaluate),
`nitest` (randomized non-interference testing plus corpus regression), and
`parse` (parse and echo). Exit codes are stable so scripts can branch on
them; see the EXIT_* constants.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .harness import GenConfig, SUITES, run_corpus, run_suite
from .interpreter import (
    FuelExhausted,
    Ok,
    RuntimeFault,
    pretty_value,
    run_program,
)
from .parser import ParseError, parse
from .syntax import LOW, BinOp, Expr, SecType, display_type, pretty, pretty_type
from .typechecker import CheckError, error_json, judgment_json, trace_check

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_PARSE_ERROR = 2
EXIT_IO_ERROR = 3
EXIT_RUNTIME_FAULT = 4
EXIT_FUEL_EXHAUSTED = 5
EXIT_VIOLATION = 6

DEFAULT_FUEL = 10000


def _emit(obj: dict) -> None:
    print(json.dumps(obj, ensure_ascii=False, indent=2))


def _read_source(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as err:
        print(f"error: cannot read {path}: {err.strerror or err}", file=sys.stderr)
        return None


def _parse_source(path: str, as_json: bool):
    source = _read_source(path)
    if source is None:
        return None, EXIT_IO_ERROR
    try:
        return parse(source), EXIT_OK
    except ParseError as err:
        if as_json:
            _emit(
                {
                    "status": "error",
                    "error": {
                        "kind": "parse",
                        "message": err.message,
                        "line": err.line,
                        "col": err.col,
                    },
                }
            )
        else:
            print(f"{path}:{err.line}:{err.col}: parse error: {err.message}", file=sys.stderr)
        return None, EXIT_PARSE_ERROR


def ast_json(e: Expr) -> dict:
    """A plain-dict rendering of the tree, stable across runs.

    Keys are `node`, then the node's fields in declaration order (`If.orelse`
    is written `else`), then `pos` when known.
    """
    out: dict = {"node": type(e).__name__}
    for f in fields(e):
        if f.name == "pos":
            continue
        v = getattr(e, f.name)
        if isinstance(v, Expr):
            v = ast_json(v)
        elif isinstance(v, SecType):
            v = pretty_type(v)
        elif isinstance(v, BinOp):
            v = v.value
        out["else" if f.name == "orelse" else f.name] = v
    if e.pos is not None:
        out["pos"] = {"line": e.pos.line, "col": e.pos.col}
    return out


# Subcommands -----------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    ast, code = _parse_source(args.file, args.json)
    if ast is None:
        return code
    try:
        judgment, trace = trace_check({}, LOW, ast)
    except CheckError as err:
        if args.json:
            _emit(error_json(err, trace=args.trace))
        else:
            print(f"{args.file}: type error: {err}", file=sys.stderr)
            if args.trace:
                for frame in err.trace:
                    print(f"  ({frame.rule}) {frame.expr}  =>  {frame.result}", file=sys.stderr)
        return EXIT_TYPE_ERROR
    if args.json:
        _emit(judgment_json(judgment, trace if args.trace else None))
    else:
        print(f"ok: {judgment.summary()}")
        for name, t in judgment.out_env.items():
            print(f"  {name} : {display_type(t)}")
        if args.trace:
            for frame in trace:
                print(f"  ({frame.rule}) {frame.expr}  =>  {frame.result}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    ast, code = _parse_source(args.file, False)
    if ast is None:
        return code
    if not args.unsafe:
        try:
            trace_check({}, LOW, ast)
        except CheckError as err:
            print(f"{args.file}: type error: {err}", file=sys.stderr)
            return EXIT_TYPE_ERROR
    outcome = run_program(ast, args.fuel)
    match outcome:
        case Ok(value, state):
            print(f"value: {pretty_value(value)}")
            if state.store.data:
                print("store:")
                for loc in sorted(state.store.data):
                    print(f"  ℓ{loc} ↦ {pretty_value(state.store.data[loc])}")
            return EXIT_OK
        case RuntimeFault(kind, at):
            where = f" at {at.line}:{at.col}" if at else ""
            print(f"{args.file}: runtime fault: {kind.value}{where}", file=sys.stderr)
            return EXIT_RUNTIME_FAULT
        case _:
            print(f"{args.file}: fuel exhausted after {args.fuel} steps", file=sys.stderr)
            return EXIT_FUEL_EXHAUSTED


def cmd_parse(args: argparse.Namespace) -> int:
    ast, code = _parse_source(args.file, args.json)
    if ast is None:
        return code
    if args.json:
        _emit({"status": "ok", "ast": ast_json(ast)})
    else:
        print(pretty(ast))
    return EXIT_OK


def cmd_nitest(args: argparse.Namespace) -> int:
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    cfg = GenConfig(rng_seed=args.seed, fuel=args.fuel, trials=args.trials)
    reports = [run_suite(name, cfg) for name in suites]
    corpus = None
    if args.corpus is not None:
        corpus = run_corpus(args.corpus or None)
    violations = sum(len(r.violations) for r in reports)
    failed = violations > 0 or (corpus is not None and not corpus.ok)
    if args.json:
        out = {
            "seed": args.seed,
            "trials": args.trials,
            "fuel": args.fuel,
            "suites": [r.to_json() for r in reports],
        }
        if corpus is not None:
            out["corpus"] = corpus.to_json()
        out["ok"] = not failed
        _emit(out)
    else:
        for r in reports:
            print(r.summary())
        if corpus is not None:
            print(corpus.summary())
        print("result: " + ("VIOLATIONS FOUND" if failed else "ok"))
    return EXIT_VIOLATION if failed else EXIT_OK


# Argument parsing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rescheck",
        description="Security typechecker, reference interpreter and "
        "non-interference test harness for a small ML-like language.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="typecheck a source file")
    p_check.add_argument("file")
    p_check.add_argument("--json", action="store_true", help="machine-readable output")
    p_check.add_argument("--trace", action="store_true", help="include the full derivation")
    p_check.set_defaults(fn=cmd_check)

    p_run = sub.add_parser("run", help="typecheck then evaluate a source file")
    p_run.add_argument("file")
    p_run.add_argument("--fuel", type=int, default=DEFAULT_FUEL, help="step budget")
    p_run.add_argument(
        "--unsafe", action="store_true", help="skip the typechecker and evaluate anyway"
    )
    p_run.set_defaults(fn=cmd_run)

    p_parse = sub.add_parser("parse", help="parse a source file and echo it")
    p_parse.add_argument("file")
    p_parse.add_argument("--json", action="store_true", help="dump the tree as JSON")
    p_parse.set_defaults(fn=cmd_parse)

    p_nitest = sub.add_parser("nitest", help="randomized non-interference testing")
    p_nitest.add_argument("--trials", type=int, default=200, help="trials per suite")
    p_nitest.add_argument(
        "--seed",
        type=int,
        default=int(os.environ.get("IFC_SEED", "42")),
        help="base RNG seed (defaults to $IFC_SEED or 42)",
    )
    p_nitest.add_argument("--fuel", type=int, default=DEFAULT_FUEL, help="step budget per run")
    p_nitest.add_argument(
        "--suite",
        choices=[*SUITES, "all"],
        default="all",
        help="which property to exercise",
    )
    p_nitest.add_argument(
        "--corpus",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="also run the corpus regression (optionally from DIR)",
    )
    p_nitest.add_argument("--json", action="store_true", help="machine-readable report")
    p_nitest.set_defaults(fn=cmd_nitest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
