"""Command-line front end.

Subcommands: `check` (typecheck a file), `run` (typecheck then evaluate),
`nitest` (randomized non-interference testing plus corpus regression), and
`parse` (parse and echo). Exit codes are stable so scripts can branch on
them; see the EXIT_* constants.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import fields

from .harness import CorpusError, GenConfig, SUITES, run_corpus, run_suite
from .interpreter import (
    DEFAULT_FUEL,
    DepthExceeded,
    Ok,
    RuntimeFault,
    pretty_value,
    run_program,
)
from .parser import ParseError, parse
from .syntax import LOW, BinOp, Expr, SecType, display_type, pretty, pretty_type
from .typechecker import CheckError, TraceFrame, error_json, judgment_json, trace_check

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_PARSE_ERROR = 2
EXIT_IO_ERROR = 3
EXIT_RUNTIME_FAULT = 4
EXIT_FUEL_EXHAUSTED = 5
EXIT_VIOLATION = 6
EXIT_DEPTH_EXCEEDED = 7
EXIT_USAGE = 2  # a bad command line or environment: argparse exits 2 for its own usage errors


def _emit(obj: dict) -> None:
    print(json.dumps(obj, ensure_ascii=False, indent=2))


def _parse_source(path: str, as_json: bool):
    try:
        with open(path, "rb") as fh:
            source = fh.read()
    except OSError as err:
        message = f"cannot read {path}: {err.strerror or err}"
        print(f"error: {message}", file=sys.stderr)
        if as_json:
            _emit({"status": "error", "error": {"kind": "io", "message": message}})
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


def _print_trace(frames: list[TraceFrame], out) -> None:
    for frame in frames:
        print(f"  ({frame.rule}) {frame.expr}  =>  {frame.result}", file=out)


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
                _print_trace(err.trace, sys.stderr)
        return EXIT_TYPE_ERROR
    if args.json:
        _emit(judgment_json(judgment, trace if args.trace else None))
    else:
        print(f"ok: {judgment.summary()}")
        for name, t in judgment.out_env.items():
            print(f"  {name} : {display_type(t)}")
        if args.trace:
            _print_trace(trace, sys.stdout)
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
        case DepthExceeded(limit):
            print(f"{args.file}: nesting too deep (limit {limit})", file=sys.stderr)
            return EXIT_DEPTH_EXCEEDED
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
    if args.seed is None:  # read when the command runs: the parser outlives one call
        seed = os.environ.get("IFC_SEED", "42")
        try:
            args.seed = int(seed)
        except ValueError:
            msg = f"IFC_SEED must be an integer, got {seed!r}"
            print(f"rescheck nitest: error: {msg}", file=sys.stderr)
            return EXIT_USAGE
    corpus = None
    if args.corpus is not None:  # before the trials, so a bad corpus fails fast
        try:
            corpus = run_corpus(args.corpus or None)
        except CorpusError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_IO_ERROR
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    cfg = GenConfig(rng_seed=args.seed, fuel=args.fuel)
    reports = [run_suite(name, cfg, args.trials) for name in suites]
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


def _count(text: str) -> int:
    """The argparse type of `--trials` and `--fuel`: an integer, 0 or more."""
    try:
        if (n := int(text)) >= 0:
            return n
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer of 0 or more, got {text!r}")


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
    p_run.add_argument("--fuel", type=_count, default=DEFAULT_FUEL, help="step budget")
    p_run.add_argument(
        "--unsafe", action="store_true", help="skip the typechecker and evaluate anyway"
    )
    p_run.set_defaults(fn=cmd_run)

    p_parse = sub.add_parser("parse", help="parse a source file and echo it")
    p_parse.add_argument("file")
    p_parse.add_argument("--json", action="store_true", help="dump the tree as JSON")
    p_parse.set_defaults(fn=cmd_parse)

    p_nitest = sub.add_parser("nitest", help="randomized non-interference testing")
    p_nitest.add_argument("--trials", type=_count, default=200, help="trials per suite")
    p_nitest.add_argument(
        "--seed",
        type=int,
        help="base RNG seed (defaults to $IFC_SEED or 42)",
    )
    p_nitest.add_argument("--fuel", type=_count, default=DEFAULT_FUEL, help="step budget per run")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # stdout's reader has gone: send what is left to devnull, so the
        # flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
