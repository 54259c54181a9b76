"""Command-line interface: subcommands, output formats, exit codes."""

import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rescheck.cli import (
    EXIT_DEPTH_EXCEEDED,
    EXIT_FUEL_EXHAUSTED,
    EXIT_IO_ERROR,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_RUNTIME_FAULT,
    EXIT_TYPE_ERROR,
    EXIT_USAGE,
    EXIT_VIOLATION,
    ast_json,
    main,
)
import rescheck
from rescheck import cli, parse

_SRC = os.pathsep.join(
    filter(None, [str(Path(rescheck.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")])
)

README = Path(__file__).parents[1] / "README.md"

ALIASING = "let l = ref(2)\nlet h = l\nh := 4\n!l"
HIGH_INTO_LOW = "let l = ref(2)\nlet h: high = 4\nl := h"


@pytest.fixture
def src(tmp_path):
    def write(text, name="prog.resc"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


class TestCheck:
    def test_ok_human(self, src, capsys):
        assert main(["check", src("2 + 2")]) == EXIT_OK
        assert capsys.readouterr().out == "ok: Low @ ()\n"

    def test_ok_lists_bindings(self, src, capsys):
        assert main(["check", src("let h: high = 2")]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "ok: Low @ High"
        assert out[1] == "  h : High"

    def test_ok_json(self, src, capsys):
        assert main(["check", "--json", src("let h: high = 2")]) == EXIT_OK
        got = json.loads(capsys.readouterr().out)
        assert got == {
            "status": "ok",
            "type": "low",
            "effect": "high",
            "env": {"h": "high"},
        }

    def test_trace_human(self, src, capsys):
        assert main(["check", "--trace", src("1 + 2")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "(Bop) 1 + 2  =>  Low @ ()" in out
        assert "(Num) 1  =>  Low @ ()" in out

    def test_type_error(self, src, capsys):
        path = src(HIGH_INTO_LOW)
        assert main(["check", path]) == EXIT_TYPE_ERROR
        err = capsys.readouterr().err
        assert f"{path}: type error: (Reassign) requires t3 ⊒ t1 at 3:1" in err

    def test_type_error_trace_human(self, tmp_path, monkeypatch, capsys):
        # README's leak: the error line, then the path to the failing rule
        monkeypatch.chdir(tmp_path)
        Path("leak.resc").write_text(readme_block("text", "let out = ref(0)"))
        assert main(["check", "--trace", "leak.resc"]) == EXIT_TYPE_ERROR
        leak = "if secret < 10 { out := 1 } else { out := 0 }"
        assert capsys.readouterr() == (
            "",
            "leak.resc: type error: (Reassign) requires t3 ⊒ pc at 3:18\n"
            "  (Seq) let secret: high = 7; …\n"
            "  (Seq) let out = ref(0); …\n"
            f"  (If-Else) {leak}\n"
            "  (Reassign) out := 1  =>  failed: t3 ⊒ pc\n",
        )

    def test_type_error_json_with_trace(self, src, capsys):
        assert main(["check", "--json", "--trace", src(HIGH_INTO_LOW)]) == EXIT_TYPE_ERROR
        got = json.loads(capsys.readouterr().out)
        assert got["status"] == "error"
        assert got["error"]["rule"] == "Reassign"
        assert got["trace"][-1]["result"].startswith("failed:")

    def test_parse_error(self, src, capsys):
        path = src("let = 3")
        assert main(["check", path]) == EXIT_PARSE_ERROR
        assert f"{path}:1:5: parse error:" in capsys.readouterr().err

    def test_parse_error_json(self, src, capsys):
        assert main(["check", "--json", src("let = 3")]) == EXIT_PARSE_ERROR
        got = json.loads(capsys.readouterr().out)
        assert got["status"] == "error"
        assert got["error"]["kind"] == "parse"
        assert got["error"]["line"] == 1

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/x.resc"]) == EXIT_IO_ERROR
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "parse"])
    @pytest.mark.parametrize(
        "make, reason",
        [(lambda d: d / "missing.resc", "No such file or directory"), (lambda d: d, "Is a directory")],
        ids=["missing file", "directory"],
    )
    def test_unreadable_path_json(self, tmp_path, capsys, command, make, reason):
        path = str(make(tmp_path))
        assert main([command, "--json", path]) == EXIT_IO_ERROR
        captured = capsys.readouterr()
        message = f"cannot read {path}: {reason}"
        assert json.loads(captured.out) == {
            "status": "error",
            "error": {"kind": "io", "message": message},
        }
        assert captured.err == f"error: {message}\n"


class TestRun:
    def test_value_and_store(self, src, capsys):
        assert main(["run", src(ALIASING)]) == EXIT_OK
        assert capsys.readouterr().out == "value: 4\nstore:\n  ℓ0 ↦ 4\n"

    def test_pure_program_prints_no_store(self, src, capsys):
        assert main(["run", src("1 + 2")]) == EXIT_OK
        assert capsys.readouterr().out == "value: 3\n"

    def test_type_errors_block_evaluation(self, src, capsys):
        assert main(["run", src(HIGH_INTO_LOW)]) == EXIT_TYPE_ERROR
        captured = capsys.readouterr()
        assert "type error" in captured.err
        assert captured.out == ""

    def test_unsafe_skips_the_checker(self, src, capsys):
        assert main(["run", "--unsafe", src(HIGH_INTO_LOW)]) == EXIT_OK
        assert capsys.readouterr().out == "value: unit\nstore:\n  ℓ0 ↦ 4\n"

    def test_runtime_fault(self, src, capsys):
        path = src("1 / 0")
        assert main(["run", path]) == EXIT_RUNTIME_FAULT
        assert f"{path}: runtime fault: DivByZero at 1:1" in capsys.readouterr().err

    def test_fuel_exhaustion(self, src, capsys):
        assert main(["run", "--fuel", "10", src("while true { () }")]) == EXIT_FUEL_EXHAUSTED
        assert "fuel exhausted after 10 steps" in capsys.readouterr().err

    def test_nesting_too_deep(self, src, capsys):
        path = src("0" + " + 1" * 3000)
        assert main(["run", "--unsafe", path]) == EXIT_DEPTH_EXCEEDED == 7
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: nesting too deep (limit 2500)\n"

    def test_straight_line_code_past_the_depth_limit(self, src, capsys):
        # every statement of a chain runs one level below it, so straight-line
        # code is never too deep: 6,000 lets and a read cost 18,001 steps
        path = src("\n".join(f"let x{i} = {i}" for i in range(6000)) + "\nx0")
        assert main(["run", "--unsafe", "--fuel", "20000", path]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == "value: 0\n"
        assert captured.err == ""

    def test_non_decimal_digit_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "sup.resc"
        path.write_bytes("²".encode())
        assert main(["run", str(path)]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}:1:1: parse error: unexpected character '²'\n"

    def test_overlong_integer_literal_is_a_parse_error(self, src, capsys):
        path = src("let x = " + "1" * 5000)
        assert main(["run", path]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "parse error: integer literal longer than 4300 digits"
        assert captured.err == f"{path}:1:9: {message}\n"

    def test_prints_integers_of_any_length(self, src, capsys):
        nines = "9" * 4000
        assert main(["run", src(f"{nines} * {nines}")]) == EXIT_OK
        # (10^4000 - 1)^2 = 10^8000 - 2 * 10^4000 + 1
        expected = "9" * 3999 + "8" + "0" * 3999 + "1"
        assert capsys.readouterr().out == f"value: {expected}\n"

    @pytest.mark.parametrize(
        "text, code, out, err",
        [
            ("1" * 1000, EXIT_PARSE_ERROR, "", "1:1: parse error: integer literal longer than 640 digits\n"),
            # (10^500 - 1)^2 = 10^1000 - 2 * 10^500 + 1
            (f"let x = {'9' * 500}\nx * x", EXIT_OK, f"value: {'9' * 499}8{'0' * 499}1\n", ""),
        ],
        ids=["overlong literal", "long product"],
    )
    def test_integer_digits_follow_the_process_limit(self, src, text, code, out, err):
        path = src(text)
        env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640", "PYTHONPATH": _SRC}
        done = subprocess.run(
            [sys.executable, "-m", "rescheck.cli", "run", path],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout) == (code, out)
        assert done.stderr == (f"{path}:{err}" if err else "")

    def test_unsafe_runtime_fault_without_types(self, src, capsys):
        assert main(["run", "--unsafe", src("true + 1")]) == EXIT_RUNTIME_FAULT
        assert "NotAnInt" in capsys.readouterr().err


class TestParse:
    def test_pretty_echo(self, src, capsys):
        assert main(["parse", src("let x=1\nx  +  2")]) == EXIT_OK
        assert capsys.readouterr().out == "let x = 1\nx + 2\n"

    def test_json_tree(self, src, capsys):
        assert main(["parse", "--json", src("!r")]) == EXIT_OK
        got = json.loads(capsys.readouterr().out)
        assert got["status"] == "ok"
        assert got["ast"]["node"] == "Deref"
        assert got["ast"]["name"] == "r"
        assert got["ast"]["pos"] == {"line": 1, "col": 1}

    def test_parse_error_exit(self, src):
        assert main(["parse", src("((")]) == EXIT_PARSE_ERROR


def straight_line(n: int) -> str:
    """n statements: lets, annotated lets and assignments, then a read."""
    lines = ["let r = ref(0)"]
    for k in range(1, n - 1):
        lines.append([f"let v{k} = {k} + 1", f"let h{k}: high = {k}", f"r := {k}"][k % 3])
    return "\n".join(lines + ["!r"])


class TestLongChains:
    """Statement chains are walked with loops, so their length is bounded by
    no recursion limit, and the evaluator runs a whole chain one level deep."""

    @pytest.mark.parametrize(
        "args", [["check"], ["check", "--json"], ["check", "--trace"], ["check", "--json", "--trace"]]
    )
    def test_ten_thousand_statements_check(self, src, capsys, args):
        path = src(straight_line(10_000))
        started = time.perf_counter()
        assert main([*args, path]) == EXIT_OK
        took = time.perf_counter() - started
        assert took < 5.0, f"{args} took {took:.2f}s, budget 5s"
        assert "ok" in capsys.readouterr().out

    def test_trace_grows_linearly(self, src, capsys):
        # A chain frame shows its own statement, not the rest of the chain.
        sizes = []
        for n in (1000, 2000):
            assert main(["check", "--json", "--trace", src(straight_line(n), f"s{n}.resc")]) == EXIT_OK
            sizes.append(len(capsys.readouterr().out.encode()))
        assert sizes[1] <= 2.1 * sizes[0], sizes

    @pytest.mark.parametrize(
        "args", [["parse"], ["check"], ["check", "--trace"], ["run"]], ids=" ".join
    )
    def test_long_block_inside_if(self, src, capsys, args):
        block = "\n".join(straight_line(800).splitlines()[1:])
        path = src(f"let r = ref(0)\nif !r < 1 {{\n{block}\n}} else {{ 0 }}")
        assert main([*args, path]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        if args == ["parse"]:
            assert captured.out.startswith("let r = ref(0)\nif !r < 1 { let h1: high = 1; r := 2; let v3")
            assert captured.out.endswith("; let v798 = 798 + 1; !r } else { 0 }\n")
            assert main(["parse", src(captured.out, "echo.resc")]) == EXIT_OK
            assert capsys.readouterr().out == captured.out


class TestNestingReach:
    """How deep a left-deep `+` chain goes under Python's default recursion
    limit. The parser, the checker and the renderer recurse down `lhs`. Under
    pytest 475 terms pass and 480 fail; this pins 450 so that none of them
    lowers the reach."""

    @pytest.mark.parametrize(
        "args", [["parse"], ["check"], ["check", "--trace"], ["check", "--json", "--trace"]],
        ids=" ".join,
    )
    def test_left_deep_sum_of_450_terms(self, src, capsys, args):
        assert sys.getrecursionlimit() == 1000
        assert main([*args, src("0" + " + 1" * 449)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        if args == ["parse"]:
            assert captured.out == "0" + " + 1" * 449 + "\n"


class TestAstJson:
    def test_every_form_serialises(self):
        srcs = [
            "3", "true", "()", "x", "1 + 2", "let x: low = 1",
            "if b { 1 } else { 2 }", "while b { () }",
            "for i in 1 to 2 { i }", "1; 2", "(x: low) => x",
            "f 1", "ref(1)", "!r", "r := 1",
        ]
        for s in srcs:
            out = ast_json(parse(s))
            assert out["node"]
            json.dumps(out)  # must be JSON-serialisable

    def test_annotations_render_in_type_syntax(self):
        out = ast_json(parse("(f: (low -> high @ ())) => f"))
        assert out["annot"] == "(low -> high @ ())"
        out = ast_json(parse("let x = 1"))
        assert out["annot"] is None

    def test_exact_tree_with_key_order(self):
        def at(line, col):
            return {"line": line, "col": col}

        want = {
            "node": "If",
            "cond": {"node": "Var", "name": "b", "pos": at(1, 4)},
            "then": {
                "node": "Bop",
                "op": "+",
                "lhs": {"node": "Num", "literal": "1", "pos": at(1, 8)},
                "rhs": {"node": "Num", "literal": "2", "pos": at(1, 12)},
                "pos": at(1, 8),
            },
            "else": {
                "node": "Func",
                "param": "x",
                "annot": "low",
                "body": {"node": "Var", "name": "x", "pos": at(1, 35)},
                "pos": at(1, 23),
            },
            "pos": at(1, 1),
        }
        out = ast_json(parse("if b { 1 + 2 } else { (x: low) => x }"))
        assert json.dumps(out) == json.dumps(want)  # dict order included


class TestNitest:
    def test_zero_trials_pass(self, capsys):
        assert main(["nitest", "--trials", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "suite soundness: trials=0" in out
        assert out.rstrip().endswith("result: ok")

    def test_single_suite_selection(self, capsys):
        assert main(["nitest", "--trials", "2", "--suite", "lemma2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "suite lemma2" in out
        assert "suite soundness" not in out

    def test_json_report_shape(self, capsys):
        assert main(["nitest", "--trials", "2", "--seed", "3", "--json"]) == EXIT_OK
        got = json.loads(capsys.readouterr().out)
        assert got["seed"] == 3
        assert got["trials"] == 2
        assert got["ok"] is True
        assert [s["suite"] for s in got["suites"]] == [
            "soundness", "lemma1", "lemma2", "lemma5",
        ]

    def test_reports_are_reproducible(self, capsys):
        args = ["nitest", "--trials", "5", "--seed", "7", "--json"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("IFC_SEED", "9")
        assert main(["nitest", "--trials", "1", "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["seed"] == 9

    def test_seed_env_is_read_by_each_call(self, capsys, monkeypatch):
        seeds = []
        for value in ("9", "11"):
            monkeypatch.setenv("IFC_SEED", value)
            assert main(["nitest", "--trials", "1", "--json"]) == EXIT_OK
            seeds.append(json.loads(capsys.readouterr().out)["seed"])
        assert seeds == [9, 11]

    def test_the_parser_is_built_once_per_process(self, capsys, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        assert main(["nitest", "--trials", "0"]) == EXIT_OK
        assert main(["nitest", "--trials", "0", "--json"]) == EXIT_OK
        assert len(builds) == 1

    def test_a_bad_seed_env_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("IFC_SEED", "abc")
        assert main(["nitest", "--trials", "1"]) == EXIT_USAGE == 2
        assert capsys.readouterr() == (
            "", "rescheck nitest: error: IFC_SEED must be an integer, got 'abc'\n"
        )
        assert main(["nitest", "--trials", "1", "--seed", "4", "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["seed"] == 4

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("IFC_SEED", "9")
        assert main(["nitest", "--trials", "1", "--seed", "4", "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["seed"] == 4

    def test_bundled_corpus_passes(self, capsys):
        assert main(["nitest", "--trials", "0", "--corpus", "--json"]) == EXIT_OK
        got = json.loads(capsys.readouterr().out)
        assert got["corpus"]["ok"] is True
        assert len(got["corpus"]["rows"]) == 14

    def test_corpus_failure_sets_the_violation_exit(self, tmp_path, capsys):
        (tmp_path / "expectations.json").write_text(
            json.dumps({"p.resc": {"verdict": "reject"}})
        )
        (tmp_path / "p.resc").write_text("1")
        code = main(["nitest", "--trials", "0", "--corpus", str(tmp_path)])
        assert code == EXIT_VIOLATION
        assert "VIOLATIONS FOUND" in capsys.readouterr().out

    def test_an_unreadable_corpus_file_is_a_mismatch(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "expectations.json").write_text(json.dumps({"p.resc": {"verdict": "accept"}}))
        (tmp_path / "p.resc").write_text("1")

        def deny(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(Path, "read_bytes", deny)
        code = main(["nitest", "--trials", "0", "--corpus", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == EXIT_VIOLATION
        assert out.splitlines()[-2:] == [
            "MISMATCH p.resc: expected accept, got unreadable",
            "result: VIOLATIONS FOUND",
        ]
        assert err == ""

    def test_readme_example_is_current(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        cmd = "$ rescheck nitest --trials 50 --seed 7\n"
        start = readme.index(cmd) + len(cmd)
        shown = readme[start : readme.index("```", start)]
        assert main(["nitest", "--trials", "50", "--seed", "7"]) == EXIT_OK
        assert capsys.readouterr().out == shown

    def test_fuel_is_forwarded(self, capsys):
        assert main(["nitest", "--trials", "1", "--fuel", "3", "--json"]) == EXIT_OK
        got = json.loads(capsys.readouterr().out)
        assert got["fuel"] == 3

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize(
        "manifest, message",
        [
            (None, "cannot read {path}: No such file or directory"),
            ('{"p.resc": {"verdict": "accept"}', "{path}: not valid JSON: "),
            ('{"p.resc": {"rule": "Var"}}', "{path}: entry 'p.resc' has no \"verdict\""),
            ('["p.resc"]', "{path}: expected an object of entries by file name"),
        ],
        ids=["missing directory", "malformed json", "entry without verdict", "not an object"],
    )
    def test_a_bad_corpus_is_an_io_error(self, tmp_path, capsys, manifest, message, json_flag):
        corpus = tmp_path / "corpus"
        if manifest is not None:
            corpus.mkdir()
            (corpus / "expectations.json").write_text(manifest)
        argv = ["nitest", "--trials", "0", "--corpus", str(corpus), *json_flag]
        assert main(argv) == EXIT_IO_ERROR == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: " + message.format(path=corpus / "expectations.json"))


def readme_block(lang: str, containing: str) -> str:
    """The body of the one ```lang block of README.md that contains the text."""
    blocks = re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)
    (body,) = [b for b in blocks if containing in b]
    return body


def replay(session: str, capsys) -> None:
    """Run a README console session: each `$ rescheck ...` through main, with
    its shown output on stdout when it exits 0 and on stderr otherwise;
    `$ echo $?` shows the last exit code; `$ echo 'text' > file` writes."""
    code = None
    for cmd in re.split(r"^\$ ", session, flags=re.M)[1:]:
        line, _, shown = cmd.partition("\n")
        shown = shown.rstrip("\n") + "\n" if shown.strip() else ""
        argv = shlex.split(line)
        if argv == ["echo", "$?"]:
            assert shown == f"{code}\n"
        elif argv[0] == "echo":
            text, redirect, path = argv[1:]
            assert redirect == ">" and shown == ""
            Path(path).write_text(text + "\n")
        else:
            assert argv[0] == "rescheck", line
            code = main(argv[1:])
            out, err = capsys.readouterr()
            assert (out, err) == ((shown, "") if code == EXIT_OK else ("", shown)), line


class TestReadme:
    """README's examples, run from README's own text."""

    @pytest.mark.parametrize(
        "files, session",
        [
            ({"demo.resc": "// demo.resc:"}, "$ rescheck check demo.resc"),
            ({"leak.resc": "let out = ref(0)"}, "$ rescheck check leak.resc"),
            ({}, "$ rescheck check --trace one.resc"),
        ],
        ids=["quick start", "leak", "trace"],
    )
    def test_console_session_is_current(self, files, session, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for name, marker in files.items():
            Path(name).write_text(readme_block("text", marker))
        replay(readme_block("console", session), capsys)

    def test_library_snippet_shows_current_values(self):
        snippet = readme_block("python", "run_program(")
        scope: dict = {}
        exec(snippet, scope)
        shown = dict(re.findall(r"^(\w+) = .*?# (.*)$", snippet, re.M))
        assert shown.keys() == {"j", "out"}
        for name, text in shown.items():
            pattern = re.escape(text).replace(re.escape("..."), ".*")
            assert re.fullmatch(pattern, repr(scope[name])), (name, repr(scope[name]))


class TestCounts:
    """--trials and --fuel take an integer of 0 or more; anything else is bad usage."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--fuel", "{n}", "{path}"],
            ["nitest", "--fuel", "{n}", "--trials", "0"],
            ["nitest", "--trials", "{n}", "--json"],
        ],
        ids=["run --fuel", "nitest --fuel", "nitest --trials"],
    )
    @pytest.mark.parametrize("n", ["-3", "-1", "x", "1.5"])
    def test_a_bad_count_is_a_usage_error(self, src, capsys, argv, n):
        argv = [a.format(n=n, path=src("1")) for a in argv]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == EXIT_USAGE == 2
        out, err = capsys.readouterr()
        assert out == ""
        flag = argv[argv.index(n) - 1]
        assert f"error: argument {flag}: expected an integer of 0 or more, got '{n}'" in err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["run", "--fuel", "0", "{path}"], EXIT_FUEL_EXHAUSTED),
            (["nitest", "--fuel", "0", "--trials", "1"], EXIT_OK),
            (["nitest", "--trials", "0"], EXIT_OK),
        ],
        ids=["run --fuel", "nitest --fuel", "nitest --trials"],
    )
    def test_zero_is_allowed(self, src, capsys, argv, code):
        assert main([a.format(path=src("1 + 1")) for a in argv]) == code


class TestClosedStdout:
    """A reader that stops early ends the command with exit 3, not a traceback."""

    # how the first line each command writes starts
    FIRST_LINE = {
        "parse": b"let r = ref(0)",
        "check --trace": b"ok: Low @ Low",
        "check --json --trace": b"{\n",
    }

    @pytest.mark.parametrize(
        "args", [["parse"], ["check", "--trace"], ["check", "--json", "--trace"]], ids=" ".join
    )
    def test_closed_pipe_after_one_line(self, src, args):
        path = src(straight_line(10_000))
        env = {**os.environ, "PYTHONPATH": _SRC}
        proc = subprocess.Popen(
            [sys.executable, "-m", "rescheck", *args, path],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_IO_ERROR == 3
        assert first.startswith(self.FIRST_LINE[" ".join(args)])
        assert err == ""  # no traceback


class TestModule:
    """`python -m rescheck` behaves as the `rescheck` entry point, `cli:main`."""

    ENTRY = "import sys; from rescheck.cli import main; sys.exit(main())"

    @pytest.mark.parametrize(
        "args, code",
        [
            (["check", "{ok}"], EXIT_OK),
            (["check", "--trace", "{leak}"], EXIT_TYPE_ERROR),
            (["nitest", "--bogus"], EXIT_USAGE),
        ],
        ids=["ok", "type error", "usage error"],
    )
    def test_module_runs_the_entry_point(self, src, args, code):
        files = {"ok": src("let x = 1\nx + 2", "ok.resc"), "leak": src(HIGH_INTO_LOW, "leak.resc")}
        args = [a.format(**files) for a in args]
        env = {**os.environ, "PYTHONPATH": _SRC}
        runs = [
            subprocess.run(
                [sys.executable, *how, *args], env=env, capture_output=True, text=True, timeout=60
            )
            for how in (["-m", "rescheck"], ["-c", self.ENTRY])
        ]
        module, entry = [(r.returncode, r.stdout, r.stderr) for r in runs]
        assert module == entry
        assert module[0] == code
        assert module[1 if code == EXIT_OK else 2]
