"""Command-line interface: subcommands, output formats, exit codes."""

import json
from pathlib import Path

import pytest

from rescheck.cli import (
    EXIT_FUEL_EXHAUSTED,
    EXIT_IO_ERROR,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_RUNTIME_FAULT,
    EXIT_TYPE_ERROR,
    EXIT_VIOLATION,
    ast_json,
    main,
)
from rescheck import parse

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
