"""The command line's bytes, pinned: a change that means to keep them must.

`cli_golden.json` holds, for each corpus file and each of `check`,
`check --json`, `check --trace`, `parse`, `parse --json` and `run`, the
exit code, stdout and stderr, with the corpus directory taken out of every
path. It also holds the stdout of `nitest --json --trials 300 --corpus` at
seeds 1, 7 and 42. (`check --json --trace` is pinned by
`check_trace_golden.json`.) It is written by running this module as a
script:

    PYTHONPATH=src:tests python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from rescheck.cli import main
from rescheck.harness import default_corpus_dir

GOLDEN = Path(__file__).with_name("cli_golden.json")
CORPUS = sorted(p.name for p in default_corpus_dir().glob("*.resc"))
COMMANDS = {
    "check": ["check"],
    "check-json": ["check", "--json"],
    "check-trace": ["check", "--trace"],
    "parse": ["parse"],
    "parse-json": ["parse", "--json"],
    "run": ["run"],
}
SEEDS = (1, 7, 42)


def call(argv: list[str]) -> dict:
    """`main(argv)`'s exit code, stdout and stderr, without the corpus directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    strip = str(default_corpus_dir()) + "/"
    return {
        "exit": code,
        "stdout": out.getvalue().replace(strip, ""),
        "stderr": err.getvalue().replace(strip, ""),
    }


def file_row(name: str) -> dict:
    path = str(default_corpus_dir() / name)
    return {key: call([*argv, path]) for key, argv in COMMANDS.items()}


def nitest_row(seed: int) -> str:
    return call(["nitest", "--json", "--trials", "300", "--corpus", "--seed", str(seed)])["stdout"]


def golden_rows() -> dict:
    return {
        "files": {name: file_row(name) for name in CORPUS},
        "nitest": {str(seed): nitest_row(seed) for seed in SEEDS},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_corpus(golden):
    assert len(CORPUS) == 14
    assert sorted(golden["files"]) == CORPUS
    assert sorted(golden["nitest"]) == sorted(map(str, SEEDS))


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_file_matches_golden(name, golden):
    assert file_row(name) == golden["files"][name]


@pytest.mark.parametrize("seed", SEEDS)
def test_nitest_matches_golden(seed, golden):
    assert nitest_row(seed) == golden["nitest"][str(seed)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_rows(), indent=1, ensure_ascii=False) + "\n")
