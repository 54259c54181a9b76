#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny sizes. Takes about a minute.

    python3 bench/selftest.py

Checks that each workload emits every metric BENCHMARK.json names, untraced
and traced; that inputs depend on the seed alone; that a deliberately wrong
expected answer shows up as a failed op; and that a copy of the benchmark
without the program's sources exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, root: Path = ROOT) -> tuple[int, list[str]]:
    argv = [sys.executable, str(root / "bench" / "run.py"), "--seconds", "0.3", *args]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=root)
    return proc.returncode, proc.stdout.rstrip("\n").split("\n")


def result(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def digest(lines: list[str]) -> str:
    return next(re.search(r"sha256 (\w+)", x).group(1) for x in lines if x.startswith("inputs:"))


def expect(cond: bool, what: str, problems: list[str]) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        problems.append(what)


def main() -> int:
    problems: list[str] = []
    kinds = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
    for w in (x["name"] for x in SPEC["workloads"]):
        digests = []
        for trace, specs in kinds.items():
            rc, lines = bench("--workload", w, "--seed", "5", "--trace", str(trace), "--tiny")
            expect(rc == 0, f"{w} --trace {trace}: exit 0 (got {rc})", problems)
            if rc != 0:
                continue
            r = result(lines)
            want = {m["name"]: m["unit"] for m in specs}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(got == want, f"{w} --trace {trace}: emits every metric with its unit", problems)
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                   f"{w} --trace {trace}: all {r['attempted']} ops correct", problems)
            digests.append(digest(lines))
        rc, lines = bench("--workload", w, "--seed", "6", "--tiny", "--corrupt-answers")
        r = result(lines)
        expect(rc == 0 and r["failed"] > 0 and not r["correct"],
               f"{w}: wrong expected answers fail {r['failed']} of {r['attempted']} ops", problems)
        share = next(x for x in lines if x.startswith("failed_share"))
        expect(not share.startswith("failed_share = 0.000000"), f"{w}: {share}", problems)
        expect(len(set(digests)) == 1 and digest(lines) not in digests,
               f"{w}: same seed, same inputs; another seed, other inputs", problems)

    rc, lines = bench("--workload", "all", "--seed", "5", "--tiny")
    r = result(lines) if rc == 0 else {"metrics": {}}
    expect(rc == 0 and len(r["metrics"]) == len(SPEC["workloads"]) * len(SPEC["end_to_end"]),
           "--workload all reports every workload", problems)

    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "bench")
    rc, lines = bench("--workload", "nitest", "--seed", "1", root=bare)
    shutil.rmtree(bare)
    expect(rc != 0 and not any(x.startswith("{") for x in lines),
           f"without src/: exit {rc} and no result line", problems)

    print("self-test " + ("passed" if not problems else f"FAILED: {len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
