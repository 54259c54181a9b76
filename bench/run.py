#!/usr/bin/env python3
"""Benchmark for rescheck: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 bench/run.py --workload nitest --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads: `nitest` (randomized NI trials), `check-large` (`rescheck check
--json` on large generated files) and `run-loops` (`rescheck run` on loop
programs). Each runs closed-loop in this one process: one op at a time, no
threads, whole rounds of a fixed op mix until --seconds have passed. Every op
is checked against a known answer built by bench/workloads.py. The program
is imported from src/ next to this directory and driven only through its
public functions.

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
it reports the per-layer metrics of a traced run (see bench/spans.py), whose
spans are written to bench/out/. The last line of stdout is always one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate  # bench/calibrate.py, next to this script
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPS = 5
GENERATION = ("harness.gen_tenv", "harness.gen_program", "harness.gen_states")

# Per-layer metrics of the traced run. Layer time is reported as a share of
# op wall time (self time: nested wrapped calls are subtracted), so a layer a
# workload never calls reads 0 rather than a duration.
LAYER_UNITS = {
    "parser.self_share": "ratio",
    "parser.calls": "count",
    "parser.nodes_per_s": "1/s",
    "parser.recursion_errors": "count",
    "typechecker.self_share": "ratio",
    "typechecker.calls": "count",
    "typechecker.calls_per_op": "1/op",
    "typechecker.nodes_per_s": "1/s",
    "typechecker.reject_calls": "count",
    "typechecker.size_exponent": "1",
    "typechecker.recursion_errors": "count",
    "syntax.pretty_self_share": "ratio",
    "syntax.pretty_calls": "count",
    "lattice.self_share": "ratio",
    "lattice.calls": "count",
    "interpreter.self_share": "ratio",
    "interpreter.calls": "count",
    "interpreter.fuel_exhausted": "count",
    "interpreter.faults": "count",
    "equivalence.self_share": "ratio",
    "equivalence.calls": "count",
    "equivalence.closure_pairs": "count",
    "equivalence.inconclusive_share": "ratio",
    "harness.gen_tenv_self_share": "ratio",
    "harness.gen_program_self_share": "ratio",
    "harness.gen_program_checks": "1/op",
    "harness.gen_states_self_share": "ratio",
    "harness.trial_self_share": "ratio",
    "harness.discard_share.fuel": "ratio",
    "harness.discard_share.runtime": "ratio",
    "cli.render_self_share": "ratio",
    "cli.trace_overhead": "ratio",
    "trace.overhead_ops_per_s": "op/s",
    "trace.spans_per_op": "1/op",
}


def import_program():
    """Import rescheck from SRC afresh and return the package."""
    for name in [m for m in sys.modules if m == "rescheck" or m.startswith("rescheck.")]:
        del sys.modules[name]
    pkg = importlib.import_module("rescheck")
    for sub in ("cli", "harness", "typechecker", "interpreter", "equivalence"):
        importlib.import_module(f"rescheck.{sub}")
    if Path(pkg.__file__).resolve().parent != SRC / "rescheck":
        raise ImportError(f"rescheck was imported from {pkg.__file__}, not {SRC}")
    return pkg


def setup(name: str, seed: int, workdir: Path, tiny: bool):
    """Import plus building the inputs, SETUP_REPS times; the median is setup_s."""
    cal = calibrate.Calibration()
    times, raw = [], []
    for _ in range(SETUP_REPS):
        if workdir.exists():
            shutil.rmtree(workdir)
        cal.sample()
        t0 = time.perf_counter()
        workdir.mkdir(parents=True)
        pkg = import_program()
        w = workloads.WORKLOADS[name](pkg)
        pool = w.build(seed, workdir, tiny)
        raw.append(time.perf_counter() - t0)
        cal.sample()
        times.append(cal.scale(t0, raw[-1]))
    return pkg, w, pool, times, raw


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "rescheck").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "recursion_limit": sys.getrecursionlimit(),
        "commit": commit,
        "source_sha256": src.hexdigest()[:16],
    }


def measure(w, pool, seconds: float, call=None, corrupt: bool = False) -> dict:
    """Closed loop over whole rounds of the pool until `seconds` have passed.
    Any exception, RecursionError included, fails the op; none is retried.
    Latencies are at reference speed (bench/calibrate.py); `wall` keeps the
    unscaled ones."""
    call = call or w.call
    cal = calibrate.Calibration()
    timed, sizes, failures = [], [], []
    attempted, i = 0, 0
    cal.sample()
    deadline = time.perf_counter() + seconds
    while True:
        for op in pool.rounds[i % len(pool.rounds)]:
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = call(op)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                failures.append((op.label, f"{type(exc).__name__}: {exc}"[:200]))
                out = None
            t1 = time.perf_counter()
            if cal.due(t1):
                cal.sample()
            if out is None:
                continue
            why = w.verify(op, out)
            if corrupt and attempted % 7 == 1:
                why = why or "deliberately wrong expected answer (--corrupt-answers)"
            if why is not None:
                failures.append((op.label, why))
                continue
            timed.append((t0, t1 - t0))
            sizes.append(op.size)
        i += 1
        if time.perf_counter() >= deadline:
            break
    cal.sample()
    return {
        "lat": [cal.scale(t0, dt) for t0, dt in timed],
        "wall": [dt for _, dt in timed],
        "calibration": cal.took,
        "sizes": sizes,
        "failures": failures,
        "attempted": attempted,
        "rounds": i,
    }


def probe_depth(w, pool) -> tuple[list[str], dict, bool]:
    """Run the sizes past today's depth crash points once, untimed. A
    RecursionError is a known defect: it is listed by size and charged to the
    layer it escaped from. A wrong verdict makes the run incorrect."""
    lines, errors, correct = [], {"parser": 0, "typechecker": 0}, True
    for op in pool.probe:
        try:
            why = w.verify(op, w.call(op))
            lines.append(f"depth probe {op.label} ({op.size} statements): {why or 'ok'}")
            correct = correct and why is None
        except RecursionError as exc:
            files = [Path(f.filename).stem for f in traceback.extract_tb(exc.__traceback__)]
            layer = next((f for f in files if f in errors), "other")
            errors[layer] = errors.get(layer, 0) + 1
            where = " > ".join(dict.fromkeys(f for f in files if f not in ("run", "workloads")))
            lines.append(
                f"depth probe {op.label} ({op.size} statements): FAILED RecursionError in {where}"
            )
    return lines, errors, correct


def pct(values: list[float], p: float) -> tuple[float, int]:
    """The p-th percentile and how many samples lie beyond it."""
    v = statistics.quantiles(values, n=100)[p - 1] if len(values) >= 2 else values[0]
    return v, sum(1 for x in values if x > v)


def end_to_end(w, run: dict, setup_times: list[float], setup_raw: list[float]):
    lat, wall = run["lat"], run["wall"]
    tail, beyond = pct(lat, w.tail_pct)
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "op/s"),
        "op_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "op_ms_tail": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    cal = run["calibration"]
    notes = [
        f"times are at reference speed; the machine ran at {calibrate.REF_S / statistics.median(cal):.3f}"
        f" of it (median of {len(cal)} calibrations, range"
        f" {calibrate.REF_S / max(cal):.3f}-{calibrate.REF_S / min(cal):.3f})",
        f"wall clock: {len(wall) / sum(wall):.4g} op/s, p50 {statistics.median(wall) * 1e3:.4g} ms,"
        f" p{w.tail_pct} {pct(wall, w.tail_pct)[0] * 1e3:.4g} ms,"
        f" setup {statistics.median(setup_raw):.4g} s",
        f"op_ms_tail is p{w.tail_pct}: {beyond} of {len(lat)} samples lie beyond it",
        f"setup_s is the median of {len(setup_times)} set-ups: "
        + ", ".join(f"{t:.4f}" for t in setup_times),
        f"failed_share = {len(run['failures']) / run['attempted']:.6f} ratio"
        f" ({len(run['failures'])} of {run['attempted']} ops)",
    ]
    if w.name == "check-large":
        xs = [math.log(s) for s in run["sizes"]]
        ys = [math.log(t) for t in lat]
        notes.append(
            f"size_exponent = {spans.slope(xs, ys):.4f} (slope of log op time"
            " against log statement count)"
        )
    return metrics, notes


def per_layer(pkg, w, pool, args, run_plain: dict, probe_errors: dict):
    """The traced run: the same ops as the untraced phase, with spans."""
    tracer = spans.Tracer()
    op_call = tracer.spanned("op", w.call)

    def call(op):
        tracer.op_id += 1
        return op_call(op)

    tracer.install(pkg)
    if hasattr(w, "reset"):
        w.reset()
    try:
        run = measure(w, pool, args.seconds / 2, call=call, corrupt=args.corrupt_answers)
    finally:
        tracer.restore()
    s = tracer.summary()
    names, counts = s["names"], tracer.counts
    ops = len(run["lat"]) + len(run["failures"])
    total = names["op"]["s"]

    def share(name):
        return names[name]["self_s"] / total

    def per_s(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def c(key):
        return counts.get(key, 0)

    plain_rate = len(run_plain["lat"]) / sum(run_plain["lat"])
    traced_rate = len(run["lat"]) / sum(run["lat"])
    trace_overhead = measure_trace_flag(w, pool) if w.name == "check-large" else 0.0
    m = {
        "parser.self_share": share("parser.parse"),
        "parser.calls": c("parser.calls"),
        "parser.nodes_per_s": per_s(c("parser.nodes"), names["parser.parse"]["s"]),
        "parser.recursion_errors": probe_errors.get("parser", 0),
        "typechecker.self_share": share("typechecker.check"),
        "typechecker.calls": c("typechecker.calls"),
        "typechecker.calls_per_op": c("typechecker.calls") / ops,
        "typechecker.nodes_per_s": per_s(s["check_nodes"], s["check_accept_s"]),
        "typechecker.reject_calls": c("typechecker.reject_calls"),
        "typechecker.size_exponent": s["size_exponent"],
        "typechecker.recursion_errors": probe_errors.get("typechecker", 0),
        "syntax.pretty_self_share": share("syntax.pretty"),
        "syntax.pretty_calls": names["syntax.pretty"]["calls"],
        "lattice.self_share": share("lattice"),
        "lattice.calls": names["lattice"]["calls"],
        "interpreter.self_share": share("interpreter.evaluate"),
        "interpreter.calls": c("interpreter.calls"),
        "interpreter.fuel_exhausted": c("interpreter.fuel_exhausted"),
        "interpreter.faults": c("interpreter.faults"),
        "equivalence.self_share": share("equivalence"),
        "equivalence.calls": c("equivalence.calls"),
        "equivalence.closure_pairs": c("equivalence.closure_pairs"),
        "equivalence.inconclusive_share": (
            c("equivalence.inconclusive") / c("equivalence.closure_runs")
            if c("equivalence.closure_runs") else 0.0
        ),
        "harness.gen_tenv_self_share": share("harness.gen_tenv"),
        "harness.gen_program_self_share": share("harness.gen_program"),
        "harness.gen_program_checks": s["gen_program_checks"] / ops,
        "harness.gen_states_self_share": share("harness.gen_states"),
        "harness.trial_self_share": share("harness.trial"),
        "harness.discard_share.fuel": getattr(w, "discard_share", {}).get("fuel", 0.0),
        "harness.discard_share.runtime": getattr(w, "discard_share", {}).get("runtime", 0.0),
        "cli.render_self_share": share("cli.render"),
        "cli.trace_overhead": trace_overhead,
        "trace.overhead_ops_per_s": plain_rate - traced_rate,
        "trace.spans_per_op": s["spans"] / ops,
    }
    lines = [f"traced ops: {ops} in {total:.3f} s of wall time; at reference speed,"
             f" untraced {plain_rate:.2f} op/s and traced {traced_rate:.2f} op/s"]
    caller = s["by_caller"]
    groups = {
        "typechecker": caller["typechecker.check"],
        "generation": sum(caller[k] for k in GENERATION),
        "interpreter": caller["interpreter.evaluate"],
        "equivalence": caller["equivalence"],
        "trial runner": caller["harness.trial"],
        "parser": caller["parser.parse"],
        "cli": caller["cli.render"],
        "rest of op": caller["op"],
    }
    lines.append(
        "self-time split, pretty and lattice charged to their caller: "
        + ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in groups.items() if v)
    )
    lines.append(
        "layer seconds (self): "
        + ", ".join(f"{k} {v['self_s']:.3f}" for k, v in names.items() if v["calls"])
    )
    lines += controls(w.name, m, groups["typechecker"] / total)
    out = OUT / f"spans-{w.name}-seed{args.seed}.tsv.gz"
    tracer.write(out)
    lines.append(f"spans: {s['spans']} written to {out.relative_to(ROOT)}")
    missing = [n for n in spans.PREDICTED_NONZERO[w.name] if names[n]["calls"] == 0]
    return m, lines, {"run": run, "missing": missing}


def controls(name: str, m: dict, checker_share: float) -> list[str]:
    checks = {
        "nitest": [("parser.calls == 0", m["parser.calls"] == 0),
                   ("cli spans == 0", m["cli.render_self_share"] == 0)],
        "check-large": [
            ("interpreter.calls == 0", m["interpreter.calls"] == 0),
            ("harness spans == 0", all(m[k] == 0 for k in m if k.startswith("harness.")
                                       and k.endswith("share"))),
        ],
        "run-loops": [(
            "typechecker (with its pretty and lattice) < 5% of op time",
            checker_share < 0.05,
        )],
    }[name]
    return [f"control {text}: {'holds' if ok else 'DOES NOT HOLD'}" for text, ok in checks]


def measure_trace_flag(w, pool) -> float:
    """Extra cost of `check --trace` over plain `check` on one round of the
    same files, untraced, alternating which goes first."""
    plain = trace = 0.0
    for j, op in enumerate(pool.rounds[0]):
        for flagged in ((False, True) if j % 2 else (True, False)):
            t0 = time.perf_counter()
            out = w.call(op, *["--trace"] * flagged)
            dt = time.perf_counter() - t0
            why = w.verify(op, out)
            if flagged and why is None and not json.loads(out[1]).get("trace"):
                why = "--trace gave no derivation"
            if why is not None:
                raise AssertionError(f"{op.label} with --trace={flagged}: {why}")
            if flagged:
                trace += dt
            else:
                plain += dt
    return trace / plain - 1


def run_one(args) -> int:
    if not (SRC / "rescheck" / "__init__.py").is_file():
        print(f"error: no rescheck sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    load_start = os.getloadavg()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        pkg, w, pool, setup_times, setup_raw = setup(args.workload, args.seed, workdir, args.tiny)
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
        print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
        print(f"inputs: sha256 {pool.digest()[:16]}, {sum(map(len, pool.rounds))} ops in"
              f" {len(pool.rounds)} rounds of {len(pool.rounds[0])}, {len(pool.probe)} probe files")
        probe_lines, probe_errors, probe_ok = probe_depth(w, pool)
        for line in probe_lines:
            print(line)
        if hasattr(w, "reset"):
            w.reset()
        # A traced run splits its time: half untraced, then half with spans.
        seconds = args.seconds / 2 if args.trace else args.seconds
        run = measure(w, pool, seconds, corrupt=args.corrupt_answers)
        if not run["lat"]:
            for label, why in run["failures"][:20]:
                print(f"FAILED {label}: {why}", file=sys.stderr)
            print(f"error: all {run['attempted']} ops failed", file=sys.stderr)
            return 1
        metrics, notes = end_to_end(w, run, setup_times, setup_raw)
        attempted, failures = run["attempted"], list(run["failures"])
        if args.trace:
            layer, lines, traced = per_layer(pkg, w, pool, args, run, probe_errors)
            attempted += traced["run"]["attempted"]
            failures += traced["run"]["failures"]
            notes, metrics = lines, {k: (v, LAYER_UNITS[k]) for k, v in layer.items()}
            if traced["missing"]:
                print("error: traced run recorded no spans for predicted layers: "
                      + ", ".join(traced["missing"]), file=sys.stderr)
                return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"rounds: {run['rounds']}; load average start {load_start} end {os.getloadavg()}")
    for label, why in failures[:20]:
        print(f"FAILED {label}: {why}")
    for line in notes:
        print(line)
    for k, (v, unit) in metrics.items():
        print(f"{k} = {v:.6g} {unit}")
    print(json.dumps({
        "correct": not failures and probe_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        argv += ["--tiny"] * args.tiny + ["--corrupt-answers"] * args.corrupt_answers
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"] |= {f"{name}.{k}": v for k, v in result["metrics"].items()}
        print()
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    p.add_argument("--corrupt-answers", action="store_true",
                   help="self-test: fail every 7th op's answer check on purpose")
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
