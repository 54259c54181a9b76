"""The three workloads: their inputs, the program call each op makes, and
the known answer each op is checked against.

Every input comes from the workload seed alone. Sizes and shapes are fixed
per size class; the seed picks names of referenced bindings, constants and
which leak a rejected file carries, so two seeds do the same amount of work
on different inputs. Known answers come from how each input was built (the
generators below), never from the code under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path


def derive(*parts: object) -> int:
    """A 62-bit integer from the parts, stable across Python versions."""
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 2


@dataclass
class Op:
    label: str  # size class, e.g. "straight-400-leak"
    args: tuple  # what the program is called with
    expected: object  # the known answer
    size: int = 0  # statements (check-large) or loop iterations (run-loops)


@dataclass
class Pool:
    """The inputs of one run: rounds of ops, each round a fixed mix."""

    rounds: list[list[Op]]
    probe: list[Op] = field(default_factory=list)  # check-large only

    def digest(self) -> str:
        """sha256 of every op's label, arguments, file contents and answer."""
        h = hashlib.sha256()
        for op in [o for r in self.rounds for o in r] + self.probe:
            h.update(repr((op.label, op.expected)).encode())
            for a in op.args:
                if isinstance(a, str) and a.endswith(".resc"):
                    h.update(Path(a).name.encode() + Path(a).read_bytes())
                else:
                    h.update(repr(a).encode())
        return h.hexdigest()


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run cli.main in process, returning its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


# nitest ---------------------------------------------------------------------

SUITES = ("soundness", "lemma1", "lemma2", "lemma5")
NITEST_POOL_ROUNDS = 4096  # one trial of each suite per round; a 30 s run uses about 1,500


class Nitest:
    """One op is one NI trial: run_suite(suite, GenConfig(rng_seed=s), trials=1)."""

    name = "nitest"
    tail_pct = 99

    def __init__(self, rescheck):
        self.harness = rescheck.harness
        self.reset()

    def reset(self) -> None:
        self.trials = self.fuel = self.runtime = 0

    @property
    def discard_share(self) -> dict[str, float]:
        n = max(self.trials, 1)
        return {"fuel": self.fuel / n, "runtime": self.runtime / n}

    def build(self, seed: int, workdir: Path, tiny: bool) -> Pool:
        rounds = []
        for r in range(NITEST_POOL_ROUNDS):
            ops = []
            for k, suite in enumerate(SUITES):
                i = r * len(SUITES) + k
                ops.append(Op(suite, (suite, derive("nitest", seed, i)), "one trial, no violation"))
            rounds.append(ops)
        return Pool(rounds)

    def call(self, op: Op):
        suite, s = op.args
        return self.harness.run_suite(suite, self.harness.GenConfig(rng_seed=s), trials=1)

    def verify(self, op: Op, report) -> str | None:
        if report.suite != op.args[0] or report.trials != 1:
            return f"report is for {report.suite!r} with {report.trials} trials"
        if report.passes + report.discarded != 1:
            return f"{report.passes} passes + {report.discarded} discards in one trial"
        if report.violations:
            return f"violation: {report.violations[0].get('detail')}"
        self.trials += 1
        self.fuel += report.discarded_fuel
        self.runtime += report.discarded_runtime
        return None


# check-large -----------------------------------------------------------------

# Statements per straight-line file, and nesting levels per nested file.
# Seven classes, so that the median op falls inside one class (nested-40)
# rather than between two. All sit below the depth crash points; the probe
# sizes sit above them (about 495 statements and 110 levels today).
STRAIGHT_SIZES = (50, 100, 200)
NESTED_LEVELS = (10, 20, 40, 80)
PROBE_STRAIGHT = (800,)
PROBE_NESTED = (160, 320)
TINY_STRAIGHT = (10, 20, 40)
TINY_NESTED = (2, 4, 8, 16)
CHECK_POOL_ROUNDS = 8  # a 30 s run uses about 26, so it starts over three times

LEAKS = ("Reassign-value", "Reassign-pc", "Let-n", "App")
FUN_LOW = "(low -> low @ ())"


def _leak_stmt(kind: str, rng: random.Random, name: str, high: str, fun: str):
    """A statement that leaks `high`, and the rule, condition and column
    (of the failing node) the checker must report for it."""
    c = rng.randint(1, 9)
    if kind == "Reassign-value":
        return f"r0 := {high}", "Reassign", "t3 ⊒ t1", 1
    if kind == "Reassign-pc":
        text = f"if {high} < {c} {{ r0 := 1 }} else {{ r0 := 2 }}"
        return text, "Reassign", "t3 ⊒ pc", text.index("r0") + 1
    if kind == "Let-n":
        return f"let {name}: low = {high}", "Let-n", "t1 ⊒ t2", 1
    text = f"let {name} = {fun} {high}"
    return text, "App", "e2 : t1", text.index(fun) + 1


def straight_program(n: int, rng: random.Random, leak: str | None):
    """n statements of let, annotated let, assignment, function definition
    and application. With `leak`, statement 3n/4 is replaced by that leak."""
    lines = [
        f"let r0 = ref({rng.randint(1, 9)})",
        f"let s0: high = {rng.randint(1, 9)}",
        f"let v0 = {rng.randint(1, 9)}",
        f"let f0 = (x: low) => x + {rng.randint(1, 9)}",
    ]
    env = {"r0": "ref low", "s0": "high", "v0": "low", "f0": FUN_LOW}
    lows, highs, funs = ["v0"], ["s0"], ["f0"]
    at = 3 * n // 4 if leak else -1
    expected = None
    for k in range(len(lines), n - 1):
        c = rng.randint(1, 9)
        if k == at:
            text, rule, cond, col = _leak_stmt(
                leak, rng, f"v{k}", rng.choice(highs), rng.choice(funs)
            )
            lines.append(text)
            expected = {"status": "error", "rule": rule, "condition": cond, "line": k + 1, "col": col}
            continue
        match k % 5:
            case 0:
                lines.append(f"let v{k} = {rng.choice(lows)} + {c}")
                env[f"v{k}"] = "low"
                lows.append(f"v{k}")
            case 1:
                lines.append(f"let s{k}: high = {rng.choice(lows)} * {c}")
                env[f"s{k}"] = "high"
                highs.append(f"s{k}")
            case 2:
                lines.append(f"r0 := {rng.choice(lows)} + {c}")
            case 3:
                lines.append(f"let f{k} = (x: low) => x * {c}")
                env[f"f{k}"] = FUN_LOW
                funs.append(f"f{k}")
            case 4:
                lines.append(f"let v{k} = {rng.choice(funs)} {rng.choice(lows)}")
                env[f"v{k}"] = "low"
                lows.append(f"v{k}")
    lines.append("!r0")
    if expected is None:
        expected = {"status": "ok", "type": "low", "effect": "low", "env": env}
    return "\n".join(lines) + "\n", expected


def nested_program(levels: int, rng: random.Random, leak: str | None):
    """`levels` nested if/while blocks, two statements per level. With
    `leak`, level 3/4 of the way down starts with that leak."""
    lines = [
        f"let r0 = ref({rng.randint(1, 9)})",
        f"let s0: high = {rng.randint(1, 9)}",
        f"let w0 = {rng.randint(1, 9)}",
        f"let f0 = (x: low) => x + {rng.randint(1, 9)}",
    ]
    env = {"r0": "ref low", "s0": "high", "w0": "low", "f0": FUN_LOW}
    at = 3 * levels // 4 if leak else -1
    expected = None
    for k in range(1, levels + 1):
        guard = f"w{k - 1} < {rng.randint(10, 99)}"
        lines.append(f"if {guard} {{" if k % 2 else f"while {guard} {{")
        if k == at:
            text, rule, cond, col = _leak_stmt(leak, rng, f"z{k}", "s0", "f0")
            lines.append(text)
            expected = {
                "status": "error", "rule": rule, "condition": cond, "line": len(lines), "col": col,
            }
        lines.append(f"let w{k} = w{k - 1} + {rng.randint(1, 9)}")
    lines.append(f"r0 := w{levels} + {rng.randint(1, 9)}")
    for k in range(levels, 0, -1):
        lines.append("} else { 0 }" if k % 2 else "}")
    lines.append("!r0")
    if expected is None:
        expected = {"status": "ok", "type": "low", "effect": "low", "env": env}
    return "\n".join(lines) + "\n", expected


class CheckLarge:
    """One op is cli.main(["check", "--json", FILE]) on a generated file."""

    name = "check-large"
    tail_pct = 90

    def __init__(self, rescheck):
        self.cli = rescheck.cli

    def _files(self, seed, tag, workdir, straight, nested) -> list[Op]:
        ops = []
        shapes = [("straight", n, straight_program) for n in straight]
        shapes += [("nested", n, nested_program) for n in nested]
        for shape, n, gen in shapes:
            for variant in ("accept", "leak"):
                rng = random.Random(derive("check-large", seed, tag, shape, n, variant))
                leak = rng.choice(LEAKS) if variant == "leak" else None
                text, expected = gen(n, rng, leak)
                label = f"{shape}-{n}-{variant}"
                path = _write(workdir, f"{tag}-{label}.resc", text)
                stmts = text.count("\n") - (n if shape == "nested" else 0)
                ops.append(Op(label, (path,), expected, size=stmts))
        return ops

    def build(self, seed: int, workdir: Path, tiny: bool) -> Pool:
        straight, nested = (TINY_STRAIGHT, TINY_NESTED) if tiny else (STRAIGHT_SIZES, NESTED_LEVELS)
        rounds = [
            self._files(seed, f"r{r}", workdir, straight, nested) for r in range(CHECK_POOL_ROUNDS)
        ]
        probe = self._files(seed, "probe", workdir, PROBE_STRAIGHT, PROBE_NESTED)
        return Pool(rounds, probe)

    def call(self, op: Op, *flags: str):
        return _cli(self.cli, ["check", "--json", *flags, *op.args])

    def verify(self, op: Op, output) -> str | None:
        rc, text = output
        want = op.expected
        try:
            got = json.loads(text)
        except ValueError:
            return f"exit {rc} with no JSON body"
        if want["status"] == "ok":
            seen = {k: got.get(k) for k in ("status", "type", "effect", "env")}
        else:
            err = got.get("error") or {}
            seen = {"status": got.get("status")} | {
                k: err.get(k) for k in ("rule", "condition", "line", "col")
            }
        if seen != want:
            return f"expected {_brief(want)}, got {_brief(seen)}"
        if rc != (0 if want["status"] == "ok" else 1):
            return f"verdict {want['status']} but exit {rc}"
        return None


def _brief(d: dict) -> str:
    return json.dumps({k: v for k, v in d.items() if k != "env"}, ensure_ascii=False) + (
        f" with {len(d['env'])} bindings" if isinstance(d.get("env"), dict) else ""
    )


# run-loops -------------------------------------------------------------------

# (template, loop iterations). Seven classes whose run times grow by about
# 1.5x each, so the median op falls inside one class (if-loop).
LOOP_CLASSES = (
    ("for-sum", 700),
    ("nested-for", 880),
    ("app-loop", 1100),
    ("if-loop", 1400),
    ("while-sum", 1600),
    ("for-sum", 5200),
    ("app-loop", 5400),
)
LOOP_POOL_ROUNDS = 8  # a 30 s run uses about 75, so it starts over nine times


def loop_program(template: str, iters: int, rng: random.Random) -> tuple[str, int]:
    """Source of a well-typed loop program and the value it must print,
    computed here with Python integers."""
    k, c = rng.randint(2, 9), rng.randint(0, 99)
    tri = iters * (iters + 1) // 2
    if template == "for-sum":
        src = f"let acc = ref({c})\nfor i in 1 to {iters} {{ acc := !acc + i * {k} }}\n!acc\n"
        return src, c + k * tri
    if template == "while-sum":
        src = (
            f"let n = ref({iters})\nlet s = ref({c})\n"
            f"while 0 < !n {{ s := !s + !n * {k}; n := !n - 1 }}\n!s\n"
        )
        return src, c + k * tri
    if template == "if-loop":
        m = rng.randint(2, 7)
        src = (
            f"let acc = ref({c})\n"
            f"for i in 1 to {iters} {{ if i / {m} * {m} == i {{ acc := !acc + i }} else {{ acc := !acc - 1 }} }}\n"
            "!acc\n"
        )
        hits = iters // m
        return src, c + m * hits * (hits + 1) // 2 - (iters - hits)
    if template == "app-loop":
        src = (
            f"let f = (x: low) => x * {k} + {c}\nlet acc = ref(0)\n"
            f"for i in 1 to {iters} {{ acc := !acc + f i }}\n!acc\n"
        )
        return src, k * tri + c * iters
    # nested-for: an a x b grid with a * b close to iters
    a = 40 if iters >= 400 else 4
    b = iters // a
    src = (
        f"let acc = ref(0)\n"
        f"for i in 1 to {a} {{ for j in 1 to {b} {{ acc := !acc + i * j + {c} }} }}\n!acc\n"
    )
    return src, (a * (a + 1) // 2) * (b * (b + 1) // 2) + c * a * b


class RunLoops:
    """One op is cli.main(["run", "--fuel", N, FILE]) on a loop program."""

    name = "run-loops"
    tail_pct = 90

    def __init__(self, rescheck):
        self.cli = rescheck.cli

    def build(self, seed: int, workdir: Path, tiny: bool) -> Pool:
        rounds = []
        for r in range(LOOP_POOL_ROUNDS):
            ops = []
            for j, (template, iters) in enumerate(LOOP_CLASSES):
                iters = max(iters // 50, 10) if tiny else iters
                rng = random.Random(derive("run-loops", seed, r, j))
                src, value = loop_program(template, iters, rng)
                path = _write(workdir, f"r{r}-{j}-{template}-{iters}.resc", src)
                fuel = 64 * iters + 10_000  # generous: no op may run out
                ops.append(Op(f"{template}-{iters}", ("--fuel", str(fuel), path), value, iters))
            rounds.append(ops)
        return Pool(rounds)

    def call(self, op: Op):
        return _cli(self.cli, ["run", *op.args])

    def verify(self, op: Op, output) -> str | None:
        rc, text = output
        first = text.split("\n", 1)[0]
        if rc != 0 or first != f"value: {op.expected}":
            return f"expected 'value: {op.expected}', got exit {rc} and {first!r}"
        return None


WORKLOADS = {w.name: w for w in (Nitest, CheckLarge, RunLoops)}
