"""Spans around the public functions of each rescheck layer.

The tracer replaces functions in the namespaces that call them (for example
`harness.check` is reached through `typechecker.trace_check`, and the checker
reaches the lattice through `typechecker.join`), so the program itself is
not edited. Each span records its name, start, end, parent and op id; spans
stay in memory in flat arrays and are written out once, at the end.
"""

from __future__ import annotations

import gzip
import inspect
import math
import sys
import time
from array import array
from dataclasses import fields, is_dataclass
from pathlib import Path

# Every span name, each prefixed by its layer. In the split by caller, pretty
# and lattice spans are charged to the span that called them.
NAMES = (
    "op", "parser.parse", "typechecker.check", "syntax.pretty", "lattice",
    "interpreter.evaluate", "equivalence", "harness.gen_tenv", "harness.gen_program",
    "harness.gen_states", "harness.trial", "cli.render",
)

# Span names each workload must record at least once: a traced run that
# sees none of them fails, so an import refactor cannot silently zero a layer.
PREDICTED_NONZERO = {
    "nitest": (
        "typechecker.check", "syntax.pretty", "lattice", "interpreter.evaluate",
        "equivalence", "harness.gen_tenv", "harness.gen_program", "harness.gen_states",
        "harness.trial",
    ),
    "check-large": ("parser.parse", "typechecker.check", "syntax.pretty", "lattice", "cli.render"),
    "run-loops": (
        "parser.parse", "typechecker.check", "syntax.pretty", "lattice",
        "interpreter.evaluate", "cli.render",
    ),
}


def count_nodes(e) -> int:
    """Nodes of an AST, walked over dataclass fields."""
    n, todo = 0, [e]
    while todo:
        x = todo.pop()
        n += 1
        for f in fields(x):
            v = getattr(x, f.name)
            if is_dataclass(v) and hasattr(v, "pos"):
                todo.append(v)
    return n


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = {}
        self.node_samples: list[tuple[int, int]] = []  # (span, nodes) of accepted checks
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def bump(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def spanned(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, result, exc, span) runs once the
        span is closed, so its own cost is not charged to the layer."""
        nid = self._id(name)
        start, end, names, parent, ops, stack = (
            self.start, self.end, self.name, self.parent, self.op, self.stack
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            result = None
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end[idx] = clock()
                stack.pop()
                if after is not None:
                    after(args, result, sys.exc_info()[1], idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, after=None, outer=None) -> None:
        """Replace owner.attr (or owner[attr] for a dict) by a spanned version."""
        is_map = isinstance(owner, dict)
        if (attr not in owner) if is_map else not hasattr(owner, attr):
            where = owner.__name__ if hasattr(owner, "__name__") else "table"
            raise LookupError(f"trace target {where}.{attr} is gone; update bench/trace.py")
        orig = owner[attr] if is_map else getattr(owner, attr)
        fn = self.spanned(name, orig, after)
        if outer is not None:
            fn = outer(fn, orig)
        if is_map:
            owner[attr] = fn
        else:
            setattr(owner, attr, fn)
        self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

    # -- install ---------------------------------------------------------------

    def install(self, rescheck) -> None:
        """Wrap the public functions of every layer where rescheck calls them."""
        cli, harness, tc = rescheck.cli, rescheck.harness, rescheck.typechecker
        interp, equiv = rescheck.interpreter, rescheck.equivalence
        CheckError = tc.CheckError
        node_cache: dict[int, int] = {}

        def after_parse(args, result, exc, idx):
            self.bump("parser.calls")
            if exc is None:
                key = hash(args[0])
                if key not in node_cache:
                    node_cache[key] = count_nodes(result)
                self.bump("parser.nodes", node_cache[key])

        def after_check(args, result, exc, idx):
            self.bump("typechecker.calls")
            if isinstance(exc, CheckError):
                self.bump("typechecker.reject_calls")
            elif exc is None:
                self.node_samples.append((idx, len(result[1])))

        def after_eval(args, result, exc, idx):
            self.bump("interpreter.calls")
            if isinstance(result, interp.FuelExhausted):
                self.bump("interpreter.fuel_exhausted")
            elif isinstance(result, interp.RuntimeFault):
                self.bump("interpreter.faults")

        def with_stats(spanned_fn, orig):
            """Hand the equivalence check a stats object when the caller did
            not (it makes its own otherwise), and read it back afterwards."""
            sig = inspect.signature(orig)

            def call(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                stats = bound.arguments.get("stats") or equiv.EquivStats()
                bound.arguments["stats"] = stats
                cfg = bound.arguments.get("cfg") or equiv.EquivConfig()
                pairs, inconclusive = stats.closure_pairs_sampled, stats.inconclusive_runs
                try:
                    return spanned_fn(*bound.args, **bound.kwargs)
                finally:
                    new_pairs = stats.closure_pairs_sampled - pairs
                    self.bump("equivalence.calls")
                    self.bump("equivalence.closure_pairs", new_pairs)
                    self.bump("equivalence.closure_runs", new_pairs * cfg.closure_samples)
                    self.bump("equivalence.inconclusive", stats.inconclusive_runs - inconclusive)

            return call

        self.patch(cli, "parse", "parser.parse", after_parse)
        self.patch(cli, "trace_check", "typechecker.check", after_check)
        self.patch(tc, "trace_check", "typechecker.check", after_check)
        self.patch(tc, "pretty", "syntax.pretty")
        for owner in (tc, harness):
            for fn in ("join", "leq", "meet"):
                self.patch(owner, fn, "lattice")
        self.patch(harness, "evaluate", "interpreter.evaluate", after_eval)
        self.patch(cli, "run_program", "interpreter.evaluate", after_eval)
        self.patch(harness, "low_equiv", "equivalence", outer=with_stats)
        self.patch(harness, "value_equiv", "equivalence", outer=with_stats)
        self.patch(harness, "gen_tenv", "harness.gen_tenv")
        self.patch(harness, "gen_welltyped", "harness.gen_program")
        self.patch(harness, "gen_lowequiv_states", "harness.gen_states")
        for suite in list(harness._TRIAL_FNS):
            self.patch(harness._TRIAL_FNS, suite, "harness.trial")
        for fn in ("_emit", "judgment_json", "error_json", "pretty_value"):
            self.patch(cli, fn, "cli.render")

    # -- analysis --------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds; plus self seconds
        by span name with pretty and lattice charged to the span that called
        them."""
        n = len(self.start)
        dur = array("d", (self.end[i] - self.start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        parent, name_of = self.parent, self.name
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        by_name = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in NAMES}
        by_caller = dict.fromkeys(NAMES, 0.0)
        leaf_ids = {self.name_id.get("syntax.pretty"), self.name_id.get("lattice")}
        check_id = self.name_id.get("typechecker.check")
        gen_id = self.name_id.get("harness.gen_program")
        gen_checks = 0
        for i in range(n):
            nid, p = name_of[i], parent[i]
            row = by_name[self.names[nid]]
            row["calls"] += 1
            row["s"] += dur[i]
            own = dur[i] - child[i]
            row["self_s"] += own
            caller = name_of[p] if nid in leaf_ids and p >= 0 else nid
            by_caller[self.names[caller]] += own
            if nid == check_id and p >= 0 and name_of[p] == gen_id:
                gen_checks += 1
        xs = [math.log(k) for i, k in self.node_samples if k > 0]
        ys = [math.log(max(dur[i], 1e-9)) for i, k in self.node_samples if k > 0]
        return {
            "names": by_name,
            "by_caller": by_caller,
            "gen_program_checks": gen_checks,
            "check_nodes": sum(k for _, k in self.node_samples),
            "check_accept_s": sum(dur[i] for i, _ in self.node_samples),
            "size_exponent": slope(xs, ys),
            "spans": n,
        }

    def write(self, path: Path) -> None:
        """All spans as tab-separated text: id, name, op, parent, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\top\tparent\tstart_s\tend_s\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.op[i]}\t{self.parent[i]}"
                    f"\t{self.start[i] - t0:.7f}\t{self.end[i] - t0:.7f}\n"
                )


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ys against xs (0.0 with fewer than two xs)."""
    if len(set(xs)) < 2:
        return 0.0
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
