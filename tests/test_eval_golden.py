"""The evaluator's exact behaviour, pinned by a golden file.

`eval_golden.json` was first generated at commit e79a518, before the
evaluator's dispatch was rewritten. Running this module as a script
records every row from the definitional interpreter in `definitional.py`,
not from the code under test, and reproduces the file byte for byte:

    PYTHONPATH=src:tests python tests/test_eval_golden.py

Each row is one program and its exact fuel cost: the smallest fuel of at
most 2,000 that does not give `FuelExhausted` (the fuel the reference
spends), or null when 2,000 is not enough. The row also holds the outcome
at that fuel: its kind, the value, env and sorted store of an `Ok`, or the
kind and position of a fault. The rows are

- 1,000 `astgen` trees (seeds 0-999, depth 1 + seed % 5), run from the
  fixed state `start_state()`, which binds some of astgen's names and leaves
  the others unbound;
- the 14 corpus programs, and the loop templates of the run-loops bench
  workload at 10-20 iterations, each run from the empty state.

No row uses more than 2,000 fuel, and every rule application charges one
before it nests, so no row can reach the evaluator's depth limit.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from rescheck import (
    BinOp,
    BoolV,
    Bop,
    ClosV,
    FuelExhausted,
    IntV,
    LocV,
    Num,
    Ok,
    RuntimeFault,
    Store,
    Var,
    evaluate,
    parse,
    pretty_value,
)

import astgen
import definitional

GOLDEN = Path(__file__).with_name("eval_golden.json")
MAX_FUEL = 2000
TREES = 1000


def start_state():
    """A fixed env and store for astgen trees: ints, a bool, two cells and
    a closure under some of astgen's names; i0, letx and true1 stay unbound."""
    env = {
        "x": IntV(3),
        "y": IntV(-7),
        "z": BoolV(True),
        "foo": IntV(0),
        "acc": LocV(0),
        "ri2": LocV(1),
        "f1": ClosV(Bop(BinOp.ADD, Var("x"), Num("1")), "x", {}),
    }
    return env, Store({0: IntV(5), 1: IntV(0)})


def tree(seed: int):
    return astgen.gen_expr(random.Random(seed), 1 + seed % 5)


def run_row(row: dict, fuel: int, evaluate=evaluate):
    if row["source"] == "astgen":
        env, store = start_state()
        return evaluate(tree(row["seed"]), env, store, fuel)
    return evaluate(parse(row["text"]), {}, Store(), fuel)


def outcome_json(o) -> dict:
    if isinstance(o, Ok):
        store = o.state.store.data
        return {
            "kind": "Ok",
            "value": pretty_value(o.value),
            "env": {k: pretty_value(v) for k, v in o.state.env.items()},
            "store": [[loc, pretty_value(store[loc])] for loc in sorted(store)],
        }
    if isinstance(o, RuntimeFault):
        at = [o.at.line, o.at.col] if o.at else None
        return {"kind": "RuntimeFault", "fault": o.kind.value, "at": at}
    return {"kind": type(o).__name__}


def measure(row: dict) -> dict:
    """Fill in the row's fuel cost and its outcome at that fuel, from the reference."""
    out, cost = run_row(row, MAX_FUEL, definitional.run)
    if isinstance(out, FuelExhausted):
        return {**row, "cost": None, "outcome": {"kind": "FuelExhausted"}}
    return {**row, "cost": cost, "outcome": outcome_json(out)}


def build_rows() -> list[dict]:
    sys.path.insert(0, str(Path(__file__).parents[1]))
    from bench.workloads import LOOP_CLASSES, loop_program
    from rescheck.harness import default_corpus_dir

    rows = [{"source": "astgen", "seed": s} for s in range(TREES)]
    for path in sorted(Path(default_corpus_dir()).glob("*.resc")):
        rows.append({"source": f"corpus/{path.name}", "text": path.read_text()})
    for j, (template, _) in enumerate(LOOP_CLASSES):
        iters = 10 + j
        text, _ = loop_program(template, iters, random.Random(j))
        rows.append({"source": f"loops/{template}-{iters}", "text": text})
    return [measure(r) for r in rows]


def test_every_row_keeps_its_cost_and_outcome():
    rows = json.loads(GOLDEN.read_text())
    assert len(rows) == TREES + 14 + 7
    for row in rows:
        cost = row["cost"]
        if cost is None:
            assert isinstance(run_row(row, MAX_FUEL), FuelExhausted), row
            continue
        assert outcome_json(run_row(row, cost)) == row["outcome"], row
        assert isinstance(run_row(row, cost - 1), FuelExhausted), row


SWEEP_COST = 300  # rows that cost at most this are run at every fuel below it


def test_every_fuel_gives_the_golden_outcome():
    # Fuel is charged in steps of more than one, so check each fuel below a
    # row's cost, not only the one next to it, and some fuel to spare.
    rows = json.loads(GOLDEN.read_text())
    swept = [r for r in rows if r["cost"] is not None and r["cost"] <= SWEEP_COST]
    assert len(swept) > 900
    for row in swept:
        cost = row["cost"]
        for fuel in range(cost):
            assert isinstance(run_row(row, fuel), FuelExhausted), (row, fuel)
        for fuel in (cost + 1, 2 * cost):
            assert outcome_json(run_row(row, fuel)) == row["outcome"], (row, fuel)


def test_rows_cover_every_outcome_kind():
    kinds = {r["outcome"]["kind"] for r in json.loads(GOLDEN.read_text())}
    assert kinds == {"Ok", "RuntimeFault", "FuelExhausted"}


def test_the_reference_records_every_row():
    assert build_rows() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    rows = (json.dumps(r, ensure_ascii=False) for r in build_rows())
    GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n")
