"""The evaluator against the definitional interpreter in `definitional.py`.

The reference shares no code with the evaluator's compile rules, kernels or
operator templates, so each test here runs the same program on both and
compares the whole outcome: its kind, the value, the final env and store, a
fault's kind and position, and DepthExceeded. A reference run also reports
the fuel it spent, its cost: below it every run ends in FuelExhausted, and
from it on every run ends the same. So one reference run gives the outcome
at every fuel.
"""

import random

import pytest

from rescheck import (
    LOW, App, Assign, BinOp, Bool, Bop, ClosV, For, FuelExhausted, Func, GenConfig, If, Let,
    LocV, Num, Ref, Seq, Store, Unit, Var, While, evaluate, gen_lowequiv_states, gen_tenv,
    harness, interpreter, parse, syntax,
)

import astgen
import definitional
from test_eval_golden import TREES, start_state

SWEEP_COST = 200  # a run is compared at every fuel up to its cost, or up to this
MAX_FUEL = 20_000
TRIALS = 40  # programs drawn per suite, each run from both of its states


def agree_at_every_fuel(label, e, env, store, sweep=SWEEP_COST):
    """Compare `evaluate` with the reference on `e` at every fuel up to its
    cost (or up to `sweep`), and at its cost and the fuel just below it;
    return the reference's outcome. `label` names `e` in a failure."""
    want, cost = definitional.run(e, dict(env), store, MAX_FUEL)
    if isinstance(want, FuelExhausted):
        cost = MAX_FUEL + 1
    assert isinstance(definitional.run(e, dict(env), store, cost - 1)[0], FuelExhausted)
    for fuel in sorted({*range(min(cost, sweep) + 1), cost - 1, min(cost, MAX_FUEL)}):
        got = evaluate(e, dict(env), store.copy(), fuel)
        assert got == (want if fuel >= cost else FuelExhausted()), (label, fuel)
    return want


def suite_runs(suite):
    """The programs of `suite`'s first trials at seed 0, as `run_suite` draws
    them, each with both of its low-equivalent states and a label."""
    source = harness._SUITE_TABLE[suite]
    base = harness._derive(0, source.salt)  # run_suite's trial seeds
    for i in range(TRIALS):
        cfg = GenConfig(rng_seed=harness._derive(base, i + 1))
        tenv = gen_tenv(cfg)
        chosen = source.program(cfg, tenv)
        if chosen is not None:
            for s in gen_lowequiv_states(cfg, tenv):
                yield f"{suite} trial {i}", chosen[0], s.env, s.store


# Programs that pin what generated ones rarely meet: chains that bind inside a
# block, a closure made in a loop, a faulting divisor in a loop, and each fault.
HAND_WRITTEN = {
    "block-binds": "{ let x = 1; let y = 2 }\nx + y",
    "nested-chain-binds": "let a = 1\n{ let b = a + 1\nb }\nb * 10",
    "closure-in-loop": (
        "let c = ref(0)\nfor i in 1 to 3 { if i == 1 { c := (x: low) => i } else { 0 } }\n(!c) 0"
    ),
    "while-let": "let r = ref(0)\nwhile !r < 3 { let t = !r; r := t + 1 }\n!r",
    "for-divides": "let s = ref(0)\nfor i in 0 - 2 to 2 { s := !s + i * i / (i - 3) }\n!s",
    "for-bounds": "for i in 3 to 1 { () }",
    "for-not-an-int": "for i in true to 3 { () }",
    "impure-operands": "let f = (x: low) => x + 1\nf 1 + f 2 == (f 0) * 5",
    "higher-order": (
        "let twice = (f: (low -> low @ ())) => (x: low) => f (f x)\n"
        "let inc = (x: low) => x + 1\ntwice inc 5"
    ),
    "aliasing": "let l = ref(2)\nlet h = l\nh := 4\n!l",
    "if-not-a-bool": "if 1 { 2 } else { 3 }",
    "while-not-a-bool": "while 0 { () }",
    "assign-rhs-first": "nowhere := 1 / 0",
    "callee-first": "(1 / 0) missing",
    "not-a-function": "let g = 1\ng 2",
    "assign-not-a-loc": "let x = 1\nx := 2",
}


class TestDifferential:
    def test_generated_trees_and_programs_agree_at_every_fuel(self):
        kinds = set()
        for seed in range(TREES):  # the golden file's astgen trees mix every form, typed or not
            env, store = start_state()
            tree = astgen.gen_expr(random.Random(seed), 1 + seed % 5)
            kinds.add(type(agree_at_every_fuel(f"astgen seed {seed}", tree, env, store)).__name__)
        assert kinds == {"Ok", "RuntimeFault", "FuelExhausted"}
        programs = 0
        for suite in harness.SUITES:  # programs of the NI harness, from both of their states
            for run in suite_runs(suite):
                assert isinstance(agree_at_every_fuel(*run), interpreter.Ok), suite
                programs += 1
        assert programs > 250
        # kernels are generated per operator and operand kinds, never per program
        operands = {"var", "deref", "num", "code"}
        keys = {(op, a, b) for op in syntax.BinOp for a in operands for b in operands}
        assert len(keys) == 112 and set(interpreter._kernel) <= keys
        assert {a for _, a, _ in interpreter._kernel} == operands

    @pytest.mark.parametrize("src", list(HAND_WRITTEN.values()), ids=list(HAND_WRITTEN))
    def test_hand_written_programs_agree_at_every_fuel(self, src):
        agree_at_every_fuel(src, parse(src), {}, Store())


# Each wrapper puts `e` one level below the node it builds, and runs nothing deeper.
_IDENTITY = ClosV(Var("x"), "x", {})
WRAPPERS = {
    "bop-left": lambda e: Bop(BinOp.ADD, e, Num("1")),
    "bop-right-after-impure": lambda e: Bop(BinOp.ADD, Func("y", LOW, Num("0")), e),
    "if-branch": lambda e: If(Bool(True), e, Num("1")),
    "while-guard": lambda e: While(e, Unit()),
    "for-body": lambda e: For("i", Num("1"), Num("1"), e),
    "let": lambda e: Let("x", None, e),
    "seq-first": lambda e: Seq(e, Num("0")),
    "app-argument": lambda e: App(Var("f"), e),
    "closure-body": lambda e: App(Func("x", LOW, e), Num("0")),
    "ref": lambda e: Ref(e),
    "assign": lambda e: Assign("r", e),
}


class TestDepth:
    @pytest.mark.parametrize("leaf_depth", [definitional.MAX_DEPTH - 1, definitional.MAX_DEPTH])
    @pytest.mark.parametrize("wrap", list(WRAPPERS), ids=list(WRAPPERS))
    def test_a_leaf_at_the_depth_limit(self, wrap, leaf_depth):
        e = Bool(False) if wrap == "while-guard" else Num("0")
        for _ in range(leaf_depth):
            e = WRAPPERS[wrap](e)
        env, store = {"f": _IDENTITY, "r": LocV(0)}, Store({0: 0})
        out = agree_at_every_fuel(wrap, e, env, store, sweep=0)
        assert isinstance(out, interpreter.DepthExceeded) == (leaf_depth == definitional.MAX_DEPTH)

    @pytest.mark.parametrize(
        "src",
        [
            "let w = (f: low) => f f\nw w",
            "\n".join(f"let x{i} = {i}" for i in range(2499)) + "\nx0",
            "let y = 0" + " + 1" * 2499 + "\ny",
            "let r = ref(0)\nr := 0" + " + 1" * 2499,
            "let f = (x: low) => x" + " + 1" * 2497 + "\nf 1\n0 + f 1",
            "let r = ref(1)\nwhile !r == 1 { r := 0" + " + 1" * 2496 + " }\n!r",
            "let r = ref(1)\nwhile !r == 1 { r := 0" + " + 1" * 2497 + " }\n!r",
        ],
        ids=["self-application", "long-chain", "let-chain", "assign-chain", "two-call-sites",
             "while-body-ok", "while-body-depth"],
    )
    def test_programs_that_nest_to_the_limit(self, src):
        agree_at_every_fuel(src[:40], parse(src), {}, Store(), sweep=0)
