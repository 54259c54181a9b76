"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single PASS line with its
runtime. Budgets are asserted, not advisory: corpus under 1s, the main
soundness suite under 2 minutes, lattice laws under 5s.
"""

import json
import random
import time

import numpy as np
import pytest

from rescheck import (
    EMPTY,
    FunType,
    GenConfig,
    LatticeError,
    ParseError,
    RefType,
    enumerate_types,
    gen_lowequiv_states,
    gen_tenv,
    gen_welltyped,
    join,
    leq,
    meet,
    parse,
    run_corpus,
    run_program,
    run_suite,
)
from rescheck.cli import main
from rescheck.interpreter import DepthExceeded, IntV, Ok, _Evaluator, _Stop
from rescheck.syntax import LOW, Bop, For, If, While, pretty

import astgen


def _report(name: str, started: float, budget: float | None = None) -> None:
    dt = time.perf_counter() - started
    if budget is not None:
        assert dt < budget, f"{name} took {dt:.2f}s, budget {budget}s"
    print(f"{name}: PASS ({dt:.2f}s)")


def test_criterion_1_corpus_verdicts():
    t0 = time.perf_counter()
    report = run_corpus()
    assert report.ok, "\n" + report.summary()
    accepted_controls = [
        r for r in report.rows
        if r.file.startswith("control_") and r.actual_verdict == "accept"
    ]
    assert len(accepted_controls) >= 3
    _report("criterion 1 (corpus verdicts)", t0, budget=1.0)


def test_criterion_2_soundness_suite():
    t0 = time.perf_counter()
    report = run_suite("soundness", GenConfig(rng_seed=42), trials=1000)
    assert report.violations == [], report.violations[:3]
    assert report.discarded / report.trials < 0.30
    _report("criterion 2 (soundness, 1000 trials)", t0, budget=120.0)


@pytest.mark.parametrize("suite", ["lemma1", "lemma2", "lemma5"])
def test_criterion_3_lemma_suites(suite):
    t0 = time.perf_counter()
    report = run_suite(suite, GenConfig(rng_seed=42), trials=500)
    assert report.violations == [], report.violations[:3]
    _report(f"criterion 3 ({suite}, 500 trials)", t0)


def _erase(t):
    """Collapse latent effects, which the order ignores by definition."""
    if isinstance(t, FunType):
        return FunType(_erase(t.param), _erase(t.result), EMPTY)
    return t


def _ref_free(t):
    if isinstance(t, RefType):
        return False
    if isinstance(t, FunType):
        return _ref_free(t.param) and _ref_free(t.result)
    return True


def _least_upper_table(R):
    """Scan oracle: for every pair, the least upper bound class if one exists.

    R is the boolean order matrix of a universe where antisymmetry is
    genuine, so least elements are unique. Returns (exists, idx) arrays.
    """
    n = R.shape[0]
    Rf = R.astype(np.float32)
    exists = np.zeros((n, n), bool)
    idx = np.full((n, n), -1)
    count = np.zeros((n, n), np.int16)
    for u in range(n):
        # u beats every other upper bound v of {a, b} iff no v refutes it
        refuters = (R & ~R[u]).astype(np.float32)  # [a, v]
        bad = (refuters @ Rf.T) > 0.5  # [a, b]: some ub v of b with not u<=v
        is_ub = R[:, u][:, None] & R[:, u][None, :]
        least = is_ub & ~bad
        exists |= least
        idx[least] = u
        count += least
    assert count.max() <= 1, "least upper bounds must be unique"
    return exists, idx


def test_criterion_4_lattice_laws():
    t0 = time.perf_counter()
    universe = enumerate_types(2)
    assert len(universe) == 3077
    assert len(set(universe)) == 3077

    # Quotient by latent erasure. Latents never participate in the order,
    # so each erased class has one order behavior; the quotient is small
    # enough to compare every pair and triple directly.
    classes: list = []
    class_of: dict = {}
    for t in universe:
        e = _erase(t)
        if e not in class_of:
            class_of[e] = len(classes)
            classes.append(e)
    nq = len(classes)
    assert nq == 201
    e_idx = np.array([class_of[_erase(t)] for t in universe])

    RQ = np.array([[leq(a, b) for b in classes] for a in classes])

    # The full-universe order must coincide with the quotient lift. Checked
    # directly on: every pair touching a non-function type, every pair of
    # depth-1 types, every function against every depth-1 type, and a
    # deterministic even-stride sweep of deep function pairs.
    nonfun = [(t, class_of[t]) for t in universe if not isinstance(t, FunType)]
    assert len(nonfun) == 5
    for a, ca in nonfun:
        for j, b in enumerate(universe):
            assert leq(a, b) == RQ[ca, e_idx[j]]
            assert leq(b, a) == RQ[e_idx[j], ca]
    shallow = enumerate_types(1)
    s_idx = [class_of[_erase(t)] for t in shallow]
    for a, ca in zip(shallow, s_idx):
        for b, cb in zip(shallow, s_idx):
            assert leq(a, b) == RQ[ca, cb]
    funs = [t for t in universe if isinstance(t, FunType)]
    f_idx = [class_of[_erase(t)] for t in funs]
    for f, cf in zip(funs, f_idx):
        for b, cb in zip(shallow, s_idx):
            assert leq(f, b) == RQ[cf, cb]
            assert leq(b, f) == RQ[cb, cf]
    nf = len(funs)
    stride, total = 12157, 300_000
    space = nf * nf
    for j in range(total):
        k = (j * stride) % space
        ia, ib = k // nf, k % nf
        assert leq(funs[ia], funs[ib]) == RQ[f_idx[ia], f_idx[ib]]

    R = RQ[np.ix_(e_idx, e_idx)]  # full 3077x3077 order via the lift

    # Reflexivity holds exactly on types with no reference component; a
    # reference is never comparable, not even to itself, so reflexivity on
    # ref-containing types is asserted false rather than skipped.
    refl = np.array([_ref_free(t) for t in universe])
    for i, t in enumerate(universe):
        assert leq(t, t) == refl[i]
    assert np.array_equal(np.diag(R), refl)

    # Antisymmetry: genuine on the quotient; modulo latent erasure overall.
    assert not np.any(RQ & RQ.T & ~np.eye(nq, dtype=bool))
    rows, cols = np.nonzero(R & R.T)
    assert np.array_equal(e_idx[rows], e_idx[cols])

    # Transitivity, every triple: boolean closure must not leave the order.
    RQf = RQ.astype(np.float32)
    assert not np.any(((RQf @ RQf) > 0.5) & ~RQ)
    Rf = R.astype(np.float32)
    assert not np.any(((Rf @ Rf) > 0.5) & ~R)

    # join/meet against the scan oracle, every quotient pair. The
    # implementation resolves exactly the comparable pairs; for those the
    # oracle's least upper bound must be the greater operand.
    lub_exists, lub_idx = _least_upper_table(RQ)
    glb_exists, glb_idx = _least_upper_table(RQ.T)
    comparable = RQ | RQ.T
    expect_max = np.where(RQ, np.arange(nq)[None, :], np.arange(nq)[:, None])
    assert np.all(lub_exists[comparable])
    assert np.array_equal(lub_idx[comparable], expect_max[comparable])
    expect_min = np.where(RQ, np.arange(nq)[:, None], np.arange(nq)[None, :])
    assert np.all(glb_exists[comparable])
    assert np.array_equal(glb_idx[comparable], expect_min[comparable])

    def raises_incomparable(op, a, b):
        try:
            op([a, b])
        except LatticeError:
            return True
        return False

    for i, a in enumerate(classes):
        for j, b in enumerate(classes):
            if comparable[i, j]:
                assert join([a, b]) == classes[lub_idx[i, j]]
                assert meet([a, b]) == classes[glb_idx[i, j]]
            else:
                assert raises_incomparable(join, a, b)
                assert raises_incomparable(meet, a, b)

    # Incomparable pairs that still have a bound in the universe are all
    # function-function pairs (pointwise bounds the pairwise join does not
    # construct). The checker never joins two bare functions: every rule
    # join includes a base level, which no function relates to.
    gap = ~comparable & (lub_exists | glb_exists)
    gi, gj = np.nonzero(gap)
    assert len(gi) > 0
    isfun = np.array([isinstance(c, FunType) for c in classes])
    assert np.all(isfun[gi]) and np.all(isfun[gj])

    # Spot the same contract on the full universe, even stride.
    for j in range(20_000):
        k = (j * stride) % (3077 * 3077)
        a, b = universe[k // 3077], universe[k % 3077]
        if leq(a, b):
            assert join([a, b]) == b and meet([a, b]) == a
        elif leq(b, a):
            assert join([a, b]) == a and meet([a, b]) == b
        else:
            assert raises_incomparable(join, a, b)

    _report("criterion 4 (lattice laws, depth-2 universe)", t0, budget=5.0)


def test_criterion_5_parser_round_trip_and_fuzz():
    t0 = time.perf_counter()
    rng = random.Random(1234)
    for i in range(10_000):
        tree = astgen.gen_expr(rng, rng.randint(0, 5))
        text = pretty(tree)
        assert parse(text) == tree, f"round-trip #{i} failed:\n{text}"

    fuzz = random.Random(99)
    outcomes = {"ok": 0, "parse-error": 0}
    for _ in range(10_000):
        blob = fuzz.randbytes(fuzz.randint(0, 80))
        try:
            parse(blob)
            outcomes["ok"] += 1
        except ParseError:
            outcomes["parse-error"] += 1
        # anything else propagates and fails the test
    assert sum(outcomes.values()) == 10_000
    _report("criterion 5 (round-trip and fuzz)", t0)


class _EnvAudit(_Evaluator):
    """Evaluator that checks env restoration on every rule application."""

    forms = (If, While, For, Bop)
    audited = 0

    def eval(self, e, env):
        v, out_env = super().eval(e, env)
        if isinstance(e, self.forms):
            assert out_env == env, f"{type(e).__name__} leaked bindings"
            _EnvAudit.audited += 1
        return v, out_env


def test_criterion_6_interpreter_goldens():
    t0 = time.perf_counter()

    aliasing = parse("let l = ref(2)\nlet h = l\nh := 4\n!l")
    out = run_program(aliasing, 100)
    assert isinstance(out, Ok)
    assert out.value == IntV(4)
    assert out.state.store.data == {0: IntV(4)}

    loop = parse("let s = ref(0)\nfor i in 1 to 3 { s := !s + i }\n!s")
    out = run_program(loop, 100)
    assert isinstance(out, Ok)
    assert out.value == IntV(sum(range(1, 3 + 1)))  # hand oracle

    # env restoration across every generated run
    for seed in range(60):
        cfg = GenConfig(rng_seed=seed)
        tenv = gen_tenv(cfg)
        prog = gen_welltyped(cfg, tenv, LOW)
        s1, s2 = gen_lowequiv_states(cfg, tenv)
        for state in (s1, s2):
            ev = _EnvAudit(state.store.copy(), cfg.fuel)
            try:
                ev.eval(prog, dict(state.env))
            except _Stop as stop:
                # fuel and faults end a run; nesting too deep fails the test
                assert not isinstance(stop.outcome, DepthExceeded), stop.outcome
    assert _EnvAudit.audited > 100, "generated runs must exercise the forms"
    _report("criterion 6 (interpreter goldens)", t0)


def test_criterion_7_reports_are_byte_identical(capsys):
    t0 = time.perf_counter()
    args = ["nitest", "--trials", "200", "--seed", "7", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)  # well-formed JSON
    _report("criterion 7 (byte-identical reports)", t0)
