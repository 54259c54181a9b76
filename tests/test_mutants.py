"""The checker's mutants and their witnesses (see `mutants`).

Reach: a harness can kill a waiver mutant only with a program that its
condition alone rejects. For each of the nine `fail` sites of the eight
waivable level conditions, one such witness is pinned: the real checker
rejects it with exactly that key, and the checker with only that key waived
accepts it. Every reach witness is typed in `TENV` at pc Low.

Leaks: each weakening mutant's own witness makes a trial of its suite report
a violation under the mutant, and the real checker rejects it. Each
strengthening mutant rejects a witness that the real checker accepts.
"""

from dataclasses import replace

import pytest

import mutants
from rescheck import (
    EMPTY,
    HIGH,
    LOW,
    CheckError,
    FunType,
    GenConfig,
    RefType,
    Violation,
    check,
    harness,
    parse,
    typechecker,
)
from suites import MODES

TENV = {
    "h": HIGH,
    "rl": RefType(LOW),
    "f": FunType(LOW, LOW, EMPTY),
    "g": FunType(LOW, LOW, LOW),
}

# Each waiver's reach witnesses, one per `fail` site of its key.
REACH = {
    "Let-n t1 ⊒ t2": ["let x: low = h"],
    "Let-n t1 ⊒ pc": ["if h == 0 { let x: low = 1 } else { 0 }"],
    "Let-Base t1 ⊒ pc": ["if h == 0 { let x = 1 } else { 0 }"],
    "Let-Base-Ref t3 ⊒ pc": ["if h == 0 { let r = ref(1) } else { 0 }"],
    "Let-Base-Func Low ⊒ pc": [
        "if h == 0 { let k = (x: low) => x } else { 0 }",
        "if h == 0 { let k = f } else { 0 }",
    ],
    "App t6 ⊒ pc1": ["if h == 0 { g 1 } else { 0 }"],
    "Reassign t3 ⊒ t1": ["rl := h"],
    "Reassign t3 ⊒ pc": ["if h == 0 { rl := 0 } else { 0 }"],
}

WITNESSES = [
    (*m.waive, src) for m in mutants.MUTANTS if m.waive is not None for src in REACH[m.name]
]

IDS = [f"{rule} {cond} {src}" for rule, cond, src in WITNESSES]


def fail_site(src: str) -> tuple[str, str, int]:
    """The key the real checker rejects `src` with, and the line of its `fail` call."""
    with pytest.raises(CheckError) as err:
        check(dict(TENV), LOW, parse(src))
    tb = err.tb
    while tb.tb_next.tb_frame.f_code is not typechecker._Checker.fail.__code__:
        tb = tb.tb_next
    return err.value.rule, err.value.condition, tb.tb_lineno


@pytest.mark.parametrize("rule, cond, src", WITNESSES, ids=IDS)
def test_the_real_checker_rejects_the_witness_with_its_key(rule, cond, src):
    assert fail_site(src)[:2] == (rule, cond)


@pytest.mark.parametrize("rule, cond, src", WITNESSES, ids=IDS)
def test_the_checker_with_that_key_waived_accepts_it(rule, cond, src):
    (mutant,) = [m for m in mutants.MUTANTS if m.waive == (rule, cond)]
    with mutants.installed(mutant):
        check(dict(TENV), LOW, parse(src))


def test_each_witness_fails_at_its_own_site():
    sites = {fail_site(src) for _, _, src in WITNESSES}
    assert len(sites) == len(WITNESSES) == 9
    assert len({key[:2] for key in sites}) == len(mutants.WAIVABLE) == 8


def by_name(ms):
    return pytest.mark.parametrize("mutant", ms, ids=[m.name for m in ms])


@by_name(mutants.WEAKENING)
def test_the_real_checker_rejects_the_leaking_witness(mutant):
    pc, _ = MODES[mutant.suite]
    with pytest.raises(CheckError):
        check(dict(mutants.TENV), pc, parse(mutant.witness))


@by_name(mutants.WEAKENING)
def test_a_trial_of_the_witness_under_its_mutant_is_a_violation(mutant, monkeypatch):
    pc, _ = MODES[mutant.suite]
    prog = parse(mutant.witness)
    suite = replace(
        harness._SUITE_TABLE[mutant.suite], program=lambda cfg, tenv: (prog, check(tenv, pc, prog))
    )
    monkeypatch.setattr(harness, "gen_tenv", lambda cfg: dict(mutants.TENV))
    monkeypatch.setattr(harness, "gen_lowequiv_states", lambda cfg, tenv: mutants.states())
    with mutants.installed(mutant):
        result = harness._trial(suite, GenConfig(rng_seed=0))
    assert isinstance(result, Violation), result


@by_name(mutants.STRENGTHENING)
def test_the_strengthened_checker_rejects_the_accepted_witness(mutant):
    prog = parse(mutant.witness)
    check(dict(mutants.TENV), LOW, prog)  # must not raise
    with mutants.installed(mutant), pytest.raises(CheckError):
        check(dict(mutants.TENV), LOW, prog)


@by_name(mutants.MUTANTS)
def test_installed_changes_one_thing_and_restores_the_checker(mutant):
    fail, rules = typechecker._Checker.fail, dict(typechecker._RULES)
    with pytest.raises(RuntimeError), mutants.installed(mutant):
        swapped = [cls for cls, entry in typechecker._RULES.items() if entry is not rules[cls]]
        waived = typechecker._Checker.fail is not fail
        assert (waived, swapped) == ((True, []) if mutant.waive else (False, [mutant.swap[0]]))
        raise RuntimeError("the body fails")
    assert typechecker._Checker.fail is fail
    assert typechecker._RULES.keys() == rules.keys()
    assert all(typechecker._RULES[cls] is entry for cls, entry in rules.items())
