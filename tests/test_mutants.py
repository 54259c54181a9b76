"""Witnesses for the checker's level conditions.

A mutant of the checker waives one `(rule, condition)` key: its `fail`
returns for that key instead of raising. A harness can kill such a mutant
only with a program that the condition alone rejects. For each of the nine
`fail` sites of the eight live level conditions, this module pins one such
witness: the real checker rejects it with exactly that key, and the checker
with only that key waived accepts it. Every witness is typed in `TENV` at
pc Low.
"""

import pytest

from rescheck import EMPTY, HIGH, LOW, CheckError, FunType, RefType, check, parse, typechecker

TENV = {
    "h": HIGH,
    "rl": RefType(LOW),
    "f": FunType(LOW, LOW, EMPTY),
    "g": FunType(LOW, LOW, LOW),
}

WITNESSES = [
    ("Let-n", "t1 ⊒ t2", "let x: low = h"),
    ("Let-n", "t1 ⊒ pc", "if h == 0 { let x: low = 1 } else { 0 }"),
    ("Let-Base", "t1 ⊒ pc", "if h == 0 { let x = 1 } else { 0 }"),
    ("Let-Base-Ref", "t3 ⊒ pc", "if h == 0 { let r = ref(1) } else { 0 }"),
    ("Let-Base-Func", "Low ⊒ pc", "if h == 0 { let k = (x: low) => x } else { 0 }"),
    ("Let-Base-Func", "Low ⊒ pc", "if h == 0 { let k = f } else { 0 }"),
    ("App", "t6 ⊒ pc1", "if h == 0 { g 1 } else { 0 }"),
    ("Reassign", "t3 ⊒ t1", "rl := h"),
    ("Reassign", "t3 ⊒ pc", "if h == 0 { rl := 0 } else { 0 }"),
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
def test_the_checker_with_that_key_waived_accepts_it(rule, cond, src, monkeypatch):
    fail = typechecker._Checker.fail

    def waiving(self, r, c, e):
        if (r, c) != (rule, cond):
            fail(self, r, c, e)

    monkeypatch.setattr(typechecker._Checker, "fail", waiving)
    check(dict(TENV), LOW, parse(src))


def test_each_witness_fails_at_its_own_site():
    sites = {fail_site(src) for _, _, src in WITNESSES}
    assert len(sites) == len(WITNESSES) == 9
    assert len({key[:2] for key in sites}) == 8
