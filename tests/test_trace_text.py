"""The checker's trace text: each node rendered once per check, same text.

Every rule application records its expression as source text. The checker
passes one memo per check to `pretty`, so a node's text is built once and
reused by every ancestor's frame instead of being rebuilt for each of them.
A sequence's `second` is not printed at all: its frame slices the text of
the sequence's own frame. These tests pin both halves: the number of
renders and `pretty` calls, and that the text is exactly what `pretty`
without a memo gives.
"""

import json
import random
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from rescheck import LOW, App, Expr, Seq, parse, syntax, trace_check, typechecker
from rescheck.cli import main
from rescheck.harness import default_corpus_dir
from rescheck.syntax import pretty

import astgen

GOLDEN = Path(__file__).with_name("check_trace_golden.json")


def straight_source(n: int) -> str:
    """n statements: lets, annotated lets, assignments, functions, calls."""
    rng = random.Random(n)
    lines = ["let r0 = ref(1)", "let v0 = 2", "let f0 = (x: low) => x + 3"]
    for k in range(len(lines), n - 1):
        c = rng.randint(1, 9)
        lines.append(
            [
                f"let v{k} = v0 + {c}",
                f"let s{k}: high = v0 * {c}",
                f"r0 := v0 - {c}",
                f"let f{k} = (x: low) => x * {c}",
                f"let v{k} = f0 v0",
            ][k % 5]
        )
    lines.append("!r0")
    return "\n".join(lines)


def nested_source(levels: int) -> str:
    """`levels` nested if/while blocks with two statements per level."""
    lines = ["let r0 = ref(1)", "let w0 = 2"]
    for k in range(1, levels + 1):
        guard = f"w{k - 1} < {k + 10}"
        lines.append(f"if {guard} {{" if k % 2 else f"while {guard} {{")
        lines.append(f"let w{k} = w{k - 1} + 1")
    lines.append(f"r0 := w{levels}")
    for k in range(levels, 0, -1):
        lines.append("} else { 0 }" if k % 2 else "}")
    lines.append("!r0")
    return "\n".join(lines)


def blocks_source(levels: int) -> str:
    """`levels` nested if/while/for blocks of four statements each, the last
    being the next level's block, so each block is a chain of `Seq`s."""
    lines = ["let r0 = ref(1)", "let w0 = 2"]
    for k in range(1, levels + 1):
        lines.append(
            [f"for i{k} in 1 to w{k - 1} {{", f"if w{k - 1} < {k + 10} {{", f"while !r0 < {k} {{"][k % 3]
        )
        lines += [f"let a{k} = w{k - 1} + 1", f"r0 := a{k}", f"let w{k} = a{k} * 2"]
    lines.append(f"r0 := w{levels}")
    for k in range(levels, 0, -1):
        lines.append("} else { 0 }" if k % 3 == 1 else "}")
    lines.append("!r0")
    return "\n".join(lines)


def children(e: Expr) -> list[Expr]:
    """Sub-expressions in the order the checker visits them (App types its
    argument before the function)."""
    kids = [v for f in fields(e) if isinstance(v := getattr(e, f.name), Expr)]
    return kids[::-1] if isinstance(e, App) else kids


def preorder(e: Expr):
    yield e
    for k in children(e):
        yield from preorder(k)


def top_level_spine(e: Expr) -> list[Expr]:
    """The Seq nodes `pretty` prints one statement per line; it never hands
    them to the per-node renderer."""
    spine = []
    while isinstance(e, Seq):
        spine.append(e)
        e = e.second
    return spine


PROGRAMS = {
    "straight-200": lambda: parse(straight_source(200)),
    "nested-80": lambda: parse(nested_source(80)),
    "blocks-60": lambda: parse(blocks_source(60)),
}


def sequence_tails(e: Expr) -> set[int]:
    """The ids of the nodes that are some Seq's `second`: their frames take
    their text as a slice of the Seq frame's text."""
    return {id(s.second) for s in preorder(e) if isinstance(s, Seq)}


@pytest.mark.parametrize("name", PROGRAMS)
def test_each_node_is_rendered_once_per_check(name, monkeypatch):
    tree = PROGRAMS[name]()
    nodes = list(preorder(tree))
    rendered = Counter()
    render = syntax._render

    def counting(e, *args):
        rendered[id(e)] += 1
        return render(e, *args)

    monkeypatch.setattr(syntax, "_render", counting)
    trace_check({}, LOW, tree)
    # A chain's statements are rendered one by one, never the Seqs that
    # link them, and a top-level chain is not rendered as a whole either.
    links = {id(n) for n in nodes if isinstance(n, Seq)} & sequence_tails(tree)
    unrendered = {id(s) for s in top_level_spine(tree)} | links
    assert sum(rendered.values()) == len(nodes) - len(unrendered)
    assert set(rendered) == {id(n) for n in nodes} - unrendered
    assert max(rendered.values()) == 1


@pytest.mark.parametrize("name", PROGRAMS)
def test_frame_text_equals_pretty_without_memo(name, monkeypatch):
    tree = PROGRAMS[name]()
    seen = []
    traced = typechecker.pretty

    def spy(e, *args):
        seen.append(e)
        return traced(e, *args)

    monkeypatch.setattr(typechecker, "pretty", spy)
    _, log = trace_check({}, LOW, tree)
    nodes = list(preorder(tree))
    assert [f.expr for f in log] == [pretty(e) for e in nodes]
    tails = sequence_tails(tree)
    assert len(seen) == len(log) - len(tails)
    assert [id(e) for e in seen] == [id(e) for e in nodes if id(e) not in tails]


@pytest.mark.parametrize("name", PROGRAMS)
def test_sequence_tail_frames_share_one_text(name):
    tree = PROGRAMS[name]()
    _, log = trace_check({}, LOW, tree)
    frame = {id(e): f for e, f in zip(preorder(tree), log, strict=True)}
    seqs = [e for e in preorder(tree) if isinstance(e, Seq)]
    assert seqs
    for s in seqs:
        assert frame[id(s.second)].text is frame[id(s)].text
        assert frame[id(s.second)].start > frame[id(s)].start


@pytest.mark.parametrize("n", [200, 400])
def test_trace_text_costs_linear_formatting(n, monkeypatch):
    """Each check formats O(nodes) subtrees. Formatting each spine suffix
    for its own frame would cost a number of `_fmt` calls quadratic in the
    program's length."""
    tree = parse(straight_source(n))
    calls = 0
    fmt = syntax._fmt

    def counting(*args):
        nonlocal calls
        calls += 1
        return fmt(*args)

    monkeypatch.setattr(syntax, "_fmt", counting)
    trace_check({}, LOW, tree)
    assert calls <= 2 * len(list(preorder(tree)))


def test_memo_gives_the_same_text_for_every_subtree():
    rng = random.Random(2024)
    kinds = set()
    for i in range(3000):
        tree = astgen.gen_expr(rng, rng.randint(0, 5))
        memo = {}
        for sub in preorder(tree):
            kinds.add(type(sub))
            assert pretty(sub, memo) == pretty(sub), f"tree #{i}: {sub!r}"
    assert len(kinds) == 15


def test_check_json_trace_matches_golden(capsys):
    golden = json.loads(GOLDEN.read_text())
    corpus = sorted(p.name for p in default_corpus_dir().glob("*.resc"))
    assert corpus == sorted(golden)
    for name in corpus:
        code = main(["check", "--json", "--trace", str(default_corpus_dir() / name)])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (golden[name]["exit"], golden[name]["stdout"], ""), name
