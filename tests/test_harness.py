"""Randomized-testing harness: generators, trial runners, reports, corpus."""

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from rescheck import (
    EMPTY,
    HIGH,
    LOW,
    App,
    BoolV,
    ClosV,
    CorpusReport,
    DepthExceeded,
    Discarded,
    Expr,
    FunType,
    GenConfig,
    IntV,
    LocV,
    Pass,
    RefType,
    State,
    Store,
    UnitV,
    Violation,
    check,
    gen_lowequiv_states,
    gen_tenv,
    gen_welltyped,
    low_equiv,
    parse,
    pretty,
    pretty_type,
    run_corpus,
    run_suite,
    trace_check,
    well_formed,
)
from rescheck import harness
from rescheck.harness import SUITES, _TRIAL_FNS
from rescheck.syntax import Empty, High, Num
from suites import MODES


class TestGenTenv:
    def test_deterministic_in_the_seed(self):
        a = gen_tenv(GenConfig(rng_seed=7))
        b = gen_tenv(GenConfig(rng_seed=7))
        assert a == b
        assert a != gen_tenv(GenConfig(rng_seed=8))

    def test_golden_environment(self):
        assert gen_tenv(GenConfig(rng_seed=42)) == {
            "ri0": RefType(LOW),
            "rb1": RefType(LOW),
        }

    def test_all_types_are_well_formed(self):
        for seed in range(100):
            for t in gen_tenv(GenConfig(rng_seed=seed)).values():
                assert well_formed(t)

    def test_sizes_stay_in_range(self):
        sizes = {len(gen_tenv(GenConfig(rng_seed=s))) for s in range(200)}
        assert sizes <= set(range(7))
        assert 0 in sizes  # some environments are empty
        assert max(sizes) >= 4


class TestDraws:
    """The generator's draws are the stdlib's, from the same stream."""

    SIZES = [*range(1, 71), *(2**k for k in range(63))]  # len() fits a C ssize_t
    RANGES = [
        harness.INT_RANGE, (1, harness.MAX_FOR_SPAN), (0, harness.MAX_FOR_SPAN),
        (0, 6), (1, 3), (1, 8), (-2, 2), (5, 5),
    ]

    @staticmethod
    def draws(rng):
        # one interleaved sequence, so each draw must leave the stream where
        # the stdlib's would
        out = []
        for n in TestDraws.SIZES:
            out += [rng.choice(range(n)), rng.random()]
        for a, b in TestDraws.RANGES:
            out += [rng.randint(a, b) for _ in range(20)]
        out += [rng.choice("abc") for _ in range(20)]
        return out

    def test_choice_randint_and_random_match_the_stdlib(self):
        for seed in range(50):
            assert self.draws(harness._Gen(random.Random(seed))) == self.draws(random.Random(seed))

    def test_choice_from_an_empty_sequence_raises(self):
        with pytest.raises(IndexError):
            harness._Gen(random.Random(0)).choice([])

    def test_randint_over_an_empty_range_raises(self):
        # without the check, a width of 0 or less would draw forever
        for a, b in [(1, 0), (0, -3)]:
            with pytest.raises(ValueError):
                harness._Gen(random.Random(0)).randint(a, b)


class TestGenWelltyped:
    def test_always_typechecks(self):
        for seed in range(60):
            cfg = GenConfig(rng_seed=seed)
            tenv = gen_tenv(cfg)
            prog = gen_welltyped(cfg, tenv, LOW)
            check(dict(tenv), LOW, prog)  # must not raise

    def test_deterministic_in_the_seed(self):
        cfg = GenConfig(rng_seed=9)
        tenv = gen_tenv(cfg)
        assert gen_welltyped(cfg, tenv, LOW) == gen_welltyped(cfg, tenv, LOW)

    # sha256 over `pretty` of the programs for seeds 0-499, each followed by
    # a NUL byte; a change to the generator's random stream moves it
    DIGESTS = {
        "soundness": "c3474e2d35674976b510d2fdf2326f8a6438803b5d2f4cb02fd38a5a222eb2d4",
        "lemma1": "c3474e2d35674976b510d2fdf2326f8a6438803b5d2f4cb02fd38a5a222eb2d4",
        "lemma2": "a3a9042ea6743b6e576e7fe4ff8ed7906bf58c100e27d4abc63aa6127fcaed84",
        "lemma5": "177b86cc1a13f9dbcea96348992577ec0e7b37a8754c1e9941eb433e226a2e72",
    }

    @pytest.mark.parametrize("suite", SUITES)
    def test_programs_match_recorded_digest(self, suite):
        pc, clean = MODES[suite]
        digest = hashlib.sha256()
        for seed in range(500):
            cfg = GenConfig(rng_seed=seed)
            prog = gen_welltyped(cfg, gen_tenv(cfg), pc, effect_clean=clean)
            digest.update(pretty(prog).encode() + b"\0")
        assert digest.hexdigest() == self.DIGESTS[suite]

    @pytest.mark.parametrize("suite", SUITES)
    def test_each_suite_draws_in_its_recorded_mode(self, suite, monkeypatch):
        # tests draw a suite's programs with MODES, so its source must too
        modes, real = set(), harness.gen_welltyped

        def gen_welltyped(cfg, tenv, pc, effect_clean=False):
            modes.add((pc, effect_clean))
            return real(cfg, tenv, pc, effect_clean)

        monkeypatch.setattr(harness, "gen_welltyped", gen_welltyped)
        for seed in range(20):
            cfg = GenConfig(rng_seed=seed)
            harness._SUITE_TABLE[suite].program(cfg, gen_tenv(cfg))
        assert modes == {MODES[suite]}

    def test_misses_in_any_order_reach_one_table(self):
        # dropping let_base then let_ref, or let_ref then let_base
        t = harness._STMTS
        assert t.without(1).without(2) is t.without(3).without(1)
        assert t.without(1).without(2).items == [
            item for k, item in enumerate(t.items) if k not in (1, 3)
        ]

    def test_a_subclass_override_of_a_builder_is_called(self):
        # the tables name their builders, so `draw` finds each on the generator
        calls = []

        class Counting(harness._Gen):
            def _stmt_while(self, ctx, pc, depth):
                calls.append(depth)
                return super()._stmt_while(ctx, pc, depth)

        class NoLoops(harness._Gen):
            def _stmt_while(self, ctx, pc, depth):
                return None  # a miss: draw moves on to the other statements

        loops = 0
        for seed in range(60):
            plain = harness._Gen(random.Random(seed)).gen_program({}, LOW, harness.MAX_DEPTH)
            assert Counting(random.Random(seed)).gen_program({}, LOW, harness.MAX_DEPTH) == plain
            loops += pretty(plain).count("while ")
            prog = NoLoops(random.Random(seed)).gen_program({}, LOW, harness.MAX_DEPTH)
            assert "while " not in pretty(prog)
        assert loops > 0 and len(calls) >= loops

    def test_programs_vary_with_the_seed(self):
        progs = {
            gen_welltyped(GenConfig(rng_seed=s), {}, LOW) for s in range(30)
        }
        assert len(progs) > 20

    def test_high_pc_programs_have_quiet_effects(self):
        # everything typeable under a high pc writes at High or not at all
        for seed in range(60):
            cfg = GenConfig(rng_seed=seed)
            tenv = gen_tenv(cfg)
            prog = gen_welltyped(cfg, tenv, HIGH)
            j = check(dict(tenv), HIGH, prog)
            assert isinstance(j.effect, (High, Empty))

    def test_effect_clean_mode_avoids_low_writes(self):
        for seed in range(60):
            cfg = GenConfig(rng_seed=seed)
            tenv = gen_tenv(cfg)
            prog = gen_welltyped(cfg, tenv, LOW, effect_clean=True)
            j = check(dict(tenv), LOW, prog)
            assert isinstance(j.effect, (High, Empty))

    RULES = {
        "Num", "Bool", "Unit", "Var", "Bop", "Let-n", "Let-Base", "Let-Base-Func",
        "Let-Base-Ref", "If-Else", "While", "For", "Seq", "Func", "App", "Ref",
        "Deref", "Reassign",
    }

    @pytest.mark.parametrize(
        "pc, clean", [(LOW, False), (HIGH, False), (LOW, True)], ids=["low", "high", "clean"]
    )
    def test_every_mode_keeps_its_test_power(self, pc, clean, monkeypatch):
        # every expression request builds; under a High floor (high pc or
        # effect-clean) nothing writes Low and no function is bound
        built_nothing = []
        real = harness._Gen.gen_expr

        def gen_expr(gen, *args):
            got = real(gen, *args)
            if got is None:
                built_nothing.append(args)
            return got

        monkeypatch.setattr(harness._Gen, "gen_expr", gen_expr)
        rules = set()
        for seed in range(300):
            cfg = GenConfig(rng_seed=seed)
            tenv = gen_tenv(cfg)
            prog = gen_welltyped(cfg, tenv, pc, effect_clean=clean)
            j, log = trace_check(dict(tenv), pc, prog)
            if (pc, clean) != (LOW, False):
                assert isinstance(j.effect, (High, Empty))
            rules.update(f.rule for f in log)
        assert built_nothing == []
        if (pc, clean) == (LOW, False):
            assert rules == self.RULES
        else:
            assert rules == self.RULES - {"Let-Base-Func", "Func"}

    def test_effectful_tenv_functions_are_never_applied(self):
        # expressions are effect-free by construction: a function with a
        # latent effect stays in scope but no App calls it, and every
        # function the program binds has latent ()
        tenv = {
            "f0": FunType(LOW, LOW, LOW),
            "f1": FunType(HIGH, HIGH, HIGH),
            "i2": HIGH,
            "ri3": RefType(LOW),
        }

        def applied(e):
            if isinstance(e, App):
                yield e.fn.name
            for f in dataclasses.fields(e):
                v = getattr(e, f.name)
                if isinstance(v, Expr):
                    yield from applied(v)

        for pc, clean in [(LOW, False), (HIGH, False), (LOW, True)]:
            for seed in range(300):
                prog = gen_welltyped(GenConfig(rng_seed=seed), tenv, pc, effect_clean=clean)
                j = check(dict(tenv), pc, prog)
                assert not {"f0", "f1"} & set(applied(prog))
                bound = [t for n, t in j.out_env.items() if n.startswith("f") and n not in tenv]
                assert all(t.latent == EMPTY for t in bound)


    def test_names_whose_prefix_is_not_their_type_are_left_alone(self):
        # a filter tests the type before the shape, so a level named like a
        # ref or a function is never dereferenced or applied
        tenv = {"ri0": HIGH, "f1": LOW, "i2": HIGH}
        for pc, clean in [(LOW, False), (HIGH, False), (LOW, True)]:
            for seed in range(100):
                prog = gen_welltyped(GenConfig(rng_seed=seed), tenv, pc, effect_clean=clean)
                check(dict(tenv), pc, prog)  # must not raise

    def test_names_without_a_shape_prefix_take_the_type_fallbacks(self):
        # no prefix: a ref holds an int, a function gets a closure, the rest are ints
        tenv = {"x": LOW, "r": RefType(HIGH), "g": FunType(LOW, LOW, EMPTY)}
        for seed in range(200):
            cfg = GenConfig(rng_seed=seed)
            s1, _ = gen_lowequiv_states(cfg, tenv)
            assert isinstance(s1.env["x"], IntV) and isinstance(s1.env["g"], ClosV)
            assert isinstance(s1.store.data[s1.env["r"].loc], IntV)
            for pc, clean in MODES.values():
                prog = gen_welltyped(cfg, tenv, pc, effect_clean=clean)
                check(dict(tenv), pc, prog)  # must not raise


class TestContextIsTheOutEnv:
    """The generator's context is Γ: after a program, it is the checker's
    `out_env` for that program, binding for binding and in order."""

    @pytest.mark.parametrize("suite", SUITES)
    def test_context_after_a_program_is_the_out_env(self, suite):
        pc, clean = MODES[suite]
        base = harness._derive(0, harness._SUITE_TABLE[suite].salt)  # run_suite's trial seeds
        for i in range(250):
            cfg = GenConfig(rng_seed=harness._derive(base, i + 1))
            tenv = gen_tenv(cfg)
            rng = random.Random(harness._derive(cfg.rng_seed, harness._ROLE_PROG))
            ctx = dict(tenv)
            prog = harness._Gen(rng, clean).gen_program(ctx, pc, harness.MAX_DEPTH)
            assert prog == gen_welltyped(cfg, tenv, pc, effect_clean=clean)
            assert list(ctx.items()) == list(check(tenv, pc, prog).out_env.items())


def rename_binders(e: Expr, new) -> Expr:
    """e with every binder and every use of a name renamed by `new`."""
    changes = {}
    for f in dataclasses.fields(e):
        v = getattr(e, f.name)
        if isinstance(v, Expr):
            changes[f.name] = rename_binders(v, new)
        elif f.name in ("name", "param", "var"):
            changes[f.name] = new(v)
    return dataclasses.replace(e, **changes)


class TestWeakeningAndRenaming:
    """Over 1,000 generated programs, a judgment does not depend on unused
    bindings or on the names of the binders the program makes."""

    EXTRA = [LOW, HIGH, RefType(LOW), RefType(HIGH), FunType(HIGH, LOW, EMPTY)]

    @staticmethod
    def judged_programs():
        for seed in range(1000):
            pc, clean = MODES[SUITES[seed % len(SUITES)]]
            cfg = GenConfig(rng_seed=seed)
            tenv = gen_tenv(cfg)
            prog = gen_welltyped(cfg, tenv, pc, effect_clean=clean)
            yield tenv, pc, prog, check(tenv, pc, prog)

    def test_an_unused_binding_only_adds_itself(self):
        for k, (tenv, pc, prog, j) in enumerate(self.judged_programs()):
            t = self.EXTRA[k % len(self.EXTRA)]
            j2 = check({"z": t, **tenv}, pc, prog)
            assert (j2.ty, j2.effect) == (j.ty, j.effect)
            assert j2.out_env == {"z": t, **j.out_env}

    def test_renaming_binders_renames_the_out_env(self):
        def new(name):  # i12 -> i1012; the tenv's names, numbered below 10, stay
            prefix = name.rstrip("0123456789")
            n = int(name[len(prefix):])
            return name if n < 10 else f"{prefix}{1000 + n}"

        renamed = 0
        for tenv, pc, prog, j in self.judged_programs():
            prog2 = rename_binders(prog, new)
            j2 = check(tenv, pc, prog2)
            assert (j2.ty, j2.effect) == (j.ty, j.effect)
            assert j2.out_env == {new(n): t for n, t in j.out_env.items()}
            renamed += prog2 != prog
        assert renamed > 850  # 897 of the 1,000 programs bind a name


class TestGenStates:
    def test_states_are_low_equivalent(self):
        for seed in range(60):
            cfg = GenConfig(rng_seed=seed)
            tenv = gen_tenv(cfg)
            s1, s2 = gen_lowequiv_states(cfg, tenv)
            assert low_equiv(tenv, s1, s2)
            assert s1.env.keys() == set(tenv) == s2.env.keys()

    def test_deterministic_in_the_seed(self):
        cfg = GenConfig(rng_seed=11)
        tenv = gen_tenv(cfg)
        a1, a2 = gen_lowequiv_states(cfg, tenv)
        b1, b2 = gen_lowequiv_states(cfg, tenv)
        assert a1 == b1 and a2 == b2

    def test_low_bindings_agree_exactly(self):
        for seed in (1, 3, 42):
            cfg = GenConfig(rng_seed=seed)
            tenv = gen_tenv(cfg)
            s1, s2 = gen_lowequiv_states(cfg, tenv)
            for name, t in tenv.items():
                if t == LOW:
                    assert s1.env[name] == s2.env[name]
                if t == RefType(LOW):
                    p1 = s1.store.data[s1.env[name].loc]
                    p2 = s2.store.data[s2.env[name].loc]
                    assert p1 == p2

    def test_high_bindings_can_differ(self):
        cfg = GenConfig(rng_seed=3)  # i0, i3 are high ints here
        tenv = gen_tenv(cfg)
        s1, s2 = gen_lowequiv_states(cfg, tenv)
        highs = [n for n, t in tenv.items() if t == HIGH and n.startswith("i")]
        assert highs
        assert any(s1.env[n] != s2.env[n] for n in highs)

    def test_high_ref_pointees_can_differ(self):
        cfg = GenConfig(rng_seed=1)  # rb1, rb3 are ref high here
        tenv = gen_tenv(cfg)
        s1, s2 = gen_lowequiv_states(cfg, tenv)
        rhigh = [n for n, t in tenv.items() if t == RefType(HIGH)]
        assert rhigh
        assert any(
            s1.store.data[s1.env[n].loc] != s2.store.data[s2.env[n].loc]
            for n in rhigh
        )

    def test_name_prefixes_pick_the_runtime_shape(self):
        cfg = GenConfig(rng_seed=1)
        tenv = gen_tenv(cfg)
        s1, _ = gen_lowequiv_states(cfg, tenv)
        for name, t in tenv.items():
            v = s1.env[name]
            if name.startswith("rb"):
                assert isinstance(v, LocV)
                assert isinstance(s1.store.data[v.loc], BoolV)
            elif name.startswith("ri"):
                assert isinstance(v, LocV)
                assert isinstance(s1.store.data[v.loc], IntV)

    def test_hand_written_tenv_takes_the_fallbacks(self):
        tenv = {
            "rb0": RefType(LOW),
            "b1": HIGH,
            "f2": FunType(LOW, HIGH, EMPTY),  # result is not the parameter: constant 0
            "u3": EMPTY,
        }
        highs = set()
        for seed in range(20):
            s1, s2 = gen_lowequiv_states(GenConfig(rng_seed=seed), tenv)
            p1 = s1.store.data[s1.env["rb0"].loc]
            assert isinstance(p1, BoolV) and p1 == s2.store.data[s2.env["rb0"].loc]
            assert isinstance(s1.env["b1"], BoolV) and isinstance(s2.env["b1"], BoolV)
            highs.add((s1.env["b1"], s2.env["b1"]))
            assert s1.env["f2"] == s2.env["f2"] == ClosV(Num("0"), "x", {})
            assert s1.env["u3"] == s2.env["u3"] == UnitV()
        assert any(v1 != v2 for v1, v2 in highs)

    def test_function_bindings_share_one_closure(self):
        for seed in range(40):
            cfg = GenConfig(rng_seed=seed)
            tenv = gen_tenv(cfg)
            s1, s2 = gen_lowequiv_states(cfg, tenv)
            for name, t in tenv.items():
                if name.startswith("f"):
                    assert isinstance(s1.env[name], ClosV)
                    assert s1.env[name] == s2.env[name]


class TestSuites:
    @pytest.mark.parametrize("suite", SUITES)
    def test_short_runs_find_no_violations(self, suite):
        report = run_suite(suite, GenConfig(rng_seed=5), trials=40)
        assert report.trials == 40
        assert report.violations == []
        assert report.passes + report.discarded == 40
        assert report.passes > 0

    def test_deterministic_reports(self):
        cfg = GenConfig(rng_seed=13)
        a = run_suite("soundness", cfg, trials=25)
        b = run_suite("soundness", cfg, trials=25)
        assert a.to_json() == b.to_json()

    def test_starving_fuel_discards_instead_of_failing(self):
        report = run_suite("soundness", GenConfig(rng_seed=5, fuel=3), trials=30)
        assert report.violations == []
        assert report.discarded_fuel > 0

    def test_depth_is_a_discard_of_its_own(self, monkeypatch):
        monkeypatch.setattr(harness, "evaluate", lambda *args: DepthExceeded(2500))
        report = run_suite("soundness", GenConfig(rng_seed=5), trials=6)
        assert (report.passes, report.discarded_fuel, report.discarded_runtime) == (0, 0, 0)
        assert report.discarded_depth == report.discarded == 6
        keys = list(report.to_json())
        assert keys[keys.index("discarded_runtime") + 1] == "discarded_depth"
        assert keys[keys.index("discarded_depth") + 1] == "discarded_unobservable"
        assert "discard=6 (fuel=0, runtime=0, depth=6, unobservable=0)" in report.summary()

    def test_summary_format(self):
        report = run_suite("lemma2", GenConfig(rng_seed=5), trials=5)
        text = report.summary()
        assert text.startswith("suite lemma2: trials=5 pass=")
        assert "violations=0" in text

    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError):
            run_suite("nonsense", GenConfig(), 1)


class TestSuiteObservers:
    """With the equivalence checks forced to fail, each suite's Violation
    shows which observer it consulted, what it compared and what it says."""

    DETAILS = {
        "soundness": "final states differ for a low observer",
        "lemma2": "high-pc program changed the low view",
        "lemma5": "effect-free program changed the low view",
    }

    @pytest.fixture
    def failing(self, monkeypatch):
        seen = {"observer": [], "outcomes": []}
        real_low_equiv, real_evaluate = harness.low_equiv, harness.evaluate

        def low_equiv(tenv, a, b, cfg=None, stats=None):
            if stats is None:  # gen_lowequiv_states checking its own output
                return real_low_equiv(tenv, a, b, cfg)
            seen["observer"].append(("low_equiv", a, b))
            return False

        def value_equiv(v1, st1, v2, st2, t, cfg=None, stats=None):
            seen["observer"].append(("value_equiv", st1, st2))
            return False

        def evaluate(*args):
            out = real_evaluate(*args)
            seen["outcomes"].append(out)
            return out

        monkeypatch.setattr(harness, "low_equiv", low_equiv)
        monkeypatch.setattr(harness, "value_equiv", value_equiv)
        monkeypatch.setattr(harness, "evaluate", evaluate)
        return seen

    def first_violation(self, suite, seen):
        for seed in range(20):
            seen["observer"].clear()
            seen["outcomes"].clear()
            result = _TRIAL_FNS[suite](GenConfig(rng_seed=seed))
            if isinstance(result, Violation):
                assert len(seen["observer"]) == 1
                return result, seen["observer"][0], seen["outcomes"]
        pytest.fail(f"no {suite} trial reached its observer")

    def test_soundness_compares_both_final_states(self, failing):
        v, (observer, a, b), outs = self.first_violation("soundness", failing)
        assert observer == "low_equiv"
        assert v.detail == self.DETAILS["soundness"]
        assert v.s1 is not v.s2
        assert len(outs) == 2
        assert v.finals[0] is outs[0].state and v.finals[1] is outs[1].state
        assert a is v.finals[0] and b is v.finals[1]

    def test_lemma1_compares_results_at_the_program_type(self, failing):
        v, (observer, st1, st2), outs = self.first_violation("lemma1", failing)
        assert observer == "value_equiv"
        ty = check(v.tenv, LOW, v.program).ty
        assert v.detail == f"results differ at type {pretty_type(ty)}"
        assert len(outs) == 2
        assert v.finals[0] is outs[0].state and v.finals[1] is outs[1].state
        assert st1 is outs[0].state.store and st2 is outs[1].state.store

    @pytest.mark.parametrize("suite", ["lemma2", "lemma5"])
    def test_one_run_suites_compare_s1_with_its_final_state(self, suite, failing):
        v, (observer, a, b), outs = self.first_violation(suite, failing)
        assert observer == "low_equiv"
        assert v.detail == self.DETAILS[suite]
        assert v.s1 is v.s2
        assert len(outs) == 1
        assert v.finals[0] is v.s1 and v.finals[1] is outs[0].state
        assert a is v.finals[0] and b is v.finals[1]


class TestCheckerCalls:
    """A trial checks each program it draws exactly once, and the generators
    never call the checker themselves."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = {"checked": [], "drawn": []}
        real_check, real_gen = harness.check, harness.gen_welltyped

        def check(tenv, pc, e):
            seen["checked"].append(e)
            return real_check(tenv, pc, e)

        def gen_welltyped(*args, **kwargs):
            seen["drawn"].append(real_gen(*args, **kwargs))
            return seen["drawn"][-1]

        monkeypatch.setattr(harness, "check", check)
        monkeypatch.setattr(harness, "gen_welltyped", gen_welltyped)
        return seen

    def test_generators_make_no_checker_calls(self, calls):
        for seed in range(40):
            cfg = GenConfig(rng_seed=seed)
            tenv = gen_tenv(cfg)
            for pc, clean in ((LOW, False), (HIGH, False), (LOW, True)):
                gen_welltyped(cfg, tenv, pc, effect_clean=clean)
            gen_lowequiv_states(cfg, tenv)
        assert calls["checked"] == []

    @pytest.mark.parametrize("suite", ["soundness", "lemma2", "lemma5"])
    def test_single_draw_suites_check_once_per_trial(self, suite, calls):
        for seed in range(40):
            calls["checked"].clear()
            calls["drawn"].clear()
            _TRIAL_FNS[suite](GenConfig(rng_seed=seed))
            assert len(calls["drawn"]) == 1
            assert len(calls["checked"]) == 1
            assert calls["checked"][0] is calls["drawn"][0]

    def test_effect_clean_draw_with_a_low_effect_is_a_generator_bug(self, monkeypatch):
        leaky = parse("let r = ref(1)")  # Let-Base-Ref: effect Low
        monkeypatch.setattr(harness, "gen_welltyped", lambda *args, **kwargs: leaky)
        with pytest.raises(AssertionError, match="Low effect"):
            _TRIAL_FNS["lemma5"](GenConfig(rng_seed=0))

    @pytest.mark.parametrize("suite, seeds", [("lemma1", [*range(40)])])
    def test_retry_suites_check_once_per_drawn_program(self, suite, seeds, calls, monkeypatch):
        for seed in seeds:
            calls["checked"].clear()
            calls["drawn"].clear()
            _TRIAL_FNS[suite](GenConfig(rng_seed=seed))
            checked, drawn = calls["checked"], calls["drawn"]
            assert 1 <= len(drawn) <= 8
            assert len(checked) == len(drawn)
            assert all(c is d for c, d in zip(checked, drawn))
        # when no draw has a type a low observer can see, the trial tests
        # nothing: it is discarded after eight checks, with no fallback program
        hidden = parse("let h: high = 1\nh")
        calls["checked"].clear()
        calls["drawn"].clear()

        def gen_welltyped(*args, **kwargs):
            calls["drawn"].append(hidden)
            return hidden

        monkeypatch.setattr(harness, "gen_welltyped", gen_welltyped)
        assert _TRIAL_FNS[suite](GenConfig(rng_seed=0)) == Discarded("unobservable")
        assert len(calls["drawn"]) == 8
        assert len(calls["checked"]) == 8
        assert all(c is hidden for c in calls["checked"])


class TestViolationReporting:
    def test_details_captured_for_the_first_five(self, monkeypatch):
        def always_violates(cfg):
            return Violation(
                Num("0"), {}, State({}, Store()), State({}, Store()),
                (State({}, Store()), State({}, Store())),
                cfg.rng_seed, "synthetic",
            )

        monkeypatch.setitem(_TRIAL_FNS, "soundness", always_violates)
        report = run_suite("soundness", GenConfig(rng_seed=0), trials=8)
        assert len(report.violations) == 8
        assert report.passes == 0
        full = [v for v in report.violations if "program" in v]
        assert len(full) == 5
        assert all(v["detail"] == "synthetic" for v in report.violations)
        assert report.to_json()["violations"] == 8

    def test_reports_carry_both_initial_states(self, monkeypatch):
        s1 = State(
            {"i0": IntV(3), "b1": BoolV(True), "ri2": LocV(4), "ri3": LocV(1)},
            Store({4: IntV(-2), 1: BoolV(False)}),
        )
        s2 = State(
            {"i0": IntV(3), "b1": BoolV(False), "ri2": LocV(4), "ri3": LocV(1)},
            Store({4: IntV(7), 1: BoolV(False)}),
        )

        def violates(cfg):
            return Violation(Num("0"), {}, s1, s2, (s1, s2), cfg.rng_seed, "synthetic")

        monkeypatch.setitem(_TRIAL_FNS, "soundness", violates)
        report = run_suite("soundness", GenConfig(rng_seed=0), trials=6)
        full, brief = report.violations[:5], report.violations[5]
        for v in full:
            assert v["s1"] == {
                "env": {"i0": "3", "b1": "true", "ri2": "ℓ4", "ri3": "ℓ1"},
                "store": {"1": "false", "4": "-2"},
            }
            assert v["s2"] == {
                "env": {"i0": "3", "b1": "false", "ri2": "ℓ4", "ri3": "ℓ1"},
                "store": {"1": "false", "4": "7"},
            }
            assert list(v["s1"]["store"]) == ["1", "4"]
        assert "s1" not in brief and "s2" not in brief
        assert json.loads(json.dumps(report.to_json()))["violation_details"][0]["s2"] == full[0]["s2"]

    def test_trial_results_expose_reproduction_data(self):
        v = Violation(
            Num("1"), {"x": LOW}, State({}, Store()), State({}, Store()),
            (State({}, Store()), State({}, Store())), 99, "d",
        )
        assert v.seed == 99
        assert v.program == Num("1")
        assert isinstance(Pass(), Pass)
        assert Discarded("fuel").reason == "fuel"


class TestCorpus:
    def test_bundled_corpus_is_green(self):
        report = run_corpus()
        assert isinstance(report, CorpusReport)
        assert report.ok, report.summary()
        assert len(report.rows) == 14

    def test_rows_carry_rule_expectations(self):
        report = run_corpus()
        by_file = {r.file: r for r in report.rows}
        assert by_file["listing4.resc"].actual_rule == "Reassign"
        assert by_file["listing2.resc"].actual_rule == "Let-n"
        assert by_file["control_fun.resc"].actual_verdict == "accept"

    def test_json_shape(self):
        out = run_corpus().to_json()
        assert out["ok"] is True
        assert {"file", "expected_verdict", "ok"} <= set(out["rows"][0])

    def test_missing_file_is_reported(self, tmp_path):
        (tmp_path / "expectations.json").write_text(
            json.dumps({"gone.resc": {"verdict": "accept"}})
        )
        report = run_corpus(tmp_path)
        assert not report.ok
        assert report.rows[0].actual_verdict == "missing"

    def test_unreadable_file_is_reported(self, tmp_path, monkeypatch):
        (tmp_path / "expectations.json").write_text(
            json.dumps({"locked.resc": {"verdict": "accept"}, "p.resc": {"verdict": "accept"}})
        )
        (tmp_path / "locked.resc").write_text("1")
        (tmp_path / "p.resc").write_text("1")
        read_bytes = Path.read_bytes

        def deny(path):
            if path.name == "locked.resc":
                raise PermissionError(13, "Permission denied", str(path))
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", deny)
        report = run_corpus(tmp_path)
        assert not report.ok
        assert [(r.actual_verdict, r.ok) for r in report.rows] == [("unreadable", False), ("accept", True)]

    def test_unparseable_file_is_reported(self, tmp_path):
        (tmp_path / "expectations.json").write_text(
            json.dumps({"bad.resc": {"verdict": "accept"}})
        )
        (tmp_path / "bad.resc").write_text("let = = =")
        report = run_corpus(tmp_path)
        assert not report.ok
        assert report.rows[0].actual_verdict == "parse-error"

    def test_verdict_mismatch_is_flagged(self, tmp_path):
        (tmp_path / "expectations.json").write_text(
            json.dumps({"p.resc": {"verdict": "reject", "rule": "Let-n"}})
        )
        (tmp_path / "p.resc").write_text("1 + 2")
        report = run_corpus(tmp_path)
        assert not report.ok
        assert "MISMATCH" in report.summary()

    def test_rule_mismatch_is_flagged(self, tmp_path):
        (tmp_path / "expectations.json").write_text(
            json.dumps({"p.resc": {"verdict": "reject", "rule": "Reassign"}})
        )
        (tmp_path / "p.resc").write_text("let l: low = 1\nlet h: high = 2\nlet x: low = h")
        report = run_corpus(tmp_path)
        assert not report.ok  # rejects, but by Let-n rather than Reassign
