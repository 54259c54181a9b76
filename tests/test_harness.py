"""Randomized-testing harness: generators, trial runners, reports, corpus."""

import json

import pytest

from rescheck import (
    EMPTY,
    HIGH,
    LOW,
    BoolV,
    ClosV,
    CorpusReport,
    Discarded,
    GenConfig,
    IntV,
    LocV,
    Pass,
    RefType,
    State,
    Store,
    Violation,
    check,
    gen_lowequiv_states,
    gen_tenv,
    gen_welltyped,
    low_equiv,
    pretty_type,
    run_corpus,
    run_suite,
    well_formed,
)
from rescheck import harness
from rescheck.harness import SUITES, _TRIAL_FNS
from rescheck.syntax import Empty, High, Num


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

    def test_trials_default_to_the_config(self):
        report = run_suite("soundness", GenConfig(rng_seed=5, trials=7))
        assert report.trials == 7

    def test_deterministic_reports(self):
        cfg = GenConfig(rng_seed=13)
        a = run_suite("soundness", cfg, trials=25)
        b = run_suite("soundness", cfg, trials=25)
        assert a.to_json() == b.to_json()

    def test_starving_fuel_discards_instead_of_failing(self):
        report = run_suite("soundness", GenConfig(rng_seed=5, fuel=3), trials=30)
        assert report.violations == []
        assert report.discarded_fuel > 0

    def test_summary_format(self):
        report = run_suite("lemma2", GenConfig(rng_seed=5), trials=5)
        text = report.summary()
        assert text.startswith("suite lemma2: trials=5 pass=")
        assert "violations=0" in text

    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError):
            run_suite("nonsense", GenConfig())


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
