"""The benchmark's span tracer still finds every function it wraps.

`bench/spans.py` replaces functions in rescheck's module namespaces by name;
a refactor that renames or inlines one of them makes a traced benchmark run
fail with `LookupError`. These install the tracer, run each benchmark
workload's kind of op under it, and check that `restore()` puts every
original back and that every span the workload predicts was recorded.
"""

import importlib.util
from pathlib import Path

import rescheck
from rescheck import GenConfig, cli, equivalence, harness, interpreter, run_suite, typechecker

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    mods = (cli, harness, typechecker, interpreter, equivalence)
    return [(m.__name__, dict(vars(m))) for m in mods] + [("_TRIAL_FNS", dict(harness._TRIAL_FNS))]


def traced(workload):
    """Run `workload` under the tracer, check that `restore()` puts every
    original back, and return the span names it recorded."""
    spans = load_spans()
    before = namespaces()
    tracer = spans.Tracer()
    try:
        tracer.install(rescheck)
        patched = list(tracer._undo)
        assert patched
        for owner, attr, orig in patched:
            now = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            assert now is not orig, attr
        workload()
    finally:
        tracer.restore()
    after = namespaces()
    for (name, old), (_, new) in zip(before, after):
        assert old.keys() == new.keys(), name
        changed = [k for k in old if old[k] is not new[k]]
        assert changed == [], name
    return spans.PREDICTED_NONZERO, {tracer.names[i] for i in tracer.name}


def test_tracer_installs_and_restores_every_original():
    def nitest():
        for suite in harness.SUITES:
            run_suite(suite, GenConfig(rng_seed=1), trials=2)

    predicted, seen = traced(nitest)
    assert set(predicted["nitest"]) <= seen


def test_cli_workloads_record_every_predicted_span(capsys):
    """check-large runs `check --json` on a file and run-loops runs `run`."""
    corpus = harness.default_corpus_dir()
    predicted, seen = traced(lambda: cli.main(["check", "--json", str(corpus / "listing1.resc")]))
    assert set(predicted["check-large"]) <= seen
    predicted, seen = traced(lambda: cli.main(["run", str(corpus / "control_for.resc")]))
    assert set(predicted["run-loops"]) <= seen
    assert "value: 6" in capsys.readouterr().out
