"""The benchmark's tracer still finds every function it wraps, so an API
cut that removes a traced name fails here rather than at ``--trace 1``."""

import importlib.util
import pathlib

import framescale as fs
import framescale.cli  # noqa: F401  (the tracer wraps cli functions too)

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(mercedes):
    tracing = load_tracing()
    decide = fs.feasibility.decide
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fs.feasibility.decide is not decide
        fs.decide(mercedes)
    finally:
        tracer.uninstall()
    assert fs.feasibility.decide is decide and fs.decide is decide
    assert len(tracer.names) == sum(map(len, tracing.TRACED.values()))
    assert "feasibility.decide" in tracer.names and tracer.start
