"""The benchmark's tracer wraps program functions by name: every hook it
names must exist, so a rename or removal fails here, not in a benchmark run."""
import importlib
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_install_tracer_finds_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    tracing = importlib.import_module("tracer")
    # import_module returns the modules this session already holds; the
    # benchmark's import_program would reload the package instead
    prog = SimpleNamespace(**{m: importlib.import_module(f"vgdl2pddl.{m}")
                              for m in run.MODULES})
    before = {m: dict(vars(module)) for m, module in vars(prog).items()}
    tracer = tracing.Tracer()
    try:
        run.install_tracer(tracer, prog)
    finally:
        tracer.restore()
    for m, module in vars(prog).items():
        assert all(vars(module)[k] is v for k, v in before[m].items()), m
