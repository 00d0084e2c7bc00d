"""The benchmark's outside-in tracer (perfbench/tracer.py) finds every target.

The tracer looks its targets up by module and attribute name; a renamed or
moved function makes installing it fail.  This test installs it, runs a
bracket ladder, a Levi type (whose derivative rows apply fields one by one;
brackets take their own pass) and an orbit oracle under it, and checks that
every patched binding is put back.
"""

import importlib.util
from pathlib import Path

import segrechains
import segrechains.cli  # noqa: F401  (the tracer patches cli.cmd_checkall)
from segrechains import lie, orbit

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    modules = {name: mod for name, mod in vars(segrechains).items()
               if type(mod) is type(segrechains)}
    modules[""] = segrechains
    return {(name, key): value for name, mod in modules.items()
            for key, value in vars(mod).items() if callable(value)}


def test_tracer_installs_and_restores(heisenberg):
    tracer = _load_tracer_module().Tracer()
    before = _bindings()
    apply_before = lie.TangentVectorField.__dict__["apply"]
    with tracer.installed():
        ladder = lie.hormander_numbers(heisenberg)
        lie.levi_type(heisenberg)
        oracle = orbit.lie_span_dimension(orbit.cr_pair_system(heisenberg))
    assert _bindings() == before
    assert lie.TangentVectorField.__dict__["apply"] is apply_before
    assert ladder.minimal and oracle == 3
    metrics = tracer.metrics()
    for span in ("lie.hormander_numbers", "lie.bracket", "lie.apply",
                 "orbit.lie_span_dimension", "ranks.exact_rank"):
        assert metrics[f"{span}.calls"] > 0, span
