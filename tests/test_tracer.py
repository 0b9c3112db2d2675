"""The benchmark's tracer must find every function it wraps, and the
workloads must run under it.

Tracer.patch skips a name the package no longer has, so a deleted or renamed
function would leave its per-layer metric at zero without an error. One
test installs the tracer and names every wrap target that is missing. The
tracer also wraps numpy's FFTs, so a call its wrappers cannot take (an
`out=` keyword, say) fails only a traced benchmark run; the other test runs
every workload at its smoke-test size (TINY) with the tracer installed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks its class's module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_exists():
    tracer = load_tracer().Tracer()
    patch = tracer.patch
    missing = []

    def checked(obj, attr, *args, **kwargs):
        if not hasattr(obj, attr):
            missing.append(f"{getattr(obj, '__name__', obj)}.{attr}")
        return patch(obj, attr, *args, **kwargs)

    tracer.patch = checked
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert not missing, f"the tracer wraps names that do not exist: {missing}"
    assert len(tracer) == 0  # installing times nothing


@pytest.mark.parametrize("name", ["gen", "train", "rollout"])
def test_every_workload_runs_traced(name, tmp_path, monkeypatch):
    # as a traced benchmark run: set-up and one-off checks untraced, then
    # the operations and the per-layer probes with the tracer installed
    wl = load_workloads(monkeypatch)
    workload = wl.WORKLOADS[name](0, wl.TINY, tmp_path)
    workload.setup()
    assert [(key, why) for key, why in workload.prepare() if why is not None] == []
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        failed = [(op.key, why) for op in workload.ops()
                  if (why := op.check(op.run())) is not None]
        workload.probe(wl.TINY.probe_repeats)
    finally:
        tracer.uninstall()
    assert failed == []
    assert len(tracer) > 0 and tracer.raised == []
