"""The benchmark's tracer must find every function it wraps.

Tracer.patch skips a name the package no longer has, so a deleted or renamed
function would leave its per-layer metric at zero without an error. This
test installs the tracer and names every wrap target that is missing.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
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
