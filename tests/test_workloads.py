"""The benchmark's workloads must run on the package as it is.

perfbench/workloads.py calls model.rollout, evaluation.evaluate_rollout and
training.train and checks what they return, so a change to those calls can
break the benchmark without breaking any other test. This test runs every
workload at its smoke-test size (TINY): the set-up, the one-off checks, and
each operation with its check. Every check must pass, also those of the
families a workload still lists as expected failures.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks its class's module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["gen", "train", "rollout"])
def test_every_check_passes_at_tiny_size(name, tmp_path, monkeypatch):
    wl = load_workloads(monkeypatch)
    workload = wl.WORKLOADS[name](0, wl.TINY, tmp_path)
    workload.setup()
    assert [(key, why) for key, why in workload.prepare() if why is not None] == []
    failed = [(op.key, why) for op in workload.ops() if (why := op.check(op.run())) is not None]
    assert failed == []
