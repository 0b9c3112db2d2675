"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs each workload once at tiny size, untraced and traced, and asserts that
every end-to-end and per-layer metric named in BENCHMARK.json appears with
its unit and that the checks pass. Then perturbs the gen reference and the
rollout truth and asserts that the correctness check trips. Exits non-zero
on the first failed assertion.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def expect(cond, message):
    if not cond:
        raise SystemExit(f"smoke: FAILED: {message}")


def check_metrics(summary, declared, what):
    got = {name: m["unit"] for name, m in summary["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{what}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"units {[(n, got[n], u) for n, u in want.items() if got.get(n, u) != u]}")


def perturb_gen(w):
    w.reference["burgers2d"] = w.reference["burgers2d"] * 1.001


def perturb_rollout(w):
    w.sets["2d"][2].data[:, 1:] *= 1.1


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            summary = run.run(workload, seed=0, seconds=0.1, trace=trace, tiny=True)["summary"]
            what = f"{workload} trace={int(trace)}"
            check_metrics(summary, declared, what)
            expect(summary["correct"], f"{what}: checks failed at tiny size")
            expect(summary["attempted"] >= 1, f"{what}: nothing attempted")
            print(f"smoke: {what}: {len(summary['metrics'])} metrics, "
                  f"{summary['failed']}/{summary['attempted']} failed (expected ones only)")
    for workload, mutate in (("gen", perturb_gen), ("rollout", perturb_rollout)):
        summary = run.run(workload, seed=0, seconds=0.1, trace=False, tiny=True,
                          mutate=mutate)["summary"]
        expect(not summary["correct"], f"{workload}: perturbed reference was not detected")
        print(f"smoke: {workload}: perturbed reference trips the check")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
