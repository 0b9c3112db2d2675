"""Benchmark of the `sino` package: reference-data generation, training and
rollout evaluation, timed from outside the package.

    python3 perfbench/run.py --workload gen|train|rollout --seed N --seconds S --trace 0|1

Run it from the root of a source tree; it imports `sino` from `src/` there
and from nowhere else. With --trace 0 it measures the end-to-end metrics
untraced; with --trace 1 it spends a third of the time untraced and the
rest with span wrappers installed, and reports per-layer metrics. Human-
readable lines come first; the last line of stdout is one JSON object.
The spans of a traced run are written under .bench_out/ in the tree. See
perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import os

# One BLAS thread (at most nproc): the model's matmuls are small, and a
# second spinning thread only adds noise on a shared machine. Must be set
# before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 2   # cold set-ups in each of the two batches
SETUP_SECONDS = 3.0


SINO_MODULES = ("config", "containers", "engine", "evaluation", "model", "solvers",
                "spectral", "training")


def load_sino() -> None:
    """Import sino from ROOT/src, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        sino = importlib.import_module("sino")
        for mod in SINO_MODULES:
            importlib.import_module(f"sino.{mod}")
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import sino from {src}: {err}")
    if not Path(sino.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: sino was imported from {sino.__file__}, not {src}")


def cold_setup_s(workload, seed, scale, out_dir) -> float:
    """Wall time of a new interpreter that imports numpy and sino and runs the
    workload's set-up: every sample starts cold, with no cache warmed by an
    earlier set-up in this process."""
    code = ("from pathlib import Path\nimport workloads as wl\n"
            f"wl.WORKLOADS[{workload!r}]({seed}, wl.{scale}, Path({str(out_dir)!r})).setup()")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)])}
    # no timeout: with one, the wait polls in steps of up to 50 ms
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def environment(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():   # a source checkout without history has no SHA
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


# The host's speed swings by up to 2x within seconds and drifts between
# runs (CPU time tracks wall time, so the CPU itself slows). A fixed numpy
# kernel, independent of sino and run next to every op, measures that speed;
# op time over the adjacent kernel times cancels it (see README.md).
_RNG = np.random.default_rng(12345)
_REF_2D = _RNG.standard_normal((2, 64, 64))
_REF_3D = _RNG.standard_normal((3, 32, 32, 32))
_REF_SMALL = _RNG.standard_normal((4, 8))


def reference_kernel() -> float:
    """About 8 ms of FFTs, array arithmetic and interpreter-bound small ops."""
    acc = 0.0
    for _ in range(8):
        y = np.fft.ifftn(np.fft.fftn(_REF_2D, axes=(1, 2)) * 0.5, axes=(1, 2)).real
        acc += float(y[0, 0, 0])
    y = np.fft.ifftn(np.fft.fftn(_REF_3D, axes=(1, 2, 3)) * 0.5, axes=(1, 2, 3)).real
    acc += float(y[0, 0, 0, 0])
    for _ in range(300):
        acc += float((_REF_SMALL * 1.0001 + _REF_SMALL)[0, 0])
    return acc


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class Tally:
    """Per-key durations of ops that passed their check, and the failure count."""

    def __init__(self, ops):
        self.ops = {op.key: op for op in ops}
        self.passed = {op.key: [] for op in ops}
        # op time / reference time for every op that returned, passed or not:
        # a family that runs but fails its check (KSE at seed) is still timed
        self.ratios = {op.key: [] for op in ops}
        self.reference: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, str] = {}
        self.failed_keys: set[str] = set()

    def median(self, key):
        d = self.passed[key]
        return statistics.median(d) if d else None

    def rate(self, key):
        m = self.median(key)
        return self.ops[key].units / m if m else None

    def rate_per_ref(self, key):
        d = self.ratios[key]
        return self.ops[key].units / statistics.median(d) if d else None

    def returned_keys(self):
        return [key for key, d in self.ratios.items() if d]


def measure(ops, seconds, tally, tracer=None):
    """Run the ops round-robin until seconds have passed (whole rounds only).

    An op that raises, or whose output fails its check, counts as failed and
    is left out of the printed rates; one that fails its check still counts
    in work_per_ref. The loop is the boundary that keeps running.
    The reference kernel runs before the first op and after each, outside
    any op's span.
    """
    tally.reference.append(timed_reference())
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            tally.attempted += 1
            elapsed = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.span(f"bench.op.{op.key}", aux=op.units):
                        out = op.run()
                elapsed = time.perf_counter() - t0
                why = op.check(out)
            except Exception as err:
                why = f"{type(err).__name__}: {err}"
            tally.reference.append(timed_reference())
            if elapsed is not None:
                ref = (tally.reference[-2] + tally.reference[-1]) / 2
                tally.ratios[op.key].append(elapsed / ref)
            if why is None:
                tally.passed[op.key].append(elapsed)
            else:
                tally.failed += 1
                tally.failed_keys.add(op.key)
                tally.errors.setdefault(op.key, why)
        if time.perf_counter() >= deadline:
            return tally


def geomean(values):
    if not values or any(v is None or v <= 0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(tally, setup_s) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "work_per_ref": (geomean([tally.rate_per_ref(k) for k in tally.returned_keys()]),
                         "1/ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "frac"),
    }


def rate_lines(w, tally) -> list[str]:
    """The per-family rates, by the names used in the README."""
    name, unit = w.RATE
    lines = []
    for key in tally.ops:
        label = name.format(key=key)
        rate = tally.rate(key)
        if rate is not None:
            lines.append(f"{label} = {rate:.6g} {unit} (n={len(tally.passed[key])}; "
                         f"{tally.rate_per_ref(key):.6g} per reference-kernel time)")
        else:
            lines.append(f"{label} absent: {tally.errors.get(key, 'no op completed')}")
    lines.append("work_per_ref over: " + ", ".join(tally.returned_keys()))
    if tally.reference:
        lines.append(f"reference kernel = {statistics.median(tally.reference) * 1e3:.4g} ms "
                     f"(median of {len(tally.reference)})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("gen", "train", "rollout"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result["lines"]:
        print(line)
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(json.dumps(result["summary"]))
    return 0


def run(workload, seed, seconds, trace, tiny=False, mutate=None) -> dict:
    """One benchmark run; tiny selects the smoke-test sizes, and mutate(w), if
    given, runs after the untimed checks."""
    load_sino()
    import workloads as wl
    import layers

    out_dir = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        scale = "TINY" if tiny else "FULL"

        def cold_setups() -> list[float]:
            # cheap set-ups repeat more often, so that their median steadies
            times = []
            while len(times) < SETUP_REPEATS or (
                    sum(times) < SETUP_SECONDS and len(times) < 3 * SETUP_REPEATS):
                times.append(cold_setup_s(workload, seed, scale, out_dir))
            return times

        w = wl.WORKLOADS[workload](seed, getattr(wl, scale), out_dir)
        w.setup()   # this process's own state, untimed
        checks = w.prepare()
        if mutate is not None:
            mutate(w)
        ops = w.ops()
        tally = Tally(ops)
        tally.attempted += len(checks)
        tally.failed += sum(why is not None for _, why in checks)
        if not trace:
            # set-ups sampled before and after the ops, so that their median
            # spans more of the host's slow and fast phases
            setup_times = cold_setups()
            measure(ops, seconds, tally)
            setup_times += cold_setups()
            metrics = end_to_end(tally, statistics.median(setup_times))
            lines = rate_lines(w, tally)
            lines.append("setup_s samples: " + ", ".join(f"{t:.4g}" for t in setup_times) + " s")
        else:
            from tracer import Spans, Tracer

            measure(ops, seconds / 3, tally)
            traced = Tally(ops)
            tracer = Tracer()
            tracer.install()
            try:
                measure(ops, 2 * seconds / 3, traced, tracer)
                probe_from = len(tracer)
                w.probe(w.scale.probe_repeats)
            finally:
                tracer.uninstall()
            metrics = layers.per_layer(Spans(tracer), probe_from, tally, traced)
            tracer.save(out_dir.parent / f"trace-{workload}-seed{seed}.npz")
            tally.attempted += traced.attempted
            tally.failed += traced.failed
            tally.errors = {**traced.errors, **tally.errors}
            tally.failed_keys |= traced.failed_keys
            lines = rate_lines(w, tally)
            lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    unexpected = sorted(tally.failed_keys - set(w.EXPECTED_FAILURES))
    correct = not unexpected and all(why is None for _, why in checks)
    lines += [f"check {name}: {'ok' if why is None else 'FAILED: ' + why}" for name, why in checks]
    lines += [f"failed {key}{'' if key in w.EXPECTED_FAILURES else ' (unexpected)'}: {msg}"
              for key, msg in sorted(tally.errors.items())]
    lines.append(f"fail_frac = {tally.failed / tally.attempted:.6g} "
                 f"({tally.failed} of {tally.attempted} ops and checks)")
    summary = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return {"lines": lines, "env": environment(seed), "summary": summary}


if __name__ == "__main__":
    sys.exit(main())
