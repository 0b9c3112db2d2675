"""Per-layer metrics computed from the spans of a traced run.

Every metric is reported on every workload; one whose operation never ran
in the workload (or never completed) reads 0. Timings are medians over
spans; byte counts are computed from array sizes, not measured traffic.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

PDES = ("kse", "nse", "burgers2d", "burgers3d")
LAYERS = ("bench", "spectral", "solvers", "containers", "engine", "model", "training",
          "evaluation", "fft")
MODEL_BLOCKS = ("freq2vec_eval", "slb_apply", "pi_block", "rhs_eval", "model_step")


def _median_ms(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.median(values)) * 1e3 if values.size else 0.0


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def per_layer(s, probe_from, untraced, traced) -> dict:
    """Metrics from the spans s of the traced phase (the probe starts at probe_from)."""
    n = len(s.name)
    idx = np.arange(n)
    labels = s.labels
    lid = {lab: i for i, lab in enumerate(labels)}

    def is_label(label):
        return s.name == lid[label] if label in lid else np.zeros(n, dtype=bool)

    def prefixed(prefix):
        return s.label_mask(lambda lab: lab.startswith(prefix))

    op = prefixed("bench.op.")
    in_op = s.nearest(op) >= 0
    engine_op = prefixed("engine.") & ~is_label("engine.Tensor.backward")
    fft = prefixed("fft.")

    def p50(label, extra=True):
        return _median_ms(s.dur[is_label(label) & s.ok & extra])

    m: dict[str, tuple[float, str]] = {}

    # solvers and the FFTs inside each integration, per PDE family
    integ = prefixed("solvers.integrate.")
    integ_anc = s.nearest(integ)
    for pde in PDES:
        done = is_label(f"solvers.integrate.{pde}") & s.ok
        steps = s.aux[done].sum()
        m[f"solvers.integrate.{pde}.ms_per_step"] = (
            _median_ms(s.dur[done] / s.aux[done]) if done.any() else 0.0, "ms")
        m[f"solvers.rhs.{pde}.p50_ms"] = (p50(f"solvers.rhs.{pde}"), "ms")
        m[f"solvers.steps.{pde}"] = (float(np.median(s.aux[done])) if done.any() else 0.0,
                                     "count")
        under = fft & (integ_anc >= 0) & done[np.maximum(integ_anc, 0)]
        m[f"fft.calls_per_step.{pde}"] = (_ratio(under.sum(), steps), "count")
        m[f"fft.bytes_per_step.{pde}"] = (_ratio(s.aux[under].sum(), steps), "B")

    # spectral substrate
    for fn in ("forward_transform", "inverse_transform"):
        for dim in ("2d", "3d"):
            m[f"spectral.{fn}.{dim}.p50_ms"] = (p50(f"spectral.{fn}.{dim}"), "ms")
    m["spectral.spectral_resample.p50_ms"] = (p50("spectral.spectral_resample"), "ms")
    m["spectral.grf_sample.p50_ms"] = (p50("spectral.grf_sample"), "ms")

    # containers: bytes are the container file sizes and the decoded payloads
    for kind in ("write", "read"):
        spans = is_label(f"containers.{kind}") & s.ok
        m[f"containers.{kind}.mb_per_s"] = (
            _ratio(s.aux[spans].sum() / 1e6, s.dur[spans].sum()), "MB/s")
    writes = is_label("containers.write") & s.ok
    m["containers.bytes_per_traj"] = (
        float(np.median(s.aux[writes])) if writes.any() else 0.0, "B")

    # training: an iteration runs from one onecycle_lr call to the next
    iterations = []
    lr_calls = is_label("training.onecycle_lr")
    for t in idx[is_label("training.train") & s.ok]:
        starts = np.sort(s.start[lr_calls & (s.parent == t)])
        if starts.size:
            iterations.extend(np.diff(np.append(starts, s.end[t])))
    m["training.iteration.p50_ms"] = (_median_ms(iterations), "ms")
    warmup_parent = np.isin(s.parent, idx[is_label("training.train")])
    m["training.warmup.p50_ms"] = (p50("model.rollout.2d", warmup_parent), "ms")
    m["training.backward.p50_ms"] = (p50("training.backward"), "ms")
    m["training.adam_step.p50_ms"] = (p50("training.adam_step"), "ms")
    m["training.validation.p50_ms"] = (p50("training.validation_rel_l2"), "ms")

    # engine: tape ops and FFTs per curriculum sample (train only)
    samples = s.aux[op & is_label("bench.op.train")].sum()
    m["engine.backward.p50_ms"] = (p50("engine.Tensor.backward"), "ms")
    m["engine.ops_per_sample"] = (_ratio((engine_op & in_op).sum(), samples), "count")
    m["fft.calls_per_sample"] = (_ratio((fft & in_op).sum(), samples), "count")
    m["fft.bytes_per_sample"] = (_ratio(s.aux[fft & in_op].sum(), samples), "B")

    # model blocks (the probe calls them by their public names)
    for block in MODEL_BLOCKS:
        m[f"model.{block}.2d.p50_ms"] = (p50(f"model.{block}.2d"), "ms")
    m["model.model_step.3d.p50_ms"] = (p50("model.model_step.3d"), "ms")
    roll = prefixed("model.rollout.")
    roll_anc = s.nearest(roll)
    for dim in ("2d", "3d"):
        spans = is_label(f"model.rollout.{dim}") & s.ok & (s.aux > 0) & (idx < probe_from)
        steps = s.aux[spans].sum()
        m[f"model.rollout.{dim}.ms_per_step"] = (
            _median_ms(s.dur[spans] / s.aux[spans]) if spans.any() else 0.0, "ms")
        under = (roll_anc >= 0) & spans[np.maximum(roll_anc, 0)]
        m[f"fft.calls_per_step.model{dim}"] = (_ratio((fft & under).sum(), steps), "count")
        m[f"engine.ops_per_step.model{dim}"] = (_ratio((engine_op & under).sum(), steps),
                                                "count")

    # evaluation: scoring is evaluate_rollout minus its model.rollout children
    ev = idx[is_label("evaluation.evaluate_rollout") & s.ok]
    child_roll = np.zeros(n)
    kids = roll & (s.parent >= 0)
    np.add.at(child_roll, s.parent[kids], s.dur[kids])
    per_traj = s.aux[ev]
    m["evaluation.evaluate_rollout.ms_per_traj"] = (_median_ms(s.dur[ev] / per_traj)
                                                    if ev.size else 0.0, "ms")
    m["evaluation.score.ms_per_traj"] = (
        _median_ms((s.dur[ev] - child_roll[ev]) / per_traj) if ev.size else 0.0, "ms")

    # where the time of the timed ops goes: self time per layer
    op_wall = s.dur[op].sum()
    for layer in LAYERS:
        mask = in_op & (s.layer == layer)
        m[f"layer.{layer}.self_frac"] = (_ratio(s.self_time[mask].sum(), op_wall), "frac")

    # both phases in reference-kernel units, so host speed drift cancels
    ratios = [untraced.rate_per_ref(k) / traced.rate_per_ref(k) for k in untraced.returned_keys()
              if traced.rate_per_ref(k)]
    overhead = math.exp(statistics.fmean(math.log(r) for r in ratios)) - 1 if ratios else 0.0
    m["trace.overhead_frac"] = (overhead, "frac")
    return m
