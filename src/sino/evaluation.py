"""Evaluation: relative l2 / Pearson correlation metrics, full-horizon rollout
reports, zero-shot super-resolution comparison, and out-of-distribution
initial conditions built from raster patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model as sino_model
from .errors import DegenerateTruth, IncompatibleDomain, NonFinite, ZeroVariance
from .model import ModelConfig
from .solvers import TrajectoryDataset
from .spectral import GridSpec, forward_transform, freq_grid, grf_sample, inverse_transform, spectral_resample


def relative_l2(pred: np.ndarray, truth: np.ndarray) -> float:
    """sqrt(sum((y - y_hat)^2) / sum(y^2)) over all points (and snapshots)."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    denom = float(np.sum(truth**2))
    if denom == 0.0:
        raise DegenerateTruth("reference field is identically zero")
    return math.sqrt(float(np.sum((pred - truth) ** 2)) / denom)


def pcc(pred: np.ndarray, truth: np.ndarray) -> float:
    """Pearson correlation over all points of the two fields."""
    pred = np.asarray(pred, dtype=np.float64).ravel()
    truth = np.asarray(truth, dtype=np.float64).ravel()
    if pred.shape != truth.shape:
        raise ValueError("shape mismatch")
    dp = pred - pred.mean()
    dt = truth - truth.mean()
    sp = math.sqrt(float(np.sum(dp * dp)))
    st = math.sqrt(float(np.sum(dt * dt)))
    if sp == 0.0 or st == 0.0:
        raise ZeroVariance("correlation is undefined for a constant field")
    return float(np.sum(dp * dt)) / (sp * st)


@dataclass
class EvalReport:
    """Per-trajectory and pooled rollout metrics at snapshot cadence."""

    times: np.ndarray                 # (S,) seconds, including t=0
    per_traj_rel_l2: list[float]      # full-horizon rel l2 per trajectory
    aggregate_rel_l2: float           # pooled over all snapshots and trajectories
    pcc_curves: np.ndarray            # (n_traj, S)
    rel_l2_cum: np.ndarray            # (n_traj, S) cumulative-in-time rel l2
    failures: list[tuple[int, str]] | None = None

    @property
    def n_traj(self) -> int:
        return len(self.per_traj_rel_l2)


def _predict(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    test_set: TrajectoryDataset,
    n_snap: int,
    steps_per_snap: int,
) -> list[np.ndarray | NonFinite]:
    """Each trajectory's predicted snapshots (n_snap, c_in, *points), or the
    NonFinite its rollout raised.

    The whole set rolls as one batch. If any trajectory of it diverges, the
    set rolls again one trajectory at a time, so that each failure carries
    the message of its own rollout; a batch equals its single rollouts bit
    for bit, so the trajectories that stay finite score the same either way.
    """
    def roll(u0):
        return sino_model.rollout(u0, params, cfg, test_set.grid,
                                  (n_snap - 1) * steps_per_snap, record_every=steps_per_snap)

    try:
        return list(np.stack(roll(test_set.data[:, 0]), axis=1))
    except NonFinite:
        pass
    preds: list[np.ndarray | NonFinite] = []
    for traj in test_set.data:
        try:
            preds.append(np.stack(roll(traj[0])))
        except NonFinite as err:
            preds.append(err)
    return preds


def evaluate_rollout(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    test_set: TrajectoryDataset,
    horizon: int | None = None,
) -> EvalReport:
    """Roll the model from every test IC in one batch and score against the
    stored truth.

    horizon counts snapshots (defaults to the full trajectory length). A
    diverging trajectory is recorded as a failure, with the message of its
    own rollout, not an abort. The batch holds every trajectory's
    intermediates at once, so the memory of a step grows with the set.
    """
    grid = test_set.grid
    steps_per_snap = round(test_set.cadence / cfg.dt_model)
    if abs(steps_per_snap * cfg.dt_model - test_set.cadence) > 1e-9 * test_set.cadence:
        raise ValueError(
            f"snapshot cadence {test_set.cadence} is not a multiple of dt_model {cfg.dt_model}"
        )
    n_snap = test_set.n_snapshots if horizon is None else int(horizon)
    if n_snap > test_set.n_snapshots:
        raise ValueError(f"horizon {n_snap} exceeds trajectory length {test_set.n_snapshots}")

    times = np.arange(n_snap) * test_set.cadence
    pcc_curves = np.full((test_set.n_traj, n_snap), np.nan)
    cum = np.full((test_set.n_traj, n_snap), np.nan)
    per_traj = []
    failures: list[tuple[int, str]] = []
    err_pool = 0.0
    truth_pool = 0.0
    for t, pred in enumerate(_predict(params, cfg, test_set, n_snap, steps_per_snap)):
        if isinstance(pred, NonFinite):
            failures.append((t, str(pred)))
            per_traj.append(float("nan"))
            continue
        truth = test_set.data[t, :n_snap]
        e_cum = 0.0
        y_cum = 0.0
        for s in range(n_snap):
            try:
                pcc_curves[t, s] = pcc(pred[s], truth[s])
            except ZeroVariance:
                pass
            e_cum += float(np.sum((pred[s] - truth[s]) ** 2))
            y_cum += float(np.sum(truth[s] ** 2))
            cum[t, s] = math.sqrt(e_cum / y_cum) if y_cum > 0 else np.nan
        per_traj.append(math.sqrt(e_cum / y_cum) if y_cum > 0 else float("nan"))
        err_pool += e_cum
        truth_pool += y_cum
    aggregate = math.sqrt(err_pool / truth_pool) if truth_pool > 0 else float("nan")
    return EvalReport(
        times=times,
        per_traj_rel_l2=per_traj,
        aggregate_rel_l2=aggregate,
        pcc_curves=pcc_curves,
        rel_l2_cum=cum,
        failures=failures,
    )


def superres_eval(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    fine_test_set: TrajectoryDataset,
    horizon: int | None = None,
) -> dict[str, EvalReport]:
    """Evaluate the same parameters at native and at fine resolution.

    The fine pass re-evaluates Freq2Vec on the finer frequency grid; the
    native pass scores against the fine data spectrally downsampled. The
    native score therefore includes the native grid's own truncation of the
    fine truth: modes the fine dynamics carry above the native 2/3 band,
    which no native-resolution model can produce.
    """
    fine_grid = fine_test_set.grid
    native_grid = GridSpec(points=cfg.native_points, length=fine_grid.length)
    if any(f < n for f, n in zip(fine_grid.points, native_grid.points)):
        raise IncompatibleDomain("fine grid must be at least the native resolution")
    native_data = np.stack(
        [
            np.stack([spectral_resample(s, fine_grid, native_grid) for s in traj])
            for traj in fine_test_set.data
        ]
    )
    native_set = TrajectoryDataset(
        grid=native_grid, cadence=fine_test_set.cadence, data=native_data,
        meta=dict(fine_test_set.meta),
    )
    return {
        "native": evaluate_rollout(params, cfg, native_set, horizon),
        "fine": evaluate_rollout(params, cfg, fine_test_set, horizon),
    }


# -- pattern (OOD) initial conditions -----------------------------------------


@dataclass
class PatternIC:
    """A grayscale raster turned into a zero-mean bandlimited initial state."""

    raster: np.ndarray          # (H, W) intensities in [0, 1]
    grid: GridSpec
    amplitude: float | None = None  # target RMS; None matches a reference GRF draw
    cutoff: int = 8             # keep modes with max_i |k_i| <= cutoff


def _bilinear(raster: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Sample the raster at the grid points: the image spans the domain edge
    to edge, grid point j sits at fraction j/N of it (GridSpec.coords), and
    pixel i's centre at fraction (i + 0.5)/H.

    So rasterizations of the same image at different resolutions, and grids
    of different resolutions, all align in continuum coordinates.
    """
    h, w = raster.shape

    def positions(n_out, n_px):
        frac = np.arange(n_out) / n_out
        return np.clip(frac * n_px - 0.5, 0.0, n_px - 1.0)

    xi = positions(grid.points[0], h)
    yi = positions(grid.points[1], w)
    x0 = np.floor(xi).astype(int)
    y0 = np.floor(yi).astype(int)
    x1 = np.minimum(x0 + 1, h - 1)
    y1 = np.minimum(y0 + 1, w - 1)
    fx = (xi - x0)[:, None]
    fy = (yi - y0)[None, :]
    return (
        raster[np.ix_(x0, y0)] * (1 - fx) * (1 - fy)
        + raster[np.ix_(x1, y0)] * fx * (1 - fy)
        + raster[np.ix_(x0, y1)] * (1 - fx) * fy
        + raster[np.ix_(x1, y1)] * fx * fy
    )


def pattern_ic(p: PatternIC) -> np.ndarray:
    """Raster -> zero-mean, low-passed, RMS-normalized field (1, *points)."""
    raster = np.asarray(p.raster, dtype=np.float64)
    if raster.ndim != 2 or raster.size == 0:
        raise ValueError("raster must be a non-empty 2D array")
    if p.grid.dim != 2:
        raise ValueError("pattern initial conditions are 2D")
    f = _bilinear(raster, p.grid)[np.newaxis]
    f = f - f.mean()
    fg = freq_grid(p.grid)
    keep = (np.max(np.abs(fg.index), axis=0) <= p.cutoff).astype(np.float64)
    f = inverse_transform(forward_transform(f, p.grid) * keep, p.grid)
    amplitude = p.amplitude
    if amplitude is None:
        ref = grf_sample(p.grid, seed=0, alpha=2.5, tau=7.0)
        amplitude = float(np.sqrt(np.mean(ref**2)))
    rms = float(np.sqrt(np.mean(f**2)))
    if rms < 1e-12 * (float(np.max(np.abs(raster))) + 1e-300):
        return np.zeros_like(f)  # featureless raster, don't amplify roundoff
    return f * (amplitude / rms)


def builtin_raster(name: str, size: int = 128) -> np.ndarray:
    """Procedural stand-ins for the published star / smiley / 'AI' patterns.

    Shapes are drawn at the pixel centres -1 + (2i+1)/size that _bilinear
    assumes, so a pattern has the same physical size at every size.
    """
    centres = -1.0 + (2.0 * np.arange(size) + 1.0) / size
    yy, xx = np.meshgrid(centres, centres, indexing="ij")
    img = np.zeros((size, size))
    if name == "star":
        theta = np.arctan2(yy, xx)
        r = np.hypot(xx, yy)
        spikes = 0.55 + 0.35 * np.cos(5.0 * theta)
        img[r <= spikes] = 1.0
    elif name == "smiley":
        img[np.hypot(xx, yy) <= 0.9] = 1.0
        img[np.hypot(xx + 0.35, yy + 0.3) <= 0.12] = 0.0
        img[np.hypot(xx - 0.35, yy + 0.3) <= 0.12] = 0.0
        mouth = (np.hypot(xx, yy - 0.15) <= 0.55) & (np.hypot(xx, yy - 0.15) >= 0.4) & (yy > 0.25)
        img[mouth] = 0.0
    elif name == "ai":
        def bar(x_lo, x_hi, y_lo, y_hi):
            img[(xx >= x_lo) & (xx <= x_hi) & (yy >= y_lo) & (yy <= y_hi)] = 1.0
        # "A"
        bar(-0.85, -0.65, -0.6, 0.6)
        bar(-0.25, -0.05, -0.6, 0.6)
        bar(-0.85, -0.05, -0.6, -0.35)
        bar(-0.85, -0.05, -0.05, 0.15)
        # "I"
        bar(0.35, 0.85, -0.6, -0.4)
        bar(0.35, 0.85, 0.4, 0.6)
        bar(0.5, 0.7, -0.6, 0.6)
    else:
        raise ValueError(f"unknown builtin raster {name!r}")
    return img


# -- CSV export ----------------------------------------------------------------


def export_csv(report: EvalReport, path) -> None:
    """One row per snapshot per trajectory; 17 significant digits, LF endings."""
    lines = ["trajectory,time_s,pcc,rel_l2_cum"]
    for t in range(report.n_traj):
        for s in range(len(report.times)):
            p = report.pcc_curves[t, s]
            c = report.rel_l2_cum[t, s]
            p_s = "" if np.isnan(p) else f"{p:.17g}"
            c_s = "" if np.isnan(c) else f"{c:.17g}"
            lines.append(f"{t},{report.times[s]:.17g},{p_s},{c_s}")
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as err:
        raise OSError(f"failed writing report to {path}: {err}") from err
