"""Evaluation: full-horizon rollout reports, and out-of-distribution test
sets built from raster patterns.

Every score comes from evaluate_rollout: a test set, an OOD pattern set or
a set generated at a finer grid for zero-shot super-resolution. The model
steps once per snapshot, so a set's cadence must be dt_model.

A test set is scored as arrays, not snapshot by snapshot. The error and
truth energies of every (trajectory, snapshot) are sums over the channel and
grid axes, and their cumulative sums along the snapshots give the
cumulative relative l2. One `pcc` call gives the Pearson correlation of
every pair, NaN where either field is constant. A trajectory whose rollout
diverged scores NaN throughout and is left out of the pooled score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import containers
from . import model as sino_model
from .model import ModelConfig
from .solvers import PDESpec, SolverConfig, TrajectoryDataset, integrate
from .spectral import GridSpec, forward_transform, freq_grid, grf_sample, inverse_transform, spectral_resample


def pcc(pred: np.ndarray, truth: np.ndarray, lead: int = 0) -> np.ndarray:
    """Pearson correlation of each pair of fields, one per index of the first
    `lead` axes (a scalar for lead 0); the other axes span a field. NaN where
    either field is constant."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    shape = pred.shape[:lead] + (-1,)
    pred = pred.reshape(shape)
    truth = truth.reshape(shape)
    mean_p = pred.mean(axis=-1, keepdims=True)
    # two field-sized buffers: the centred prediction is made twice, once to
    # be squared and once to be multiplied by the centred truth
    dp = pred - mean_p
    norm = np.sqrt(np.sum(np.square(dp, out=dp), axis=-1))
    dt = truth - truth.mean(axis=-1, keepdims=True)
    cross = np.sum(np.multiply(np.subtract(pred, mean_p, out=dp), dt, out=dp), axis=-1)
    norm *= np.sqrt(np.sum(np.square(dt, out=dt), axis=-1))
    # a constant field's rounded mean can leave it a nonzero centred norm
    varies = (np.ptp(pred, axis=-1) > 0) & (np.ptp(truth, axis=-1) > 0) & (norm > 0)
    return np.divide(cross, norm, out=np.full_like(cross, np.nan), where=varies)[()]


@dataclass
class EvalReport:
    """Per-trajectory and pooled rollout metrics at snapshot cadence."""

    times: np.ndarray                 # (S,) seconds, including t=0
    aggregate_rel_l2: float           # pooled over all snapshots and trajectories
    pcc_curves: np.ndarray            # (n_traj, S)
    rel_l2_cum: np.ndarray            # (n_traj, S) cumulative-in-time rel l2
    failures: list[tuple[int, str]] = field(default_factory=list)

    @property
    def n_traj(self) -> int:
        return len(self.rel_l2_cum)


def evaluate_rollout(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    test_set: TrajectoryDataset,
) -> EvalReport:
    """Roll the model from every test IC in one batch over the full
    trajectory length, one step per snapshot, and score against the stored
    truth. The set's cadence must equal dt_model.

    A diverging trajectory is recorded as a failure, not an abort: its
    rollout turns non-finite and stays so, the failure names the first
    snapshot that is not finite, and its scores are NaN, which the pooled
    score leaves out. The batch holds every trajectory's intermediates at
    once, so the memory of a step grows with the set.
    """
    if abs(test_set.cadence - cfg.dt_model) > 1e-9 * cfg.dt_model:
        raise ValueError(f"snapshot cadence {test_set.cadence} must equal "
                         f"dt_model {cfg.dt_model}")
    times = np.arange(test_set.n_snapshots) * test_set.cadence
    preds = sino_model.rollout(test_set.data[:, 0], params, cfg, test_set.grid,
                               test_set.n_snapshots - 1)
    snap_finite = np.isfinite(preds).reshape(preds.shape[:2] + (-1,)).all(axis=-1)
    diverged = ~snap_finite.all(axis=1)
    failures = []
    for t in np.flatnonzero(diverged).tolist():
        s = int(np.argmin(snap_finite[t]))
        failures.append((t, f"rollout diverged by snapshot {s} (t={times[s]:.6g})"))
        preds[t] = np.nan
    truth = test_set.data
    pcc_curves = pcc(preds, truth, lead=2)
    # error and truth energy of each (trajectory, snapshot), each one sum over
    # its contiguous block; the squares overwrite the predictions
    blocks = truth.shape[:2] + (-1,)
    preds -= truth
    err_cum = np.cumsum(np.sum(np.square(preds, out=preds).reshape(blocks), axis=-1), axis=1)
    truth_cum = np.cumsum(np.sum(np.square(truth, out=preds).reshape(blocks), axis=-1), axis=1)
    cum = np.sqrt(np.divide(err_cum, truth_cum, out=np.full_like(err_cum, np.nan),
                            where=truth_cum > 0))
    # Python's sum adds the trajectory totals in order; np.sum would add 8 or
    # more of them pairwise
    err_pool = sum(err_cum[~diverged, -1].tolist())
    truth_pool = sum(truth_cum[~diverged, -1].tolist())
    aggregate = math.sqrt(err_pool / truth_pool) if truth_pool > 0 else float("nan")
    return EvalReport(
        times=times,
        aggregate_rel_l2=aggregate,
        pcc_curves=pcc_curves,
        rel_l2_cum=cum,
        failures=failures,
    )


# -- pattern (OOD) initial conditions -----------------------------------------


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


def pattern_ic(raster: np.ndarray, grid: GridSpec, amplitude: float | None = None,
               cutoff: int = 8) -> np.ndarray:
    """Raster (H, W) in [0, 1] -> zero-mean field (1, *points) with the modes
    max_i |k_i| <= cutoff, at RMS amplitude (None: a reference GRF draw's)."""
    raster = np.asarray(raster, dtype=np.float64)
    if raster.ndim != 2 or raster.size == 0:
        raise ValueError("raster must be a non-empty 2D array")
    if grid.dim != 2:
        raise ValueError("pattern initial conditions are 2D")
    f = _bilinear(raster, grid)[np.newaxis]
    f = f - f.mean()
    fg = freq_grid(grid)
    keep = (np.max(np.abs(fg.index), axis=0) <= cutoff).astype(np.float64)
    f = inverse_transform(forward_transform(f, grid) * keep, grid)
    if amplitude is None:
        ref = grf_sample(grid, seed=0, alpha=2.5, tau=7.0)
        amplitude = float(np.sqrt(np.mean(ref**2)))
    rms = float(np.sqrt(np.mean(f**2)))
    if rms < 1e-12 * (float(np.max(np.abs(raster))) + 1e-300):
        return np.zeros_like(f)  # featureless raster, don't amplify roundoff
    return f * (amplitude / rms)


def builtin_raster(name: str) -> np.ndarray:
    """Procedural 128x128 stand-ins for the published star / smiley / 'AI' patterns.

    Shapes are drawn at the pixel centres -1 + (2i+1)/size that _bilinear
    assumes, so a pattern has the same physical size at every size.
    """
    size = 128
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


def pattern_test_set(name: str, pde: PDESpec, solver: SolverConfig, gen_grid: GridSpec,
                     grid: GridSpec) -> TrajectoryDataset:
    """One trajectory from the builtin raster `name`: its pattern IC on grid,
    repeated over the PDE's channels, simulated on gen_grid and stored on
    grid, as a generated test set is."""
    ic = np.repeat(pattern_ic(builtin_raster(name), grid), pde.channels, axis=0)
    truth = integrate(pde, solver, gen_grid, spectral_resample(ic, grid, gen_grid), grid)
    return TrajectoryDataset(grid=grid, cadence=solver.save_dt, data=truth[np.newaxis])


# -- CSV export ----------------------------------------------------------------


def export_csv(report: EvalReport, path, config_hash: str) -> None:
    """One row per snapshot per trajectory, each with the hash of the config
    that produced the report; 17 significant digits, LF endings, one atomic write."""
    lines = ["trajectory,config_hash,time_s,pcc,rel_l2_cum"]
    for t in range(report.n_traj):
        for s in range(len(report.times)):
            p = report.pcc_curves[t, s]
            c = report.rel_l2_cum[t, s]
            p_s = "" if np.isnan(p) else f"{p:.17g}"
            c_s = "" if np.isnan(c) else f"{c:.17g}"
            lines.append(f"{t},{config_hash},{report.times[s]:.17g},{p_s},{c_s}")
    containers.write_lines(path, lines)
