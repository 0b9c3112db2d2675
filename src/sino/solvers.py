"""Pseudo-spectral reference solvers (KSE, NSE vorticity form, 2D/3D Burgers)
and trajectory dataset generation.

Each PDE is split on the real-FFT half spectrum into a real diagonal linear
symbol and a nonlinear term whose products are de-aliased by the 2/3 rule:
  * KSE: k^2 - k^4, and -0.5*|grad u|^2;
  * NSE (vorticity form): -nu*k^2, and -(u . grad) w plus the forcing;
  * Burgers: -nu*k^2, and -sum_j u_j * d_j u_c per component.
One scheme integrates all of them: integrating-factor RK4, which advances
the linear part exactly and steps the nonlinear term explicitly (Kassam &
Trefethen, SIAM J. Sci. Comput. 2005). Each saved snapshot is taken from the
state's half spectrum: one inverse transform, on the output grid.

A step makes no state-sized array of its own; numpy still allocates its
iterator's bounded buffers (up to 8 192 elements) for a multiply that
broadcasts a small operand or casts float64 into complex128. _split makes
each nonlinear term's buffers once per call: one complex work spectrum,
which a term multiplies into and then inverse-transforms in place, and the
real fields the products need. integrate makes the four RK4 stage spectra
and the stage input once per trajectory and updates the state in place.
The transforms write into those buffers: numpy's own rfftn, given its out
by position, and spectral.irfftn_into, numpy's irfftn passes in numpy's
order. KSE and NSE (one channel, 2D) make one inverse of all their fields
(the two gradients; the two velocities and the two gradients). Burgers
makes one per field, u and then each d_j u, C channels each: one inverse of
all (1+d)*C fields at 32^3 is 3.3 MB, more than a 2 MB L2, and it measured
slower on a 2-CPU host (one E7-desk generation of 0.05 time units 112-180
ms, against 107-108). Every expression keeps the operand order and
association of the fresh-array form, the terms' sums start from 0 as sum()
does, and each pass is the same ufunc or FFT on the same values, so the
snapshots are bit-identical to those of a step that allocates every stage
and transform afresh.

A blow-up is detected once per step, on the state: no operation of a step
(a product with a mask or factor, a sum, an FFT) turns a NaN or Inf finite,
so a non-finite value from any stage reaches the state in the same step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite
from .spectral import (
    GridSpec,
    _resample_spectrum,
    forward_transform,
    freq_grid,
    grf_sample,
    inverse_transform,
    irfftn_into,
    spectral_resample,
    two_thirds_mask,
)

PDE_KINDS = ("kse", "nse", "burgers")
FORCINGS = ("none", "f1", "f2")


@dataclass(frozen=True)
class PDESpec:
    """Which PDE to solve and its parameters."""

    kind: str
    nu: float = 0.0
    forcing: str = "none"
    dim: int = 2

    def __post_init__(self):
        if self.kind not in PDE_KINDS:
            raise ValueError(f"unknown PDE kind {self.kind!r}")
        if self.forcing not in FORCINGS:
            raise ValueError(f"unknown forcing {self.forcing!r}")
        if self.forcing != "none" and self.kind != "nse":
            raise ValueError("forcing is only defined for the vorticity equation")
        if self.dim == 3 and self.kind != "burgers":
            raise ValueError("only Burgers supports dim=3")
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if not -np.inf < self.nu < np.inf:
            raise ValueError(f"nu must be finite, got {self.nu}")
        if self.kind in ("nse", "burgers") and not self.nu > 0:
            raise ValueError(f"{self.kind} requires nu > 0")

    @property
    def channels(self) -> int:
        return self.dim if self.kind == "burgers" else 1


@dataclass(frozen=True)
class SolverConfig:
    """Time stepping and snapshot cadence for the reference integrator."""

    dt: float
    t_end: float
    save_dt: float

    def __post_init__(self):
        for name in ("dt", "save_dt"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not 0 <= self.t_end < np.inf:
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end}")
        if self.save_dt < self.dt - 1e-12 * self.dt:
            raise ValueError("save_dt must be >= dt")
        if self.t_end > 0 and self.t_end < self.save_dt - 1e-12 * self.save_dt:
            raise ValueError("t_end must be >= save_dt (or 0 for a single snapshot)")
        for name, ratio in (("save_dt/dt", self.save_dt / self.dt),
                            ("t_end/save_dt", self.t_end / self.save_dt)):
            if abs(ratio - round(ratio)) > 1e-6:
                raise ValueError(f"{name} must be an integer multiple, got {ratio}")

    @property
    def save_every(self) -> int:
        return round(self.save_dt / self.dt)

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    @property
    def n_snapshots(self) -> int:
        return self.n_steps // self.save_every + 1


@dataclass
class TrajectoryDataset:
    """Uniform-cadence snapshots of one or more trajectories on a shared grid.

    data has shape (n_traj, n_snapshots, channels, *points); snapshot s of
    trajectory t is the state at time s * cadence.
    """

    grid: GridSpec
    cadence: float
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != self.grid.dim + 3 or self.data.shape[3:] != self.grid.points:
            raise ValueError(
                f"data must be (n_traj, n_snap, C, {self.grid.points}), got {self.data.shape}"
            )

    @property
    def n_traj(self) -> int:
        return self.data.shape[0]

    @property
    def n_snapshots(self) -> int:
        return self.data.shape[1]


def forcing_field(grid: GridSpec, forcing: str) -> np.ndarray:
    """Time-independent forcing evaluated on the grid, shape (1, *points)."""
    if forcing == "none":
        return np.zeros((1,) + grid.points)
    x = grid.coords()
    if forcing == "f1":
        return 0.1 * np.cos(8.0 * np.pi * x[0])[np.newaxis]
    if forcing == "f2":
        return (0.1 * np.sqrt(2.0) * np.sin(2.0 * np.pi * (x[0] + x[1]) + np.pi / 4.0))[np.newaxis]
    raise ValueError(f"unknown forcing {forcing!r}")


def biot_savart(omega_hat: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Velocity spectrum from a 2D vorticity spectrum: u_hat = i k_perp / |k|^2 * w_hat.

    k_perp = (k_y, -k_x), the orientation that makes curl(u) reproduce the
    vorticity (u = (d_y psi, -d_x psi) with -lap(psi) = omega). The k=0
    velocity mode is set to zero (zero mean flow), and the derivatives drop
    their odd-order Nyquist bins, as FreqGrid.derivative_multiplier does, so
    a real vorticity gives real velocities.
    """
    if grid.dim != 2:
        raise ValueError("Biot-Savart inversion is defined for 2D grids")
    fg = freq_grid(grid)
    k_sq = fg.k_sq.copy()
    k_sq.flat[0] = 1.0  # avoid 0/0; the mode is zeroed below
    ux = fg.derivative_multiplier((0, 1)) / k_sq * omega_hat
    uy = -fg.derivative_multiplier((1, 0)) / k_sq * omega_hat
    zero = tuple([slice(None)] + [0] * grid.dim)
    ux[zero] = 0.0
    uy[zero] = 0.0
    return ux, uy


def _split(spec: PDESpec, grid: GridSpec):
    """The PDE as d(u_hat)/dt = lin * u_hat + nonlin(u_hat) on the half spectrum.

    lin is the real diagonal symbol of the linear part; nonlin(uh, out)
    writes into out, and returns, the spectrum of the de-aliased nonlinear
    term, plus, for the vorticity equation, the spectrum of spec's forcing
    on grid. The multipliers and nonlin's buffers are made here, once per
    call; each nonlin call overwrites the buffers.
    """
    fg = freq_grid(grid)
    mask = two_thirds_mask(grid)
    grads = np.stack([fg.derivative_multiplier(unit) for unit in np.eye(grid.dim, dtype=int)])

    def spectrum(c):
        return np.empty((c,) + grid.half_points, dtype=np.complex128)

    def field(c):
        return np.empty((c,) + grid.points)

    if spec.kind == "kse":  # 2D
        work, g = spectrum(2), field(2)

        def nonlin(uh, out):  # -0.5*|grad u|^2
            irfftn_into(np.multiply(uh, grads, out=work), grid, work, g)
            grad_sq = np.add(*np.square(g, out=g), out=g[0])
            np.multiply(-0.5, grad_sq, out=grad_sq)
            np.fft.rfftn(g[:1], grid.points, grid.axes, None, out)
            return np.multiply(out, mask, out=out)

        return fg.k_sq - fg.k_sq**2, nonlin
    if spec.kind == "nse":  # 2D
        f_hat = forward_transform(forcing_field(grid, spec.forcing), grid)
        # the Biot-Savart law applied to a unit spectrum: its multipliers,
        # then the gradient's
        mults = np.concatenate([*biot_savart(np.ones((1,) + grid.half_points), grid), grads])
        work, r = spectrum(4), field(4)

        def nonlin(wh, out):  # -(u . grad) w + f
            irfftn_into(np.multiply(mults, wh, out=work), grid, work, r)
            np.multiply(r[:2], r[2:], out=r[:2])  # u * d_x w, v * d_y w
            conv = np.add(0.0, r[0], out=r[2:3])  # summed from 0, as sum() adds
            np.fft.rfftn(np.add(conv, r[1], out=conv), grid.points, grid.axes, None, out)
            out *= mask
            return np.subtract(f_hat, out, out=out)

        return -spec.nu * fg.k_sq, nonlin

    work, u, du, conv = spectrum(grid.dim), field(grid.dim), field(grid.dim), field(grid.dim)

    def nonlin(uh, out):  # per component: -sum_j u_j * d_j u_c
        irfftn_into(uh, grid, work, u)
        conv.fill(0.0)  # summed from 0, as sum() adds
        for j, d in enumerate(grads):
            irfftn_into(np.multiply(uh, d, out=work), grid, work, du)
            np.add(conv, np.multiply(u[j : j + 1], du, out=du), out=conv)
        np.fft.rfftn(conv, grid.points, grid.axes, None, out)
        np.negative(out, out=out)
        return np.multiply(out, mask, out=out)

    return -spec.nu * fg.k_sq, nonlin


def _rhs(spec: PDESpec, grid: GridSpec, u: np.ndarray) -> np.ndarray:
    lin, nonlin = _split(spec, grid)
    uh = forward_transform(u, grid)
    return inverse_transform(lin * uh + nonlin(uh, np.empty_like(uh)), grid)


def kse_rhs(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """-lap(u) - lap^2(u) - 0.5*|grad u|^2 with the quadratic term de-aliased."""
    return _rhs(PDESpec(kind="kse"), grid, u)


def nse_rhs(omega: np.ndarray, grid: GridSpec, spec: PDESpec) -> np.ndarray:
    """nu*lap(w) - (u . grad) w + f, with velocities from the Biot-Savart law."""
    return _rhs(spec, grid, omega)


def burgers_rhs(u: np.ndarray, grid: GridSpec, nu: float) -> np.ndarray:
    """Per component: nu*lap(u_c) - sum_j u_j * d_j u_c, products de-aliased."""
    if u.shape[0] != grid.dim:
        raise ValueError(f"Burgers state needs {grid.dim} channels, got {u.shape[0]}")
    return _rhs(PDESpec(kind="burgers", nu=nu, dim=grid.dim), grid, u)


def integrate(spec: PDESpec, cfg: SolverConfig, grid: GridSpec, ic: np.ndarray,
              out_grid: GridSpec | None = None, snaps: np.ndarray | None = None) -> np.ndarray:
    """Integrate from an initial condition, recording a snapshot every save_dt.

    Integrating-factor RK4 on the half spectrum: the diagonal linear part is
    advanced exactly by exp(dt * lin), only the nonlinear term (and forcing)
    is stepped explicitly. Returns the snapshots [state(0), state(save_dt),
    ...] as one array (cfg.n_snapshots, channels, *points), written into
    snaps if given. Each snapshot is resampled to out_grid (by default grid)
    as it is saved, so the integration holds one state on grid at a time.
    Snapshot 0 is spectral_resample of ic; every later save maps the state's
    half spectrum to out_grid's and makes one inverse transform, on
    out_grid, and none on grid. The stage spectra are made once, and each
    step overwrites them and updates the state in place. A step whose state
    is non-finite raises NonFinite carrying that step and its time.
    """
    ic = np.asarray(ic, dtype=np.float64)
    if ic.shape != (spec.channels,) + grid.points:
        raise ValueError(
            f"initial condition must have shape ({spec.channels}, {grid.points}), got {ic.shape}"
        )
    out_grid = grid if out_grid is None else out_grid
    shape = (cfg.n_snapshots,) + ic.shape[:1] + out_grid.points
    if snaps is None:
        snaps = np.empty(shape)
    elif snaps.shape != shape:
        raise ValueError(f"snaps must have shape {shape}, got {snaps.shape}")
    lin, nonlin = _split(spec, grid)
    dt, h = cfg.dt, 0.5 * cfg.dt
    e_half = np.exp(h * lin)
    e_full = e_half * e_half
    dt_e_half, two_e_half = dt * e_half, 2.0 * e_half
    uh = forward_transform(ic, grid)
    k1, m2, m3, m4, x = (np.empty_like(uh) for _ in range(5))
    snaps[0] = spectral_resample(ic, grid, out_grid)
    # a blow-up overflows, and the step's check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.n_steps):
            nonlin(uh, k1)
            # m2 = nonlin(e_half * (uh + h * k1))
            np.add(uh, np.multiply(h, k1, out=x), out=x)
            nonlin(np.multiply(e_half, x, out=x), m2)
            # m3 = nonlin(e_half * uh + h * m2), h * m2 staged in m3
            np.multiply(e_half, uh, out=x)
            nonlin(np.add(x, np.multiply(h, m2, out=m3), out=x), m3)
            # m4 = nonlin(e_full * uh + dt_e_half * m3), the product staged in m4
            np.multiply(e_full, uh, out=x)
            nonlin(np.add(x, np.multiply(dt_e_half, m3, out=m4), out=x), m4)
            # uh = e_full * uh + (dt / 6) * (e_full * k1 + two_e_half * (m2 + m3) + m4)
            np.multiply(two_e_half, np.add(m2, m3, out=m2), out=m2)
            np.add(np.multiply(e_full, k1, out=k1), m2, out=k1)
            np.multiply(dt / 6.0, np.add(k1, m4, out=k1), out=k1)
            np.add(np.multiply(e_full, uh, out=uh), k1, out=uh)
            if not np.isfinite(uh).all():
                t = (step + 1) * dt
                raise NonFinite(f"solver blew up at t={t:.6g} (step {step + 1})",
                                time=t, step=step + 1)
            if (step + 1) % cfg.save_every == 0:
                snaps[(step + 1) // cfg.save_every] = inverse_transform(
                    _resample_spectrum(uh, grid, out_grid), out_grid)
    return snaps


GRF_DEFAULTS = {
    "nse": {"alpha": 2.5, "tau": 7.0, "scale": None},
    "kse": {"alpha": 2.0, "tau": 5.0, "scale": None},
    "burgers": {"alpha": 2.0, "tau": 5.0, "scale": None},
}

SPLIT_SEEDS = {"train": 0, "val": 1, "test": 2}


def ic_seed(split_seed: int, traj: int, channel: int) -> int:
    """Deterministic per-(split, trajectory, channel) GRF seed."""
    return split_seed * 1_000_003 + traj * 1_009 + channel


def grf_settings(kind: str, grf: dict | None = None) -> dict:
    """The GRF settings of a PDE kind: its GRF_DEFAULTS, then grf's non-null values."""
    return {**GRF_DEFAULTS[kind], **{k: v for k, v in (grf or {}).items() if v is not None}}


def sample_ic(spec: PDESpec, grid: GridSpec, split_seed: int, traj: int,
              grf: dict | None = None) -> np.ndarray:
    """Initial condition with one independent GRF draw per channel."""
    params = grf_settings(spec.kind, grf)
    return np.concatenate(
        [
            grf_sample(grid, ic_seed(split_seed, traj, c), **params)
            for c in range(spec.channels)
        ]
    )


def generate_dataset(
    spec: PDESpec,
    cfg: SolverConfig,
    gen_grid: GridSpec,
    train_grid: GridSpec,
    n_traj: int,
    split: str = "train",
    grf: dict | None = None,
    split_seed: int | None = None,
) -> TrajectoryDataset:
    """Simulate n_traj trajectories at generation resolution and resample the
    snapshots to the training grid, each integrated into its slice of the
    one array the dataset holds.

    Split seeds follow the fixed convention train=0, val=1, test=2; per-
    trajectory IC seeds derive deterministically from (split seed, index).
    """
    if split_seed is None:
        split_seed = SPLIT_SEEDS[split]
    data = np.empty((n_traj, cfg.n_snapshots, spec.channels) + train_grid.points)
    for t in range(n_traj):
        integrate(spec, cfg, gen_grid, sample_ic(spec, gen_grid, split_seed, t, grf),
                  train_grid, data[t])
    return TrajectoryDataset(grid=train_grid, cadence=cfg.save_dt, data=data)
