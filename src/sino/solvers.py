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


def _unit(axis: int, dim: int) -> tuple[int, ...]:
    orders = [0] * dim
    orders[axis] = 1
    return tuple(orders)


def _split(kind: str, nu: float, grid: GridSpec, forcing: np.ndarray | None = None):
    """The PDE as d(u_hat)/dt = lin * u_hat + nonlin(u_hat) on the half spectrum.

    lin is the real diagonal symbol of the linear part; nonlin maps a state
    spectrum to the spectrum of the de-aliased nonlinear term, plus, for the
    vorticity equation, the spectrum of forcing, a (1, *points) field. The
    multipliers are built here, once per call.
    """
    fg = freq_grid(grid)
    mask = two_thirds_mask(grid)
    grads = [fg.derivative_multiplier(_unit(axis, grid.dim)) for axis in range(grid.dim)]
    if kind == "kse":
        def nonlin(uh):  # -0.5*|grad u|^2
            grad_sq = sum(inverse_transform(uh * d, grid) ** 2 for d in grads)
            return forward_transform(-0.5 * grad_sq, grid) * mask

        return fg.k_sq - fg.k_sq**2, nonlin
    if kind == "nse":
        f_hat = forward_transform(forcing, grid)
        # the Biot-Savart law applied to a unit spectrum: its multipliers
        velocity = biot_savart(np.ones((1,) + grid.half_points), grid)

        def nonlin(wh):  # -(u . grad) w + f
            conv = sum(inverse_transform(v * wh, grid) * inverse_transform(d * wh, grid)
                       for v, d in zip(velocity, grads))
            return f_hat - forward_transform(conv, grid) * mask

        return -nu * fg.k_sq, nonlin

    def nonlin(uh):  # per component: -sum_j u_j * d_j u_c
        u = inverse_transform(uh, grid)
        conv = sum(u[j : j + 1] * inverse_transform(uh * d, grid) for j, d in enumerate(grads))
        return -forward_transform(conv, grid) * mask

    return -nu * fg.k_sq, nonlin


def _rhs(kind: str, nu: float, grid: GridSpec, u: np.ndarray,
         forcing: np.ndarray | None = None) -> np.ndarray:
    lin, nonlin = _split(kind, nu, grid, forcing)
    uh = forward_transform(u, grid)
    return inverse_transform(lin * uh + nonlin(uh), grid)


def kse_rhs(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """-lap(u) - lap^2(u) - 0.5*|grad u|^2 with the quadratic term de-aliased."""
    return _rhs("kse", 0.0, grid, u)


def nse_rhs(omega: np.ndarray, grid: GridSpec, spec: PDESpec) -> np.ndarray:
    """nu*lap(w) - (u . grad) w + f, with velocities from the Biot-Savart law."""
    return _rhs("nse", spec.nu, grid, omega, forcing_field(grid, spec.forcing))


def burgers_rhs(u: np.ndarray, grid: GridSpec, nu: float) -> np.ndarray:
    """Per component: nu*lap(u_c) - sum_j u_j * d_j u_c, products de-aliased."""
    if u.shape[0] != grid.dim:
        raise ValueError(f"Burgers state needs {grid.dim} channels, got {u.shape[0]}")
    return _rhs("burgers", nu, grid, u)


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
    out_grid, and none on grid. A non-finite stage or result raises
    NonFinite carrying the step and time of the failed step.
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
    lin, nonlin = _split(spec.kind, spec.nu, grid, forcing_field(grid, spec.forcing))
    dt = cfg.dt
    e_half = np.exp(0.5 * dt * lin)
    e_full = e_half * e_half
    uh = forward_transform(ic, grid)
    snaps[0] = spectral_resample(ic, grid, out_grid)
    # a blow-up overflows; the transforms' and each step's checks report it
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.n_steps):
            try:
                k1 = nonlin(uh)
                m2 = nonlin(e_half * (uh + 0.5 * dt * k1))
                m3 = nonlin(e_half * uh + 0.5 * dt * m2)
                m4 = nonlin(e_full * uh + dt * e_half * m3)
                uh = e_full * uh + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (m2 + m3) + m4)
                if not np.isfinite(uh).all():
                    raise NonFinite("the step's result is non-finite")
            except NonFinite as err:
                t = (step + 1) * dt
                raise NonFinite(f"solver blew up at t={t:.6g} (step {step + 1}): {err}",
                                time=t, step=step + 1) from err
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


def sample_ic(spec: PDESpec, grid: GridSpec, split_seed: int, traj: int,
              grf: dict | None = None) -> np.ndarray:
    """Initial condition with one independent GRF draw per channel."""
    params = dict(GRF_DEFAULTS[spec.kind])
    if grf:
        params.update({k: v for k, v in grf.items() if v is not None or k == "scale"})
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
