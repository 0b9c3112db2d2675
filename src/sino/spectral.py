"""Shared spectral substrate: grids, FFTs, exact derivatives, de-aliasing,
resampling, and Gaussian-random-field sampling.

Conventions (normative for everything built on top):
  * fields are float64 arrays of shape (channels, *points), C-order;
  * spectra are complex128 arrays of the same shape, mode ordering
    [0, 1, ..., N/2-1, -N/2, ..., -1] per axis (numpy fft order);
  * the forward transform is unnormalized, the inverse divides by prod(N).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .errors import HermitianViolation, IncompatibleDomain, NonFinite


@dataclass(frozen=True)
class GridSpec:
    """Periodic Cartesian grid: per-axis mode counts and domain lengths."""

    points: tuple[int, ...]
    length: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(int(n) for n in self.points))
        object.__setattr__(self, "length", tuple(float(l) for l in self.length))
        if len(self.points) != len(self.length):
            raise ValueError("points and length must have the same arity")
        if self.dim not in (2, 3):
            raise ValueError(f"only 2D/3D grids are supported, got dim={self.dim}")
        for n in self.points:
            if n < 4 or n % 2 != 0:
                raise ValueError(f"per-axis point count must be even and >= 4, got {n}")
        for l in self.length:
            if not (l > 0):
                raise ValueError(f"domain length must be positive, got {l}")

    @property
    def dim(self) -> int:
        return len(self.points)

    @property
    def n_points(self) -> int:
        return math.prod(self.points)

    @property
    def axes(self) -> tuple[int, ...]:
        """Grid axes of a (channels, *points) array."""
        return tuple(range(1, self.dim + 1))

    def coords(self) -> np.ndarray:
        """Physical coordinates, shape (dim, *points), x_i in [0, L_i)."""
        axes_1d = [np.arange(n) * (l / n) for n, l in zip(self.points, self.length)]
        return np.stack(np.meshgrid(*axes_1d, indexing="ij"))


class FreqGrid:
    """Frequency bookkeeping for a grid: integer indices and physical wavenumbers.

    index[i] holds the integer mode index k_i per mode; wavenumber[i] holds
    2*pi*k_i/L_i. Ordering matches the spectrum layout.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        idx_1d = [np.fft.fftfreq(n, 1.0 / n).astype(np.int64) for n in grid.points]
        self.index = np.stack(np.meshgrid(*idx_1d, indexing="ij"))
        self.wavenumber = np.stack(
            [2.0 * np.pi * self.index[i] / grid.length[i] for i in range(grid.dim)]
        )
        self.k_sq = np.sum(self.wavenumber**2, axis=0)

    def derivative_multiplier(self, orders) -> np.ndarray:
        """Spectral multiplier prod_i (i*k_i)^o_i with the odd-order Nyquist zeroed."""
        orders = tuple(int(o) for o in orders)
        if len(orders) != self.grid.dim:
            raise ValueError("orders must have one entry per axis")
        mult = np.ones(self.grid.points, dtype=np.complex128)
        for axis, order in enumerate(orders):
            if order == 0:
                continue
            m = (1j * self.wavenumber[axis]) ** order
            if order % 2 == 1:
                # the Nyquist mode has no conjugate partner; an odd derivative
                # there would break realness, so it is conventionally dropped
                m[self.index[axis] == -(self.grid.points[axis] // 2)] = 0.0
            mult = mult * m
        return mult


@lru_cache(maxsize=64)
def freq_grid(grid: GridSpec) -> FreqGrid:
    return FreqGrid(grid)


def _check_field(f: np.ndarray, grid: GridSpec, name: str) -> np.ndarray:
    f = np.asarray(f)
    if f.ndim != grid.dim + 1 or f.shape[1:] != grid.points:
        raise ValueError(
            f"{name} must have shape (channels, {', '.join(map(str, grid.points))}), got {f.shape}"
        )
    return f


def forward_transform(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Real field (C, *N) -> unnormalized spectral coefficients (C, *N).

    Raises NonFinite on a NaN or Inf value: a solver right-hand side that
    overflows from a finite state fails here, as the blow-up it is."""
    f = _check_field(f, grid, "field")
    if not np.isfinite(f).all():
        raise NonFinite("field contains non-finite values")
    return np.fft.fftn(f.astype(np.float64, copy=False), axes=grid.axes)


def inverse_transform(s: np.ndarray, grid: GridSpec, rtol: float = 1e-8) -> np.ndarray:
    """Spectral coefficients -> real field.

    The imaginary residue after the inverse FFT is asserted to be below
    rtol relative to the field's RMS, then discarded.

    Raises HermitianViolation if the residue exceeds the tolerance; that
    signals a non-Hermitian spectrum produced by a bug upstream.
    """
    s = _check_field(s, grid, "spectrum")
    u = np.fft.ifftn(s, axes=grid.axes)
    scale = math.sqrt(float(np.mean(np.abs(u) ** 2)))
    residue = float(np.max(np.abs(u.imag))) if u.size else 0.0
    if residue > rtol * scale:
        raise HermitianViolation(
            f"imaginary residue {residue:.3e} exceeds {rtol:.1e} * field RMS {scale:.3e}"
        )
    return np.ascontiguousarray(u.real)


def spectral_derivative(s: np.ndarray, grid: GridSpec, orders) -> np.ndarray:
    """Differentiate a spectrum exactly: coefficients times prod_i (i*k_i)^o_i."""
    s = _check_field(s, grid, "spectrum")
    return s * freq_grid(grid).derivative_multiplier(orders)


@lru_cache(maxsize=64)
def two_thirds_mask(grid: GridSpec) -> np.ndarray:
    """De-aliasing mask: 1.0 where max_i |k_i| <= floor(2*k_max/3), else 0.0.

    k_max is min_i N_i/2; flooring the cutoff is the conservative rounding.
    Built once per grid and shared, so the array is read-only.
    """
    fg = freq_grid(grid)
    k_max = min(grid.points) // 2
    cutoff = (2 * k_max) // 3
    mask = (np.max(np.abs(fg.index), axis=0) <= cutoff).astype(np.float64)
    mask.flags.writeable = False
    return mask


def apply_spectral_multiplier(s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Elementwise product of a spectrum with a per-mode multiplier table."""
    s = np.asarray(s)
    m = np.asarray(m)
    if m.shape != s.shape[-m.ndim:]:
        raise ValueError(f"multiplier shape {m.shape} does not match spectrum {s.shape}")
    return s * m


def spectral_resample(f: np.ndarray, grid: GridSpec, target: GridSpec) -> np.ndarray:
    """Resample a real field between commensurate grids.

    Downsampling truncates high modes, upsampling zero-pads them; both drop
    the Nyquist bins of the smaller grid, preserve DC exactly, and keep the
    field real.
    """
    f = _check_field(f, grid, "field")
    if grid.dim != target.dim or any(
        abs(a - b) > 1e-12 * max(abs(a), abs(b)) for a, b in zip(grid.length, target.length)
    ):
        raise IncompatibleDomain(
            f"cannot resample between domains {grid.length} and {target.length}"
        )
    if target.points == grid.points:
        return f.copy()
    src = np.fft.fftn(f, axes=grid.axes)
    out = np.zeros(f.shape[:1] + target.points, dtype=np.complex128)
    sel_src = [slice(None)]
    sel_dst = [slice(None)]
    for ns, nt in zip(grid.points, target.points):
        half = min(ns, nt) // 2 - 1
        modes = np.r_[0 : half + 1, -half:0] if half > 0 else np.array([0])
        sel_src.append(modes % ns)
        sel_dst.append(modes % nt)
    scale = target.n_points / grid.n_points
    out[np.ix_(np.arange(f.shape[0]), *sel_dst[1:])] = (
        src[np.ix_(np.arange(f.shape[0]), *sel_src[1:])] * scale
    )
    return inverse_transform(out, target)


def grf_sample(
    grid: GridSpec,
    seed: int,
    alpha: float = 2.5,
    tau: float = 7.0,
    scale: float | None = None,
) -> np.ndarray:
    """Draw one zero-mean periodic Gaussian random field, shape (1, *points).

    Per-mode standard deviation sigma(k) = scale * (4*pi^2*|k|^2 + tau^2)^(-alpha/2)
    with k the integer mode index; the k=0 coefficient is forced to zero.
    scale defaults to tau^(alpha - dim/2). Deterministic given the seed.
    """
    if not alpha > grid.dim / 2:
        raise ValueError(f"alpha must exceed dim/2 for integrability, got {alpha}")
    if scale is None:
        scale = tau ** (alpha - grid.dim / 2)
    fg = freq_grid(grid)
    idx_sq = np.sum(fg.index.astype(np.float64) ** 2, axis=0)
    sigma = scale * (4.0 * np.pi**2 * idx_sq + tau**2) ** (-alpha / 2.0)
    sigma.flat[0] = 0.0
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((2,) + grid.points)
    coeffs = grid.n_points * sigma * (noise[0] + 1j * noise[1])
    u = np.fft.ifftn(coeffs).real
    return u[np.newaxis].astype(np.float64)
