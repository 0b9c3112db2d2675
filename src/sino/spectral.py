"""Shared spectral substrate: grids, FFTs, exact derivatives, de-aliasing,
resampling, and Gaussian-random-field sampling.

Conventions (normative for everything built on top):
  * fields are float64 arrays of shape (channels, *points), C-order;
  * spectra are real-FFT half spectra: complex128 arrays of shape
    (channels, *half_points), where every axis but the last keeps all N
    modes in numpy fft order [0, 1, ..., N/2-1, -N/2, ..., -1] and the last
    axis keeps the N/2+1 modes [0, 1, ..., N/2-1, -N/2]. The last column is
    the Nyquist mode, indexed -N/2 as in the full order, so the odd-order
    Nyquist rule and the Freq2Vec inputs read it as in a full spectrum;
  * a mode k and its partner -k carry conjugate coefficients, so the half
    spectrum holds a real field's whole content and the inverse transform
    returns a real field by construction;
  * the forward transform is unnormalized, the inverse divides by prod(N).

forward_transform and inverse_transform return fresh arrays. rfftn_into and
irfftn_into write the same transforms into arrays the caller made once:
they make numpy's own rfftn and irfftn passes in numpy's order, each pass
into the caller's array and in place after the first, so their results
equal rfftn's and irfftn's bit for bit, and an in-place pass copies
nothing. They pass out by position, as every np.fft call in the package
must: perfbench's tracer wraps each np.fft function, and its byte counter
takes the call's result as a parameter named out, so an out= keyword
raises TypeError in a traced run. The np.fft functions take out from
numpy 2.0 on, so the package requires numpy >= 2.0; under numpy 1.x each
of these calls raises TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .errors import IncompatibleDomain, NonFinite


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
            if not 0 < l < math.inf:
                raise ValueError(f"domain length must be finite and positive, got {l}")

    @property
    def dim(self) -> int:
        return len(self.points)

    @property
    def n_points(self) -> int:
        return math.prod(self.points)

    @property
    def half_points(self) -> tuple[int, ...]:
        """Mode counts of the half spectrum: the last axis keeps N/2+1."""
        return self.points[:-1] + (self.points[-1] // 2 + 1,)

    @property
    def axes(self) -> tuple[int, ...]:
        """The trailing grid axes of a (..., *points) field or its half spectrum."""
        return tuple(range(-self.dim, 0))

    def coords(self) -> np.ndarray:
        """Physical coordinates, shape (dim, *points), x_i in [0, L_i)."""
        axes_1d = [np.arange(n) * (l / n) for n, l in zip(self.points, self.length)]
        return np.stack(np.meshgrid(*axes_1d, indexing="ij"))


def _fft_order(n: int) -> np.ndarray:
    """Integer mode indices of an n-point axis in numpy fft order."""
    return np.r_[0 : n // 2, -(n // 2) : 0]


class FreqGrid:
    """Frequency bookkeeping for a grid: integer indices and physical wavenumbers.

    index[i] holds the integer mode index k_i per mode of the half
    spectrum, shape (dim, *half_points); wavenumber[i] holds 2*pi*k_i/L_i.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        idx_1d = [_fft_order(n) for n in grid.points]
        idx_1d[-1] = idx_1d[-1][: grid.half_points[-1]]
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
        mult = np.ones(self.grid.half_points, dtype=np.complex128)
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


def _check_shape(f: np.ndarray, points: tuple[int, ...], name: str) -> np.ndarray:
    f = np.asarray(f)
    if f.ndim != len(points) + 1 or f.shape[1:] != points:
        raise ValueError(
            f"{name} must have shape (channels, {', '.join(map(str, points))}), got {f.shape}"
        )
    return f


def forward_transform(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Real field (C, *points) -> unnormalized half spectrum (C, *half_points).

    Raises NonFinite on a NaN or Inf value. rfftn_into makes the same check,
    and the solver's nonlinear terms transform through it: a right-hand side
    that overflows from a finite state fails there, as the blow-up it is."""
    f = _check_shape(f, grid.points, "field")
    if not np.isfinite(f).all():
        raise NonFinite("field contains non-finite values")
    return np.fft.rfftn(f.astype(np.float64, copy=False), axes=grid.axes)


def inverse_transform(s: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Half spectrum (C, *half_points) -> real field (C, *points)."""
    s = _check_shape(s, grid.half_points, "spectrum")
    return np.fft.irfftn(s, s=grid.points, axes=grid.axes)


def rfftn_into(f: np.ndarray, grid: GridSpec, out: np.ndarray) -> np.ndarray:
    """forward_transform of f (C, *points) written into out, a complex128
    (C, *half_points) array: rfft on the last axis, then fft in place on
    the others, last to first. Raises NonFinite as forward_transform does."""
    if not np.isfinite(f).all():
        raise NonFinite("field contains non-finite values")
    np.fft.rfft(f, grid.points[-1], -1, None, out)
    for axis in range(-2, -grid.dim - 1, -1):
        np.fft.fft(out, grid.points[axis], axis, None, out)
    return out


def irfftn_into(s: np.ndarray, grid: GridSpec, work: np.ndarray, out: np.ndarray) -> np.ndarray:
    """inverse_transform of s (C, *half_points) written into out (C, *points):
    ifft on every axis but the last, first to last, into work (a complex128
    array shaped as s, which may be s itself), then irfft into out."""
    for axis in range(-grid.dim, -1):
        np.fft.ifft(s, grid.points[axis], axis, None, work)
        s = work
    return np.fft.irfft(s, grid.points[-1], -1, None, out)


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


@lru_cache(maxsize=64)
def _resample_index(grid: GridSpec, target: GridSpec) -> tuple[tuple, tuple, float]:
    """Half-spectrum selections of the modes |k_i| <= min(N_i)/2 - 1 on grid
    and on target, and the ratio of their point counts."""
    sel_src, sel_dst = [], []
    for axis, (ns, nt) in enumerate(zip(grid.points, target.points)):
        half = min(ns, nt) // 2 - 1
        last = axis == grid.dim - 1
        modes = np.arange(half + 1) if last else np.r_[0 : half + 1, -half:0]
        sel_src.append(modes % ns)
        sel_dst.append(modes % nt)
    every = (slice(None),)
    return every + np.ix_(*sel_src), every + np.ix_(*sel_dst), target.n_points / grid.n_points


def _resample_spectrum(s: np.ndarray, grid: GridSpec, target: GridSpec) -> np.ndarray:
    """Half spectrum (C, *half_points) on grid -> its half spectrum on target:
    the modes |k_i| <= min(N_i)/2 - 1 kept, scaled by the point-count ratio.
    Between equal grids it is s itself, Nyquist bins included."""
    if target.points == grid.points:
        return s
    src, dst, scale = _resample_index(grid, target)
    out = np.zeros(s.shape[:1] + target.half_points, dtype=np.complex128)
    out[dst] = s[src] * scale
    return out


def spectral_resample(f: np.ndarray, grid: GridSpec, target: GridSpec) -> np.ndarray:
    """Resample a real field between commensurate grids.

    Downsampling truncates high modes, upsampling zero-pads them; both keep
    the modes |k_i| <= min(N_i)/2 - 1, so they drop the Nyquist bins of the
    smaller grid and preserve DC exactly. Between equal grids the field is
    copied whole, Nyquist bins included, so a split with gen_points equal to
    train_points stores the sampled ICs and the modes the solver integrated;
    truncating them moves exact-Burgers 3D rollouts off truth by ~1e-3 rel-l2.
    Otherwise it is a forward transform, the spectrum map the solvers save
    through (_resample_spectrum), and an inverse transform on target.
    """
    f = _check_shape(f, grid.points, "field")
    if grid.dim != target.dim or any(
        abs(a - b) > 1e-12 * max(abs(a), abs(b)) for a, b in zip(grid.length, target.length)
    ):
        raise IncompatibleDomain(
            f"cannot resample between domains {grid.length} and {target.length}"
        )
    if target.points == grid.points:
        return f.copy()
    return inverse_transform(_resample_spectrum(forward_transform(f, grid), grid, target), target)


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

    The noise is drawn on the full spectrum and synthesized with a full
    inverse FFT, keeping its real part, which fixes the draw for a seed.
    """
    if not alpha > grid.dim / 2:
        raise ValueError(f"alpha must exceed dim/2 for integrability, got {alpha}")
    if scale is None:
        scale = tau ** (alpha - grid.dim / 2)
    idx_1d = [_fft_order(n).astype(np.float64) ** 2 for n in grid.points]
    idx_sq = sum(np.meshgrid(*idx_1d, indexing="ij"))
    sigma = scale * (4.0 * np.pi**2 * idx_sq + tau**2) ** (-alpha / 2.0)
    sigma.flat[0] = 0.0
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((2,) + grid.points)
    coeffs = grid.n_points * sigma * (noise[0] + 1j * noise[1])
    u = np.fft.ifftn(coeffs).real
    return u[np.newaxis].astype(np.float64)
