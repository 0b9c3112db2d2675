import math

import numpy as np
import pytest

from sino.errors import IncompatibleDomain, NonFinite
from sino.spectral import (
    GridSpec,
    forward_transform,
    freq_grid,
    grf_sample,
    inverse_transform,
    irfftn_into,
    spectral_resample,
    two_thirds_mask,
)

TWO_PI = 2.0 * math.pi


def grid2(n=8, length=TWO_PI):
    return GridSpec(points=(n, n), length=(length, length))


def random_field(grid, seed=0, channels=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((channels,) + grid.points)


def derivative(s, grid, orders):
    """A half spectrum differentiated: times prod_i (i*k_i)^o_i."""
    return s * freq_grid(grid).derivative_multiplier(orders)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(points=(7, 8), length=(1.0, 1.0))  # odd
        with pytest.raises(ValueError):
            GridSpec(points=(2, 8), length=(1.0, 1.0))  # too small
        with pytest.raises(ValueError):
            GridSpec(points=(8, 8), length=(0.0, 1.0))
        with pytest.raises(ValueError):
            GridSpec(points=(8, 8, 8, 8), length=(1.0,) * 4)  # dim 4

    def test_coords_layout(self):
        g = grid2(4, 1.0)
        x = g.coords()
        assert x.shape == (2, 4, 4)
        assert x[0, 1, 0] == pytest.approx(0.25)
        assert x[1, 0, 1] == pytest.approx(0.25)


class TestForwardTransform:
    def test_constant_dc_mode(self):
        g = grid2(8)
        s = forward_transform(np.full((1, 8, 8), 3.5), g)
        assert s[0, 0, 0] == pytest.approx(3.5 * 64)
        s[0, 0, 0] = 0.0
        assert np.max(np.abs(s)) < 1e-12

    def test_sine_modes(self):
        # f = sin(x1) on [0,2pi)^2 with N=8: only k=(+-1,0), values -+32i
        g = grid2(8)
        f = np.sin(g.coords()[0])[np.newaxis]
        s = forward_transform(f, g)
        assert s[0, 1, 0] == pytest.approx(-32j, abs=1e-12)
        assert s[0, -1, 0] == pytest.approx(32j, abs=1e-12)
        s[0, 1, 0] = s[0, -1, 0] = 0.0
        assert np.max(np.abs(s)) < 1e-11

    def test_round_trip(self):
        g = grid2(16)
        f = random_field(g, 1, channels=3)
        back = inverse_transform(forward_transform(f, g), g)
        assert np.max(np.abs(back - f)) < 1e-13 * np.max(np.abs(f))

    def test_hermitian_symmetry_of_real_field(self):
        # the half spectrum is the full one's columns 0..N/2; within the edge
        # columns 0 and N/2, which hold both k and -k, it is conjugate-symmetric
        g = grid2(12)
        f = random_field(g, 2)
        s = forward_transform(f, g)
        assert s.shape == (1,) + g.half_points == (1, 12, 7)
        assert np.max(np.abs(s - np.fft.fftn(f, axes=(1, 2))[..., :7])) < 1e-12 * np.max(np.abs(s))
        edges = s[..., [0, 6]]
        mirrored = np.roll(np.flip(edges, axis=1), shift=1, axis=1)
        assert np.max(np.abs(edges - np.conj(mirrored))) < 1e-12 * np.max(np.abs(s))

    def test_nyquist_column_index(self):
        fg = freq_grid(grid2(8))
        assert fg.index.shape == (2, 8, 5)
        assert list(fg.index[1, 0]) == [0, 1, 2, 3, -4]
        assert list(fg.index[0, :, 0]) == [0, 1, 2, 3, -4, -3, -2, -1]

    def test_parseval(self):
        # the interior columns 1..N/2-1 stand for themselves and their
        # conjugate partners, so they count twice
        g = grid2(16)
        f = random_field(g, 3)
        lhs = np.sum(f**2)
        weight = np.full(g.half_points, 2.0)
        weight[:, [0, -1]] = 1.0
        rhs = np.sum(weight * np.abs(forward_transform(f, g)) ** 2) / g.n_points
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_a_non_finite_field_is_refused(self):
        g = grid2(8)
        f = random_field(g)
        f[0, 3, 4] = np.inf
        with pytest.raises(NonFinite):
            forward_transform(f, g)


class TestInverseTransform:
    def test_zeros(self):
        g = grid2(8)
        assert np.all(inverse_transform(np.zeros((1, 8, 5), complex), g) == 0.0)

    def test_dc_inversion(self):
        g = grid2(8)
        s = np.zeros((1, 8, 5), complex)
        s[0, 0, 0] = g.n_points
        assert inverse_transform(s, g) == pytest.approx(np.ones((1, 8, 8)))

    def test_rejects_a_spectrum_not_in_the_half_layout(self):
        # irfftn would crop or zero-pad a mis-shaped spectrum without a word
        g = grid2(8)
        for shape in ((1, 8, 8), (1, 8, 4), (1, 5, 8), (8, 5)):
            with pytest.raises(ValueError, match="spectrum must have shape"):
                inverse_transform(np.zeros(shape, complex), g)


TRANSFORM_GRIDS = {
    "2d": GridSpec(points=(16, 12), length=(TWO_PI, 3.0)),
    "3d": GridSpec(points=(8, 6, 10), length=(TWO_PI, 1.0, 2.0)),
}


class TestTransformsIntoBuffers:
    """irfftn_into makes numpy's irfftn passes into the caller's arrays, so
    it equals irfftn bit for bit."""

    @pytest.mark.parametrize("case", sorted(TRANSFORM_GRIDS))
    def test_inverse_equals_irfftn(self, case):
        g = TRANSFORM_GRIDS[case]
        s = forward_transform(random_field(g, seed=2, channels=3), g) * (1.0 + 0.5j)
        expected = np.fft.irfftn(s, s=g.points, axes=g.axes).tobytes()
        kept = s.copy()
        work, out = np.empty_like(s), np.empty((3,) + g.points)
        assert irfftn_into(s, g, work, out) is out
        assert out.tobytes() == expected and np.array_equal(s, kept)
        # s may be the work array itself: the passes then run in place
        assert irfftn_into(s, g, s, np.empty_like(out)).tobytes() == expected


class TestSpectralDerivative:
    def test_sin_to_cos(self):
        g = grid2(16)
        x = g.coords()
        s = forward_transform(np.sin(x[0])[np.newaxis], g)
        d = inverse_transform(derivative(s, g, (1, 0)), g)
        assert np.max(np.abs(d - np.cos(x[0])[np.newaxis])) < 1e-12

    def test_second_derivative_long_domain(self):
        # u = sin(x/6) on [0,12pi)^2: u'' = -(1/6)^2 sin(x/6)
        g = GridSpec(points=(32, 32), length=(12 * math.pi, 12 * math.pi))
        x = g.coords()
        u = np.sin(x[0] / 6.0)[np.newaxis]
        d2 = inverse_transform(derivative(forward_transform(u, g), g, (2, 0)), g)
        assert np.max(np.abs(d2 + (1.0 / 36.0) * u)) < 1e-12

    def test_laplacian_is_minus_k_squared(self):
        g = grid2(16)
        fg = freq_grid(g)
        s = forward_transform(random_field(g, 4), g)
        lap = derivative(s, g, (2, 0)) + derivative(s, g, (0, 2))
        assert np.max(np.abs(lap - (-fg.k_sq) * s)) < 1e-12 * np.max(np.abs(s))

    def test_linearity(self):
        g = grid2(16)
        a = forward_transform(random_field(g, 5), g)
        b = forward_transform(random_field(g, 6), g)
        lhs = derivative(2.0 * a + 3.0 * b, g, (1, 1))
        rhs = 2.0 * derivative(a, g, (1, 1)) + 3.0 * derivative(b, g, (1, 1))
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(lhs))

    def test_trig_exactness_3d(self):
        g = GridSpec(points=(8, 8, 8), length=(TWO_PI,) * 3)
        x = g.coords()
        u = (np.sin(2 * x[0]) * np.cos(x[2]))[np.newaxis]
        d = inverse_transform(derivative(forward_transform(u, g), g, (1, 0, 0)), g)
        assert np.max(np.abs(d - (2 * np.cos(2 * x[0]) * np.cos(x[2]))[np.newaxis])) < 1e-12


class TestTwoThirdsMask:
    def test_cutoff_64(self):
        g = grid2(64)
        mask = two_thirds_mask(g)
        assert mask[21, 0] == 1.0
        assert mask[22, 0] == 0.0
        assert mask[0, 21] == 1.0 and mask[0, 22] == 0.0

    def test_cutoff_6(self):
        g = GridSpec(points=(6, 6), length=(1.0, 1.0))
        mask = two_thirds_mask(g)
        fg = freq_grid(g)
        keep = np.max(np.abs(fg.index), axis=0) <= 2
        assert np.array_equal(mask.astype(bool), keep)

    def test_idempotent(self):
        mask = two_thirds_mask(grid2(32))
        assert np.array_equal(mask * mask, mask)

    def test_masked_product_has_no_energy_above_cutoff(self):
        g = grid2(32)
        mask = two_thirds_mask(g)
        a = inverse_transform(forward_transform(random_field(g, 7), g) * mask, g)
        b = inverse_transform(forward_transform(random_field(g, 8), g) * mask, g)
        prod_hat = forward_transform(a * b, g) * mask
        assert np.max(np.abs(prod_hat * (1.0 - mask))) == 0.0


class TestSpectralResample:
    def test_constant(self):
        g, t = grid2(16), grid2(24)
        out = spectral_resample(np.full((1, 16, 16), 2.25), g, t)
        assert out == pytest.approx(np.full((1, 24, 24), 2.25))

    def test_bandlimited_downsample_pointwise(self):
        g, t = grid2(64), grid2(32)
        f = np.sin(g.coords()[0])[np.newaxis]
        out = spectral_resample(f, g, t)
        assert np.max(np.abs(out - np.sin(t.coords()[0])[np.newaxis])) < 1e-13

    def test_down_then_up_identity_on_bandlimited(self):
        g, t = grid2(64), grid2(32)
        # bandlimit the field below the target's representable modes
        fg = freq_grid(g)
        keep = np.max(np.abs(fg.index), axis=0) <= 10
        f = inverse_transform(forward_transform(random_field(g, 11), g) * keep, g)
        back = spectral_resample(spectral_resample(f, g, t), t, g)
        assert np.max(np.abs(back - f)) < 1e-12 * np.max(np.abs(f))

    def test_dc_exact(self):
        g, t = grid2(16), grid2(64)
        f = random_field(g, 12)
        out = spectral_resample(f, g, t)
        assert out.mean() == pytest.approx(f.mean(), abs=1e-14)

    def test_incompatible_domain(self):
        g = grid2(16, TWO_PI)
        t = grid2(32, 1.0)
        with pytest.raises(IncompatibleDomain):
            spectral_resample(random_field(g, 13), g, t)

    @pytest.mark.parametrize("source, target", [
        ((32, 32), (16, 16)), ((16, 16), (24, 32)), ((16, 16), (16, 16)),
        ((16, 12, 8), (8, 8, 8)), ((8, 8, 8), (12, 16, 8)),
    ], ids=["down", "up", "equal", "down3d", "up3d"])
    def test_bit_identical_to_the_per_call_formula(self, source, target):
        # the selections are cached per grid pair; the values they move and
        # the scale they multiply by are those of one zero-padded copy made
        # per call, with the selections rebuilt each time
        g = GridSpec(points=source, length=(TWO_PI,) * len(source))
        t = GridSpec(points=target, length=(TWO_PI,) * len(target))
        f = random_field(g, 14, channels=2)
        if t == g:
            expected = f.copy()
        else:
            src = forward_transform(f, g)
            expected = np.zeros((2,) + t.half_points, dtype=np.complex128)
            sel_src, sel_dst = [np.arange(2)], [np.arange(2)]
            for axis, (ns, nt) in enumerate(zip(g.points, t.points)):
                half = min(ns, nt) // 2 - 1
                last = axis == g.dim - 1
                modes = np.arange(half + 1) if last else np.r_[0 : half + 1, -half:0]
                sel_src.append(modes % ns)
                sel_dst.append(modes % nt)
            expected[np.ix_(*sel_dst)] = src[np.ix_(*sel_src)] * (t.n_points / g.n_points)
            expected = inverse_transform(expected, t)
        for _ in range(2):  # the second call reads the cached selections
            assert spectral_resample(f, g, t).tobytes() == expected.tobytes()


class TestGrfSample:
    def test_zero_mean(self):
        g = grid2(32)
        for seed in (0, 17):
            assert abs(grf_sample(g, seed).mean()) < 1e-12

    def test_deterministic(self):
        g = grid2(32)
        a = grf_sample(g, 123, 2.0, 5.0)
        b = grf_sample(g, 123, 2.0, 5.0)
        assert a.tobytes() == b.tobytes()
        assert not np.array_equal(a, grf_sample(g, 124, 2.0, 5.0))

    def test_alpha_integrability_guard(self):
        with pytest.raises(ValueError):
            grf_sample(grid2(8), 0, alpha=0.9)

    def test_spectral_decay_slope(self):
        # regress log mean power against log(4 pi^2 |k|^2 + tau^2); the
        # covariance model makes the slope exactly -alpha up to sampling noise
        g = grid2(64)
        alpha, tau = 2.5, 7.0
        power = np.zeros(g.half_points)
        n_seeds = 100
        for seed in range(n_seeds):
            u = grf_sample(g, seed, alpha, tau)
            power += np.abs(forward_transform(u, g)[0]) ** 2 / n_seeds
        fg = freq_grid(g)
        idx_sq = np.sum(fg.index.astype(float) ** 2, axis=0)
        sel = idx_sq > 0
        x = np.log(4 * np.pi**2 * idx_sq[sel] + tau**2)
        y = np.log(power[sel])
        slope = np.polyfit(x, y, 1)[0]
        assert abs(slope - (-alpha)) < 0.1 * alpha


class TestTwoThirdsMaskCache:
    def test_built_once_per_grid_and_read_only(self):
        g = grid2(32)
        mask = two_thirds_mask(g)
        assert two_thirds_mask(GridSpec(points=(32, 32), length=(TWO_PI, TWO_PI))) is mask
        assert two_thirds_mask(grid2(16)) is not mask
        with pytest.raises(ValueError):
            mask[0, 0] = 0.0
        assert mask[0, 0] == 1.0
