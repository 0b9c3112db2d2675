import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from sino.config import presets
from sino.errors import NonFinite
from sino.solvers import (
    SPLIT_SEEDS,
    PDESpec,
    SolverConfig,
    _split,
    biot_savart,
    burgers_rhs,
    forcing_field,
    generate_dataset,
    integrate,
    kse_rhs,
    nse_rhs,
    sample_ic,
)
from sino.spectral import (
    GridSpec,
    forward_transform,
    freq_grid,
    grf_sample,
    inverse_transform,
    spectral_resample,
    two_thirds_mask,
)

TWO_PI = 2.0 * math.pi


def grid2(n=32, length=TWO_PI):
    return GridSpec(points=(n, n), length=(length, length))


def bandlimited(grid, seed, cutoff=None, channels=1, scale=1.0):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((channels,) + grid.points) * scale
    fg = freq_grid(grid)
    if cutoff is None:
        keep = two_thirds_mask(grid)
    else:
        keep = (np.max(np.abs(fg.index), axis=0) <= cutoff).astype(float)
    return inverse_transform(forward_transform(f, grid) * keep, grid)


def derivative(s, grid, orders):
    """A half spectrum differentiated: times prod_i (i*k_i)^o_i."""
    return s * freq_grid(grid).derivative_multiplier(orders)


def _finite(v, what):
    if not np.isfinite(v).all():
        raise NonFinite(f"RK4 {what} is non-finite")
    return v


def rk4_step(rhs, u, dt):
    """Classical RK4 step, the physical-space reference integrate is
    compared against. Raises NonFinite if the input of stage 2, 3 or 4, or
    the result, is not finite, before the right-hand side sees it; the
    stage-1 input u is the previous step's checked result."""
    k1 = rhs(u)
    k2 = rhs(_finite(u + 0.5 * dt * k1, "stage 2 input"))
    k3 = rhs(_finite(u + 0.5 * dt * k2, "stage 3 input"))
    k4 = rhs(_finite(u + dt * k3, "stage 4 input"))
    return _finite(u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), "result")


class TestPDESpecValidation:
    def test_forcing_only_for_nse(self):
        with pytest.raises(ValueError):
            PDESpec(kind="burgers", nu=0.01, forcing="f1")

    def test_dim3_only_for_burgers(self):
        with pytest.raises(ValueError):
            PDESpec(kind="nse", nu=1e-4, dim=3)

    def test_nu_required(self):
        with pytest.raises(ValueError):
            PDESpec(kind="nse", nu=0.0)


class TestKseRhs:
    def test_zero_field(self):
        g = grid2(16, 12 * math.pi)
        assert np.all(kse_rhs(np.zeros((1, 16, 16)), g) == 0.0)

    def test_constant_field(self):
        g = grid2(16, 12 * math.pi)
        rhs = kse_rhs(np.full((1, 16, 16), 2.0), g)
        assert np.max(np.abs(rhs)) < 1e-12

    def test_analytic_single_mode(self):
        # u = sin(x/6) on [0,12pi)^2: rhs = (q^2-q^4) sin - 0.5 q^2 cos^2, q=1/6
        g = grid2(32, 12 * math.pi)
        x = g.coords()
        q = 1.0 / 6.0
        u = np.sin(x[0] * q)[np.newaxis]
        expected = (q**2 - q**4) * u - 0.5 * q**2 * np.cos(x[0] * q)[np.newaxis] ** 2
        assert np.max(np.abs(kse_rhs(u, g) - expected)) < 1e-12

    def test_translation_equivariance(self):
        g = grid2(32, 12 * math.pi)
        u = bandlimited(g, 1)
        shifted = np.roll(u, 1, axis=1)
        assert np.max(np.abs(kse_rhs(shifted, g) - np.roll(kse_rhs(u, g), 1, axis=1))) < 1e-12


class TestBiotSavart:
    def test_analytic_taylor_green(self):
        # omega = 2 sin x sin y -> u = (sin x cos y, -cos x sin y)
        g = grid2(32)
        x = g.coords()
        wh = forward_transform((2.0 * np.sin(x[0]) * np.sin(x[1]))[np.newaxis], g)
        ux, uy = biot_savart(wh, g)
        assert np.max(np.abs(inverse_transform(ux, g) - (np.sin(x[0]) * np.cos(x[1]))[None])) < 1e-10
        assert np.max(np.abs(inverse_transform(uy, g) + (np.cos(x[0]) * np.sin(x[1]))[None])) < 1e-10

    def test_constant_vorticity_gives_zero(self):
        g = grid2(16)
        wh = forward_transform(np.full((1, 16, 16), 3.0), g)
        ux, uy = biot_savart(wh, g)
        assert np.max(np.abs(ux)) == 0.0 and np.max(np.abs(uy)) == 0.0

    def test_divergence_free(self):
        g = grid2(32)
        w = bandlimited(g, 2)
        ux, uy = biot_savart(forward_transform(w, g), g)
        div = derivative(ux, g, (1, 0)) + derivative(uy, g, (0, 1))
        # compare in spectral space: the field is numerically zero
        assert np.max(np.abs(div)) < 1e-12 * np.max(np.abs(ux))

    def test_curl_recovers_vorticity(self):
        g = grid2(32)
        w = bandlimited(g, 3)
        w -= w.mean()  # the k=0 mode cannot be recovered
        ux, uy = biot_savart(forward_transform(w, g), g)
        curl = derivative(uy, g, (1, 0)) - derivative(ux, g, (0, 1))
        assert np.max(np.abs(inverse_transform(curl, g) - w)) < 1e-10


class TestNseRhs:
    def test_constant_with_forcing_is_forcing(self):
        g = grid2(32, 1.0)
        spec = PDESpec(kind="nse", nu=1e-4, forcing="f1")
        rhs = nse_rhs(np.full((1, 32, 32), 1.5), g, spec)
        assert np.max(np.abs(rhs - forcing_field(g, "f1"))) < 1e-12

    def test_taylor_green_diffusion_only(self):
        g = grid2(32)
        x = g.coords()
        w = (2.0 * np.sin(x[0]) * np.sin(x[1]))[np.newaxis]
        spec = PDESpec(kind="nse", nu=1.0)
        # convection vanishes identically for this mode
        assert np.max(np.abs(nse_rhs(w, g, spec) - (-2.0 * w))) < 1e-10

    def test_forcing_additivity(self):
        g = grid2(32, 1.0)
        w = bandlimited(g, 4)
        base = PDESpec(kind="nse", nu=1e-4)
        forced = PDESpec(kind="nse", nu=1e-4, forcing="f1")
        diff = nse_rhs(w, g, forced) - nse_rhs(w, g, base)
        assert np.max(np.abs(diff - forcing_field(g, "f1"))) < 1e-12

    def test_translation_equivariance(self):
        g = grid2(32, 1.0)
        spec = PDESpec(kind="nse", nu=1e-4, forcing="f2")
        w = bandlimited(g, 5)
        # f2 depends on x, so equivariance holds for the unforced operator
        base = PDESpec(kind="nse", nu=1e-4)
        shifted = np.roll(w, 1, axis=2)
        lhs = nse_rhs(shifted, g, base)
        rhs = np.roll(nse_rhs(w, g, base), 1, axis=2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        assert spec.forcing == "f2"


class TestBurgersRhs:
    def test_constant_is_zero(self):
        g = grid2(16)
        u = np.stack([np.full(g.points, 0.7), np.full(g.points, -1.2)])
        assert np.max(np.abs(burgers_rhs(u, g, nu=0.01))) < 1e-13

    def test_analytic_1d_profile(self):
        # u = (sin x, 0): rhs_1 = -nu sin x - sin x cos x, rhs_2 = 0
        g = grid2(32)
        x = g.coords()
        nu = 0.01
        u = np.stack([np.sin(x[0]), np.zeros(g.points)])
        rhs = burgers_rhs(u, g, nu=nu)
        expected = -nu * np.sin(x[0]) - np.sin(x[0]) * np.cos(x[0])
        assert np.max(np.abs(rhs[0] - expected)) < 1e-12
        assert np.max(np.abs(rhs[1])) < 1e-13

    def test_heat_limit_small_amplitude(self):
        # nu = 1, amplitude 1e-6: convection is O(eps^2), solution tracks
        # per-mode exp(-nu k^2 t) decay to 1e-6 relative
        g = grid2(16)
        nu = 1.0
        eps = 1e-6
        u0 = eps * bandlimited(g, 6, cutoff=3, channels=2)
        spec = PDESpec(kind="burgers", nu=nu)
        cfg = SolverConfig(dt=1e-3, t_end=0.1, save_dt=0.1)
        u_end = integrate(spec, cfg, g, u0)[-1]
        fg = freq_grid(g)
        decay = np.exp(-nu * fg.k_sq * 0.1)
        exact = inverse_transform(forward_transform(u0, g) * decay, g)
        assert np.max(np.abs(u_end - exact)) < 1e-6 * np.max(np.abs(u0))

    def test_translation_equivariance_3d(self):
        g = GridSpec(points=(8, 8, 8), length=(TWO_PI,) * 3)
        u = bandlimited(g, 7, channels=3)
        shifted = np.roll(u, 1, axis=3)
        lhs = burgers_rhs(shifted, g, nu=0.01)
        rhs = np.roll(burgers_rhs(u, g, nu=0.01), 1, axis=3)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestRk4Step:
    def test_zero_rhs(self):
        u = np.arange(8.0)
        assert np.array_equal(rk4_step(lambda v: np.zeros_like(v), u, 0.1), u)

    def test_linear_decay_polynomial(self):
        # du/dt = -u, dt = 0.1: one step multiplies by the RK4 stability
        # polynomial 1 - h + h^2/2 - h^3/6 + h^4/24 = 0.9048375
        h = 0.1
        poly = 1 - h + h**2 / 2 - h**3 / 6 + h**4 / 24
        u1 = rk4_step(lambda v: -v, np.array([1.0]), h)
        assert u1[0] == pytest.approx(poly, abs=1e-15)
        assert u1[0] == pytest.approx(0.9048375, abs=1e-8)
        assert abs(u1[0] - math.exp(-h)) < 1e-6

    def test_order_four_convergence(self):
        def solve(dt):
            u = np.array([1.0])
            for _ in range(round(1.0 / dt)):
                u = rk4_step(lambda v: -v, u, dt)
            return abs(u[0] - math.exp(-1.0))

        ratio = solve(0.1) / solve(0.05)
        assert 13.0 <= ratio <= 19.0

    def test_nonfinite_raises(self):
        with pytest.raises(NonFinite):
            rk4_step(lambda v: v * np.inf, np.ones(3), 0.1)


class TestIntegrate:
    def test_zero_horizon(self):
        g = grid2(16)
        ic = bandlimited(g, 8, channels=2)
        spec = PDESpec(kind="burgers", nu=0.01)
        snaps = integrate(spec, SolverConfig(dt=1e-3, t_end=0.0, save_dt=1e-3), g, ic)
        assert len(snaps) == 1
        assert np.array_equal(snaps[0], ic)

    def test_taylor_green_decay(self):
        # single-mode vorticity decays as exp(-2 nu t) exactly
        g = grid2(64)
        x = g.coords()
        nu = 0.1
        w0 = (2.0 * np.sin(x[0]) * np.sin(x[1]))[np.newaxis]
        spec = PDESpec(kind="nse", nu=nu)
        cfg = SolverConfig(dt=5e-3, t_end=1.0, save_dt=0.5)
        snaps = integrate(spec, cfg, g, w0)
        exact = w0 * math.exp(-2.0 * nu * 1.0)
        assert np.max(np.abs(snaps[-1] - exact)) < 1e-6

    @pytest.mark.parametrize("dt", [0.1, 0.05])
    def test_taylor_green_exact_at_any_step(self, dt):
        # a single mode has no nonlinear term, so the integrating factor
        # advances it exactly, whatever the step
        g = grid2(16)
        x = g.coords()
        nu = 0.1
        w0 = (2.0 * np.sin(x[0]) * np.sin(x[1]))[np.newaxis]
        spec = PDESpec(kind="nse", nu=nu)
        exact = w0 * math.exp(-2.0 * nu * 1.0)
        cfg = SolverConfig(dt=dt, t_end=1.0, save_dt=1.0)
        assert np.max(np.abs(integrate(spec, cfg, g, w0)[-1] - exact)) < 1e-12

    def test_fourth_order_self_convergence(self):
        # nonlinear Burgers: errors against dt = 0.0025 fall 16x per halving
        g = grid2(16)
        spec = PDESpec(kind="burgers", nu=0.05)
        ic = np.concatenate([3.0 * grf_sample(g, s, 2.0, 5.0) for s in (0, 1)])

        def final(dt):
            return integrate(spec, SolverConfig(dt=dt, t_end=0.4, save_dt=0.4), g, ic)[-1]

        ref = final(0.0025)
        errs = [np.linalg.norm(final(dt) - ref) for dt in (0.1, 0.05, 0.025)]
        for coarse, fine in zip(errs, errs[1:]):
            assert 13.0 <= coarse / fine <= 19.0

    def test_burgers_self_convergence(self):
        # E6 physics at generation scale: dt vs dt/2 below 1e-6 relative
        g = grid2(64)
        spec = PDESpec(kind="burgers", nu=0.01)
        ic = np.concatenate([grf_sample(g, s, 2.0, 5.0) for s in (100, 101)])
        a = integrate(spec, SolverConfig(dt=1e-3, t_end=0.5, save_dt=0.5), g, ic)[-1]
        b = integrate(spec, SolverConfig(dt=5e-4, t_end=0.5, save_dt=0.5), g, ic)[-1]
        rel = np.linalg.norm(a - b) / np.linalg.norm(a)
        assert rel < 1e-6

    def test_enstrophy_nonincreasing(self):
        g = grid2(32, 1.0)
        spec = PDESpec(kind="nse", nu=1e-3)
        w0 = bandlimited(g, 9, scale=3.0)
        cfg = SolverConfig(dt=1e-3, t_end=0.05, save_dt=1e-3)
        snaps = integrate(spec, cfg, g, w0)
        enstrophy = [float(np.sum(s**2)) for s in snaps]
        assert all(b <= a + 1e-12 for a, b in zip(enstrophy, enstrophy[1:]))

    def test_burgers_momentum_conserved_for_gradient_ic(self):
        # u = grad(phi) with phi inside the 2/3 band: the de-aliased products
        # stay exact, the flow stays a gradient, and means are conserved
        g = grid2(32)
        phi = grf_sample(g, 42, 2.0, 5.0)
        ph = forward_transform(phi, g) * two_thirds_mask(g)
        u0 = np.concatenate(
            [inverse_transform(derivative(ph, g, (1, 0)), g),
             inverse_transform(derivative(ph, g, (0, 1)), g)]
        )
        spec = PDESpec(kind="burgers", nu=0.01)
        cfg = SolverConfig(dt=2e-3, t_end=0.2, save_dt=0.02)
        snaps = integrate(spec, cfg, g, u0)
        means = np.array([[s[c].mean() for c in range(2)] for s in snaps])
        assert np.max(np.abs(means - means[0])) < 1e-8

    def test_deterministic(self):
        g = grid2(16)
        spec = PDESpec(kind="burgers", nu=0.01)
        ic = bandlimited(g, 10, channels=2)
        cfg = SolverConfig(dt=1e-2, t_end=0.1, save_dt=0.05)
        a = integrate(spec, cfg, g, ic)
        b = integrate(spec, cfg, g, ic)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))

    @pytest.mark.parametrize("kind", ["kse", "nse", "burgers2d", "burgers3d"])
    def test_matches_physical_space_rk4(self, kind):
        # the reference: classical RK4 over the *_rhs function, 100 steps
        if kind == "kse":
            spec, g = PDESpec(kind="kse"), grid2(32, 12 * math.pi)
            rhs = lambda u: kse_rhs(u, g)
        elif kind == "nse":
            spec, g = PDESpec(kind="nse", nu=1e-3, forcing="f1"), grid2(32, 1.0)
            rhs = lambda w: nse_rhs(w, g, spec)
        else:
            dim = 3 if kind == "burgers3d" else 2
            spec = PDESpec(kind="burgers", nu=0.01, dim=dim)
            g = GridSpec(points=(32, 32) if dim == 2 else (16, 16, 16), length=(TWO_PI,) * dim)
            rhs = lambda u: burgers_rhs(u, g, spec.nu)
        ic = sample_ic(spec, g, 0, 11)
        dt = 1e-3
        a = integrate(spec, SolverConfig(dt=dt, t_end=0.1, save_dt=0.1), g, ic)[-1]
        b = ic
        for _ in range(100):
            b = rk4_step(rhs, b, dt)
        assert np.linalg.norm(a - b) < 1e-9 * np.linalg.norm(b)


class TestGenerateDataset:
    def test_shapes_and_determinism(self):
        g_gen = grid2(32)
        g_train = grid2(16)
        spec = PDESpec(kind="burgers", nu=0.01)
        cfg = SolverConfig(dt=5e-3, t_end=0.1, save_dt=0.05)
        a = generate_dataset(spec, cfg, g_gen, g_train, 2, split="train")
        b = generate_dataset(spec, cfg, g_gen, g_train, 2, split="train")
        assert a.data.shape == (2, 3, 2, 16, 16)
        assert a.data.tobytes() == b.data.tobytes()
        assert a.cadence == 0.05

    def test_splits_are_distinct(self):
        g_gen = grid2(16)
        spec = PDESpec(kind="burgers", nu=0.01)
        cfg = SolverConfig(dt=1e-2, t_end=0.02, save_dt=0.02)
        sets = {
            split: generate_dataset(spec, cfg, g_gen, g_gen, 1, split=split)
            for split in ("train", "val", "test")
        }
        assert SPLIT_SEEDS == {"train": 0, "val": 1, "test": 2}
        for split, ds in sets.items():
            assert np.array_equal(ds.data[0, 0], sample_ic(spec, g_gen, SPLIT_SEEDS[split], 0))
        for a in ("train", "val", "test"):
            for b in ("train", "val", "test"):
                if a < b:
                    assert not np.array_equal(sets[a].data, sets[b].data)

    def test_traced_peak_does_not_grow_with_the_snapshot_count(self):
        # each snapshot is resampled to the training grid as it is saved, so
        # beyond its result a trajectory of 80 snapshots holds less than one
        # more generation-grid state than a trajectory of 10
        fine, coarse = grid2(64), grid2(16)
        spec = PDESpec(kind="burgers", nu=0.01)
        ic = sample_ic(spec, fine, 0, 0)
        over = []
        for n in (1, 10, 80):
            cfg = SolverConfig(dt=1e-3, t_end=n * 1e-3, save_dt=1e-3)
            tracemalloc.start()
            try:
                snaps = integrate(spec, cfg, fine, ic, coarse)
                over.append(tracemalloc.get_traced_memory()[1] - snaps.nbytes)
            finally:
                tracemalloc.stop()
            assert snaps.shape == (n + 1, 2, 16, 16)
        assert over[2] < over[1] + ic.nbytes

    def test_traced_peak_stays_near_its_result(self):
        # each trajectory is integrated into its slice of the dataset's one
        # array, where stacking the finished trajectories peaked at twice it
        g = grid2(16)
        spec = PDESpec(kind="burgers", nu=0.01)
        cfg = SolverConfig(dt=1e-3, t_end=0.2, save_dt=1e-3)
        tracemalloc.start()
        try:
            ds = generate_dataset(spec, cfg, g, g, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.data.shape == (3, 201, 2, 16, 16)
        assert peak < 1.5 * ds.data.nbytes
        alone = integrate(spec, cfg, g, sample_ic(spec, g, SPLIT_SEEDS["train"], 2))
        assert np.array_equal(ds.data[2], alone)
        with pytest.raises(ValueError, match="snaps must have shape"):
            integrate(spec, cfg, g, ds.data[0, 0], snaps=np.empty((200, 2, 16, 16)))

    def test_snapshot_cadence_uniform(self):
        g = grid2(16, 12 * math.pi)
        spec = PDESpec(kind="kse")
        cfg = SolverConfig(dt=1e-3, t_end=0.01, save_dt=2e-3)
        ds = generate_dataset(spec, cfg, g, g, 1, split="val")
        assert ds.n_snapshots == 6


def ifrk4_saves(spec, cfg, grid, ic):
    """integrate's steps written out, each saved state inverse-transformed
    on grid: the snapshots an equal-grid integration must store, bit for bit."""
    lin, into = _split(spec, grid)

    def nonlin(v):  # each term into a fresh array
        return into(v, np.empty_like(v))

    dt = cfg.dt
    e_half = np.exp(0.5 * dt * lin)
    e_full = e_half * e_half
    uh = forward_transform(ic, grid)
    saves = [ic.copy()]
    for step in range(cfg.n_steps):
        k1 = nonlin(uh)
        m2 = nonlin(e_half * (uh + 0.5 * dt * k1))
        m3 = nonlin(e_half * uh + 0.5 * dt * m2)
        m4 = nonlin(e_full * uh + dt * e_half * m3)
        uh = e_full * uh + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (m2 + m3) + m4)
        if (step + 1) % cfg.save_every == 0:
            saves.append(inverse_transform(uh, grid))
    return np.stack(saves)


SAVE_CASES = {
    "kse": (PDESpec(kind="kse"), GridSpec(points=(32, 32), length=(12 * math.pi,) * 2)),
    "nse": (PDESpec(kind="nse", nu=1e-3, forcing="f2"), GridSpec(points=(32, 32), length=(1.0,) * 2)),
    "burgers2d": (PDESpec(kind="burgers", nu=0.01), grid2(32)),
    "burgers3d": (PDESpec(kind="burgers", nu=0.01, dim=3),
                  GridSpec(points=(16, 16, 16), length=(TWO_PI,) * 3)),
}
SAVE_CFG = SolverConfig(dt=1e-3, t_end=4e-3, save_dt=2e-3)


class TestSaves:
    """A save maps the state's half spectrum to the output grid's and makes
    one inverse transform there."""

    @pytest.mark.parametrize("case", sorted(SAVE_CASES))
    def test_equal_grid_saves_are_bit_identical(self, case):
        spec, g = SAVE_CASES[case]
        ic = sample_ic(spec, g, 0, 0)
        expected = ifrk4_saves(spec, SAVE_CFG, g, ic).tobytes()
        assert integrate(spec, SAVE_CFG, g, ic).tobytes() == expected
        assert integrate(spec, SAVE_CFG, g, ic, g).tobytes() == expected

    @pytest.mark.parametrize("case", sorted(SAVE_CASES))
    @pytest.mark.parametrize("factor", [0.5, 1.5], ids=["coarser", "finer"])
    def test_resampled_saves_match_the_round_trip(self, case, factor):
        # the reference saves on grid, then resamples each field: an inverse
        # and a forward transform on grid more per save
        spec, g = SAVE_CASES[case]
        out = GridSpec(points=tuple(int(n * factor) for n in g.points), length=g.length)
        ic = sample_ic(spec, g, 0, 0)
        snaps = integrate(spec, SAVE_CFG, g, ic, out)
        ref = [spectral_resample(s, g, out) for s in integrate(spec, SAVE_CFG, g, ic)]
        assert snaps[0].tobytes() == ref[0].tobytes()
        for a, b in zip(snaps[1:], ref[1:], strict=True):
            assert np.linalg.norm(a - b) <= 1e-14 * np.linalg.norm(b)

    @pytest.mark.parametrize("points", [(16, 16), (32, 32), (48, 48)],
                             ids=["coarser", "equal", "finer"])
    def test_one_save_is_one_inverse_transform_on_out_grid(self, points, monkeypatch):
        spec, g = SAVE_CASES["burgers2d"]
        out = GridSpec(points=points, length=g.length)
        ic = sample_ic(spec, g, 0, 0)
        calls = []

        def recording(name, fn):
            def wrapper(a, *args, **kwargs):
                result = fn(a, *args, **kwargs)
                calls.append((name, result.shape))
                return result
            return wrapper

        for name in ("rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, recording(name, getattr(np.fft, name)))
        counts = []
        for save_dt in (2e-3, 1e-3):  # two steps: one save, then two
            calls.clear()
            integrate(spec, SolverConfig(dt=1e-3, t_end=2e-3, save_dt=save_dt), g, ic, out)
            counts.append(Counter(calls))
        assert counts[1] - counts[0] == Counter({("irfftn", (2,) + points): 1})
        assert counts[0] - counts[1] == Counter()


class TestNonlinearTermBuffers:
    """nonlin(uh, out) writes the term into out through buffers made once per
    _split, and a warm call allocates nothing the size of a state."""

    @pytest.mark.parametrize("case", sorted(SAVE_CASES))
    def test_out_equals_a_fresh_term(self, case):
        spec, g = SAVE_CASES[case]
        _, nonlin = _split(spec, g)
        out = np.empty((spec.channels,) + g.half_points, dtype=np.complex128)
        for traj in (0, 1):  # the second call overwrites the first's buffers
            uh = forward_transform(sample_ic(spec, g, 0, traj), g)
            kept = uh.copy()
            fresh = nonlin(uh, np.empty_like(uh))
            assert nonlin(uh, out) is out
            assert out.tobytes() == fresh.tobytes() and np.array_equal(uh, kept)

    def test_a_warm_e7_desk_term_allocates_no_state(self):
        # numpy's cast and broadcast buffers make 0.16 of one state
        # spectrum; a term built of fresh transforms and products peaks at 4.9
        c = presets()["E7-desk"]
        _, nonlin = _split(c.pde, c.gen_grid)
        uh = forward_transform(sample_ic(c.pde, c.gen_grid, 0, 0, c.grf), c.gen_grid)
        out = nonlin(uh, np.empty_like(uh))
        tracemalloc.start()
        try:
            nonlin(uh, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * uh.nbytes


class TestEveryPresetFirstStep:
    """One solver step from every preset's default GRF initial condition,
    on a reduced grid of the preset's own domain. The GRF loads every mode,
    the Nyquist bins included, which band-limited test fields never do."""

    @pytest.mark.parametrize("case", sorted(presets()))
    def test_first_step_is_finite(self, case):
        c = presets()[case]
        points = (32, 32) if c.pde.dim == 2 else (16, 16, 16)
        g = GridSpec(points=points, length=c.domain_length)
        ic = sample_ic(c.pde, g, 0, 0, c.grf)
        one_step = replace(c.solver, t_end=c.solver.dt, save_dt=c.solver.dt)
        snaps = integrate(c.pde, one_step, g, ic)
        assert len(snaps) == 2 and np.isfinite(snaps[1]).all()
        assert not np.array_equal(snaps[1], snaps[0])


@pytest.mark.parametrize("case", sorted(name for name in presets() if name.endswith("-desk")))
def test_preset_step_holds_the_step_halving_bound(case):
    # every snapshot of one generated trajectory over the first 0.05 time
    # units is within 1e-8 rel-l2 of the same integrator at half the step
    c = presets()[case]
    solver = replace(c.solver, t_end=0.05)
    ic = sample_ic(c.pde, c.gen_grid, SPLIT_SEEDS["train"], 0, c.grf)
    snaps = integrate(c.pde, solver, c.gen_grid, ic)
    halved = integrate(c.pde, replace(solver, dt=solver.dt / 2), c.gen_grid, ic)
    for a, b in zip(snaps[1:], halved[1:], strict=True):
        assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)


class TestBlowUpIsNonFinite:
    @pytest.mark.parametrize("case, dt", [("E6-desk", 0.05), ("E1-desk", 0.1)])
    def test_blow_up_raises_nonfinite_with_step(self, case, dt):
        # a GRF initial condition at scale 1000 (default 5) and a coarse step:
        # the explicit nonlinear term overflows within a few steps
        c = presets()[case]
        ic = sample_ic(c.pde, c.gen_grid, 0, 0, {"scale": 1000})
        cfg = replace(c.solver, dt=dt, t_end=1.0, save_dt=dt)
        with pytest.raises(NonFinite) as info:
            integrate(c.pde, cfg, c.gen_grid, ic)
        assert info.value.step is not None and 1 <= info.value.step < cfg.n_steps
        assert info.value.time == pytest.approx(info.value.step * cfg.dt)
        assert f"(step {info.value.step})" in str(info.value)

    def test_rk4_step_checks_stage_inputs(self):
        calls = []

        def rhs(v):
            calls.append(v.copy())
            return np.full_like(v, np.inf) if len(calls) == 1 else -v

        with pytest.raises(NonFinite, match="stage 2"):
            rk4_step(rhs, np.ones(3), 0.1)
        assert len(calls) == 1
