import math

import numpy as np
import pytest

from sino.errors import DegenerateTruth, IncompatibleDomain, NonFinite, ZeroVariance
from sino.evaluation import (
    EvalReport,
    PatternIC,
    builtin_raster,
    evaluate_rollout,
    export_csv,
    pattern_ic,
    pcc,
    relative_l2,
    superres_eval,
)
from sino.model import exact_burgers_params, init_params, config_for_grid
from sino.solvers import PDESpec, SolverConfig, TrajectoryDataset, integrate
from sino.spectral import (
    GridSpec,
    forward_transform,
    freq_grid,
    inverse_transform,
    spectral_resample,
)

TWO_PI = 2.0 * math.pi


def grid2(n=32):
    return GridSpec(points=(n, n), length=(TWO_PI, TWO_PI))


def bandlimited(grid, seed, cutoff, channels=1, scale=1.0):
    rng = np.random.default_rng(seed)
    f = scale * rng.standard_normal((channels,) + grid.points)
    fg = freq_grid(grid)
    keep = (np.max(np.abs(fg.index), axis=0) <= cutoff).astype(float)
    return inverse_transform(forward_transform(f, grid) * keep, grid)


def burgers_test_set(grid, dt, n_snap, n_traj=2, cutoff=10):
    pde = PDESpec(kind="burgers", nu=0.01)
    cfg = SolverConfig(dt=dt, t_end=(n_snap - 1) * dt, save_dt=dt)
    trajs = []
    for t in range(n_traj):
        ic = bandlimited(grid, 50 + t, cutoff=cutoff, channels=2, scale=0.5)
        trajs.append(np.stack(integrate(pde, cfg, grid, ic)))
    return TrajectoryDataset(grid=grid, cadence=dt, data=np.stack(trajs))


class TestMetrics:
    def test_relative_l2_unit_cases(self):
        y = np.array([1.0, 0.0])
        assert relative_l2(y, y) == 0.0
        assert relative_l2(np.array([0.0, 1.0]), y) == pytest.approx(math.sqrt(2.0))
        assert relative_l2(np.zeros(2), y) == 1.0

    def test_relative_l2_degenerate(self):
        with pytest.raises(DegenerateTruth):
            relative_l2(np.ones(3), np.zeros(3))

    def test_relative_l2_scale_covariance(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(50), rng.standard_normal(50)
        assert relative_l2(3.7 * a, 3.7 * b) == pytest.approx(relative_l2(a, b), rel=1e-12)

    def test_pcc_unit_cases(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(64)
        assert pcc(y, y) == pytest.approx(1.0)
        assert pcc(-y, y) == pytest.approx(-1.0)

    def test_pcc_orthogonal_modes(self):
        g = grid2(16)
        x = g.coords()
        assert abs(pcc(np.sin(x[0]), np.cos(x[0]))) < 1e-10

    def test_pcc_affine_invariance(self):
        rng = np.random.default_rng(2)
        y, p = rng.standard_normal(80), rng.standard_normal(80)
        assert pcc(2.5 * p + 1.0, y) == pytest.approx(pcc(p, y), abs=1e-12)

    def test_pcc_zero_variance(self):
        with pytest.raises(ZeroVariance):
            pcc(np.ones(5), np.arange(5.0))


class TestEvaluateRollout:
    def test_perfect_model(self):
        g = grid2()
        dt = 5e-3
        cfg, params = exact_burgers_params(g, nu=0.01, dt_model=dt)
        ds = burgers_test_set(g, dt, n_snap=20)
        report = evaluate_rollout(params, cfg, ds)
        assert report.aggregate_rel_l2 < 1e-6
        assert np.all(report.pcc_curves > 1.0 - 1e-9)
        assert not report.failures

    def test_zero_params_baseline(self):
        g = grid2()
        dt = 5e-3
        cfg = config_for_grid(g, c_in=2, K=2, C=3, dt_model=dt, mlp_hidden=(8,))
        params = {k: np.zeros_like(v) for k, v in init_params(cfg, 0).items()}
        ds = burgers_test_set(g, dt, n_snap=20)
        report = evaluate_rollout(params, cfg, ds)
        assert report.aggregate_rel_l2 > 0.0
        assert np.isfinite(report.aggregate_rel_l2)

    def test_determinism(self):
        g = grid2()
        dt = 5e-3
        cfg, params = exact_burgers_params(g, nu=0.01, dt_model=dt)
        ds = burgers_test_set(g, dt, n_snap=5)
        a = evaluate_rollout(params, cfg, ds)
        b = evaluate_rollout(params, cfg, ds)
        assert np.array_equal(a.pcc_curves, b.pcc_curves)
        assert a.per_traj_rel_l2 == b.per_traj_rel_l2

    def test_identical_trajectories_zero_variance_across(self):
        g = grid2()
        dt = 5e-3
        cfg, params = exact_burgers_params(g, nu=0.01, dt_model=dt)
        one = burgers_test_set(g, dt, n_snap=8, n_traj=1)
        dup = TrajectoryDataset(grid=g, cadence=dt,
                                data=np.repeat(one.data, 3, axis=0))
        report = evaluate_rollout(params, cfg, dup)
        assert np.std(report.per_traj_rel_l2) < 1e-15

    def test_failure_recorded_not_raised(self):
        g = grid2(16)
        dt = 1.0
        cfg = config_for_grid(g, c_in=1, K=2, C=3, dt_model=dt, mlp_hidden=(8,))
        rng = np.random.default_rng(3)
        # huge random parameters with a huge step destabilize the rollout
        params = {k: 100.0 * rng.standard_normal(v.shape)
                  for k, v in init_params(cfg, 0).items()}
        data = np.stack([np.stack([bandlimited(g, 60, 5, scale=10.0)] * 4)])
        ds = TrajectoryDataset(grid=g, cadence=dt, data=data)
        report = evaluate_rollout(params, cfg, ds)
        assert report.failures
        assert math.isnan(report.per_traj_rel_l2[0])


    def test_one_diverging_trajectory_in_a_batch(self):
        from sino.model import rollout
        g = grid2(16)
        dt = 0.1
        cfg, params = exact_burgers_params(g, nu=0.01, dt_model=dt)
        # at this step the large-amplitude IC blows up; the small ones do not
        ics = [bandlimited(g, 61 + t, 5, channels=2, scale=scale)
               for t, scale in enumerate((0.5, 50.0, 0.5))]
        data = np.stack([np.stack([ic] * 8) for ic in ics])
        ds = TrajectoryDataset(grid=g, cadence=dt, data=data)
        kept = TrajectoryDataset(grid=g, cadence=dt, data=data[[0, 2]])
        with np.errstate(over="ignore", invalid="ignore"):
            report = evaluate_rollout(params, cfg, ds)
            with pytest.raises(NonFinite) as single:
                rollout(ics[1], params, cfg, g, 7)
        assert report.failures == [(1, str(single.value))]
        assert math.isnan(report.per_traj_rel_l2[1])
        alone = evaluate_rollout(params, cfg, kept)
        assert not alone.failures
        assert [report.per_traj_rel_l2[t] for t in (0, 2)] == alone.per_traj_rel_l2
        assert np.array_equal(report.pcc_curves[[0, 2]], alone.pcc_curves)
        assert np.array_equal(report.rel_l2_cum[[0, 2]], alone.rel_l2_cum)


class TestSuperresEval:
    def test_constructed_params_transfer_exact(self):
        coarse = grid2(16)
        fine = grid2(32)
        dt = 5e-3
        cfg, params = exact_burgers_params(coarse, nu=0.01, dt_model=dt)
        # the IC is bandlimited to the coarse dealias band, but the quadratic
        # term moves energy above it within a few steps: the downsampled fine
        # truth is not a 16^2 trajectory, so the native pass is held to the
        # 16^2 reference solver's own score, and exactness at 16^2 is checked
        # against that solver's truth
        pde = PDESpec(kind="burgers", nu=0.01)
        scfg = SolverConfig(dt=dt, t_end=10 * dt, save_dt=dt)
        fine_trajs, coarse_trajs = [], []
        for t in range(2):
            ic = bandlimited(fine, 70 + t, cutoff=2, channels=2, scale=0.5)
            fine_trajs.append(np.stack(integrate(pde, scfg, fine, ic)))
            ic_coarse = spectral_resample(ic, fine, coarse)
            coarse_trajs.append(np.stack(integrate(pde, scfg, coarse, ic_coarse)))
        ds_fine = TrajectoryDataset(grid=fine, cadence=dt, data=np.stack(fine_trajs))
        ds_coarse = TrajectoryDataset(grid=coarse, cadence=dt, data=np.stack(coarse_trajs))
        pair = superres_eval(params, cfg, ds_fine)
        assert pair["fine"].aggregate_rel_l2 < 1e-6
        assert evaluate_rollout(params, cfg, ds_coarse).aggregate_rel_l2 < 1e-6
        downsampled = np.stack(
            [np.stack([spectral_resample(s, fine, coarse) for s in traj]) for traj in ds_fine.data]
        )
        solver_native = relative_l2(ds_coarse.data, downsampled)
        assert abs(pair["native"].aggregate_rel_l2 - solver_native) < 1e-8

    def test_native_resolution_consistency(self):
        g = grid2(16)
        dt = 5e-3
        cfg, params = exact_burgers_params(g, nu=0.01, dt_model=dt)
        ds = burgers_test_set(g, dt, n_snap=6, cutoff=5)
        pair = superres_eval(params, cfg, ds)
        direct = evaluate_rollout(params, cfg, ds)
        assert pair["fine"].aggregate_rel_l2 == pytest.approx(direct.aggregate_rel_l2)

    def test_incompatible_fine_grid(self):
        g = grid2(32)
        dt = 5e-3
        cfg, params = exact_burgers_params(g, nu=0.01, dt_model=dt)
        ds = burgers_test_set(grid2(16), dt, n_snap=4, cutoff=5)
        with pytest.raises(IncompatibleDomain):
            superres_eval(params, cfg, ds)


class TestPatternIC:
    def test_uniform_raster_zero_field(self):
        p = PatternIC(raster=np.full((32, 32), 0.6), grid=grid2(), amplitude=1.0)
        assert np.all(pattern_ic(p) == 0.0)

    def test_rms_matches_amplitude(self):
        p = PatternIC(raster=builtin_raster("star"), grid=grid2(), amplitude=2.5)
        f = pattern_ic(p)
        assert math.sqrt(float(np.mean(f**2))) == pytest.approx(2.5, abs=1e-10)
        assert abs(f.mean()) < 1e-12

    def test_spectrum_empty_above_cutoff(self):
        p = PatternIC(raster=builtin_raster("smiley"), grid=grid2(), amplitude=1.0, cutoff=6)
        f = pattern_ic(p)
        fg = freq_grid(grid2())
        spec = forward_transform(f, grid2())
        outside = np.max(np.abs(fg.index), axis=0) > 6
        assert np.max(np.abs(spec[:, outside])) < 1e-9

    def test_raster_resolution_independence(self):
        # the same underlying image at two raster resolutions gives nearly
        # the same bandlimited field; each image is made as a camera would
        # make it: pixel centres at -1 + (2i+1)/n, each pixel holding the
        # disk's area coverage (16x16 subsamples)
        def disk(n, sub=16):
            c = -1.0 + (2.0 * np.arange(n * sub) + 1.0) / (n * sub)
            y, x = np.meshgrid(c, c, indexing="ij")
            inside = (np.hypot(x, y) <= 0.62).astype(float)
            return inside.reshape(n, sub, n, sub).mean(axis=(1, 3))

        g = grid2(64)
        a = pattern_ic(PatternIC(raster=disk(64), grid=g, amplitude=1.0, cutoff=6))
        b = pattern_ic(PatternIC(raster=disk(128), grid=g, amplitude=1.0, cutoff=6))
        assert math.sqrt(float(np.mean((a - b) ** 2))) < 1e-3 * 10

    def test_default_amplitude_from_reference_draw(self):
        p = PatternIC(raster=builtin_raster("ai"), grid=grid2())
        f = pattern_ic(p)
        from sino.spectral import grf_sample
        ref = grf_sample(grid2(), seed=0, alpha=2.5, tau=7.0)
        assert math.sqrt(float(np.mean(f**2))) == pytest.approx(
            math.sqrt(float(np.mean(ref**2))), rel=1e-10
        )


class TestExportCsv:
    def make_report(self, n_traj=2, n_time=3):
        times = np.arange(n_time) * 0.5
        rng = np.random.default_rng(4)
        return EvalReport(
            times=times,
            per_traj_rel_l2=[0.1] * n_traj,
            aggregate_rel_l2=0.1,
            pcc_curves=rng.uniform(-1, 1, (n_traj, n_time)),
            rel_l2_cum=rng.uniform(0, 1, (n_traj, n_time)),
        )

    def test_empty_report_header_only(self, tmp_path):
        report = EvalReport(times=np.zeros(0), per_traj_rel_l2=[],
                            aggregate_rel_l2=float("nan"),
                            pcc_curves=np.zeros((0, 0)), rel_l2_cum=np.zeros((0, 0)))
        path = tmp_path / "empty.csv"
        export_csv(report, path)
        assert path.read_text() == "trajectory,time_s,pcc,rel_l2_cum\n"

    def test_row_count_and_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "r.csv"
        export_csv(report, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 2 * 3
        for line in lines[1:]:
            t, ts, p, c = line.split(",")
            i, s = int(t), list(report.times).index(float(ts))
            assert float(p) == report.pcc_curves[i, s]
            assert float(c) == report.rel_l2_cum[i, s]

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "r.csv"
        export_csv(self.make_report(), path)
        raw = path.read_bytes()
        assert b"\r" not in raw


class TestPatternGridAlignment:
    def test_ic_independent_of_grid_resolution(self):
        # one image made into ICs on 64^2 and 128^2 grids: at the points the
        # grids share (every other point of 128^2), the fields agree
        n, sub = 128, 16
        c = -1.0 + (2.0 * np.arange(n * sub) + 1.0) / (n * sub)
        y, x = np.meshgrid(c, c, indexing="ij")
        disk = (np.hypot(x, y) <= 0.62).astype(float).reshape(n, sub, n, sub).mean(axis=(1, 3))
        coarse = pattern_ic(PatternIC(raster=disk, grid=grid2(64), amplitude=1.0, cutoff=6))
        fine = pattern_ic(PatternIC(raster=disk, grid=grid2(128), amplitude=1.0, cutoff=6))
        assert math.sqrt(float(np.mean((coarse - fine[:, ::2, ::2]) ** 2))) < 0.01
