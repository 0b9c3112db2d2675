import math
import os

import numpy as np
import pytest

from sino.evaluation import (
    EvalReport,
    builtin_raster,
    evaluate_rollout,
    export_csv,
    pattern_ic,
    pattern_test_set,
    pcc,
)
from sino.model import exact_burgers_params, init_params, config_for_grid
from sino.solvers import PDESpec, SolverConfig, TrajectoryDataset, grf_settings, integrate
from sino.spectral import (
    GridSpec,
    forward_transform,
    freq_grid,
    grf_sample,
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
        assert math.isnan(pcc(np.ones(5), np.arange(5.0)))
        assert math.isnan(pcc(np.arange(5.0), np.full(5, 2.0)))

    def test_pcc_scores_every_pair_in_one_call(self):
        # pairs on the leading axes score as they do one by one, bit for bit;
        # a constant field gives NaN in its own pair only
        rng = np.random.default_rng(5)
        pred = rng.standard_normal((3, 4, 2, 8, 8))
        truth = pred + 0.3 * rng.standard_normal(pred.shape)
        truth[1, 2] = 0.7
        curves = pcc(pred, truth, lead=2)
        assert curves.shape == (3, 4)
        singles = np.array([[pcc(pred[t, s], truth[t, s]) for s in range(4)] for t in range(3)])
        assert np.array_equal(curves, singles, equal_nan=True)
        assert np.isnan(curves[1, 2]) and np.isfinite(np.delete(curves.ravel(), 6)).all()


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
        assert np.array_equal(a.rel_l2_cum[:, -1], b.rel_l2_cum[:, -1])

    def test_identical_trajectories_zero_variance_across(self):
        g = grid2()
        dt = 5e-3
        cfg, params = exact_burgers_params(g, nu=0.01, dt_model=dt)
        one = burgers_test_set(g, dt, n_snap=8, n_traj=1)
        dup = TrajectoryDataset(grid=g, cadence=dt,
                                data=np.repeat(one.data, 3, axis=0))
        report = evaluate_rollout(params, cfg, dup)
        assert np.std(report.rel_l2_cum[:, -1]) < 1e-15

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
        assert math.isnan(report.rel_l2_cum[0, -1])


    def test_scores_match_a_per_snapshot_loop(self):
        # the scalar scorers that the array reductions replaced, as the
        # reference: the arithmetic is the same, so the scores are equal
        from sino.model import rollout
        g = grid2(16)
        dt = 5e-3
        cfg, params = exact_burgers_params(g, nu=0.01, dt_model=dt)
        ds = burgers_test_set(g, dt, n_snap=6, n_traj=3, cutoff=5)
        report = evaluate_rollout(params, cfg, ds)
        preds = rollout(ds.data[:, 0], params, cfg, g, 5)
        err_pool = truth_pool = 0.0
        for t, (pred, truth) in enumerate(zip(preds, ds.data)):
            e_cum = y_cum = 0.0
            for s in range(ds.n_snapshots):
                dp = (pred[s] - pred[s].mean()).ravel()
                dy = (truth[s] - truth[s].mean()).ravel()
                norm = math.sqrt(float(np.sum(dp * dp))) * math.sqrt(float(np.sum(dy * dy)))
                assert report.pcc_curves[t, s] == float(np.sum(dp * dy)) / norm
                e_cum += float(np.sum((pred[s] - truth[s]) ** 2))
                y_cum += float(np.sum(truth[s] ** 2))
                assert report.rel_l2_cum[t, s] == math.sqrt(e_cum / y_cum)
            assert report.rel_l2_cum[t, -1] == math.sqrt(e_cum / y_cum)
            err_pool += e_cum
            truth_pool += y_cum
        assert report.aggregate_rel_l2 == math.sqrt(err_pool / truth_pool)

    def test_constant_truth_snapshot(self):
        # a constant snapshot has no correlation, but it still has energy
        g = grid2(16)
        dt = 5e-3
        cfg, params = exact_burgers_params(g, nu=0.01, dt_model=dt)
        ds = burgers_test_set(g, dt, n_snap=5, cutoff=5)
        ds.data[0, 2] = 0.7
        report = evaluate_rollout(params, cfg, ds)
        assert np.isnan(report.pcc_curves[0, 2])
        assert np.isfinite(np.delete(report.pcc_curves.ravel(), 2)).all()
        assert np.isfinite(report.rel_l2_cum).all()
        assert report.rel_l2_cum[0, 2] > report.rel_l2_cum[0, 1]

    def test_one_diverging_trajectory_in_a_batch(self):
        g = grid2(16)
        dt = 0.1
        cfg, params = exact_burgers_params(g, nu=0.01, dt_model=dt)
        # at this step the large-amplitude IC blows up; the small ones do not
        ics = [bandlimited(g, 61 + t, 5, channels=2, scale=scale)
               for t, scale in enumerate((0.5, 50.0, 0.5))]
        data = np.stack([np.stack([ic] * 8) for ic in ics])
        ds = TrajectoryDataset(grid=g, cadence=dt, data=data)
        kept = TrajectoryDataset(grid=g, cadence=dt, data=data[[0, 2]])
        report = evaluate_rollout(params, cfg, ds)
        assert report.failures == [(1, "rollout diverged by snapshot 3 (t=0.3)")]
        assert math.isnan(report.rel_l2_cum[1, -1])
        alone = evaluate_rollout(params, cfg, kept)
        assert not alone.failures
        assert np.array_equal(report.rel_l2_cum[[0, 2], -1], alone.rel_l2_cum[:, -1])
        assert np.array_equal(report.pcc_curves[[0, 2]], alone.pcc_curves)
        assert np.array_equal(report.rel_l2_cum[[0, 2]], alone.rel_l2_cum)


class TestSuperresEval:
    def test_constructed_params_transfer_exact(self):
        # parameters built on 16^2 score the 32^2 fine set and the 16^2 set
        # of the same ICs to the reference solvers' precision
        coarse = grid2(16)
        fine = grid2(32)
        dt = 5e-3
        cfg, params = exact_burgers_params(coarse, nu=0.01, dt_model=dt)
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
        assert evaluate_rollout(params, cfg, ds_fine).aggregate_rel_l2 < 1e-6
        assert evaluate_rollout(params, cfg, ds_coarse).aggregate_rel_l2 < 1e-6

    def test_cadence_must_be_the_model_step(self):
        # the model steps once per snapshot: a set saved every second step
        # is refused, not rolled out two steps per snapshot
        g = grid2(16)
        dt = 5e-3
        cfg, params = exact_burgers_params(g, nu=0.01, dt_model=dt)
        ds = burgers_test_set(g, dt, n_snap=5, cutoff=5)
        every_other = TrajectoryDataset(grid=g, cadence=2 * dt, data=ds.data[:, ::2])
        with pytest.raises(ValueError, match="must equal dt_model"):
            evaluate_rollout(params, cfg, every_other)


class TestPatternIC:
    def test_uniform_raster_zero_field(self):
        assert np.all(pattern_ic(np.full((32, 32), 0.6), grid2(), amplitude=1.0) == 0.0)

    def test_rms_matches_amplitude(self):
        f = pattern_ic(builtin_raster("star"), grid2(), amplitude=2.5)
        assert math.sqrt(float(np.mean(f**2))) == pytest.approx(2.5, abs=1e-10)
        assert abs(f.mean()) < 1e-12

    def test_spectrum_empty_above_cutoff(self):
        f = pattern_ic(builtin_raster("smiley"), grid2(), amplitude=1.0, cutoff=6)
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
        a = pattern_ic(disk(64), g, amplitude=1.0, cutoff=6)
        b = pattern_ic(disk(128), g, amplitude=1.0, cutoff=6)
        assert math.sqrt(float(np.mean((a - b) ** 2))) < 1e-3 * 10

    def test_default_amplitude_from_reference_draw(self):
        f = pattern_ic(builtin_raster("ai"), grid2())
        from sino.spectral import grf_sample
        ref = grf_sample(grid2(), seed=0, alpha=2.5, tau=7.0)
        assert math.sqrt(float(np.mean(f**2))) == pytest.approx(
            math.sqrt(float(np.mean(ref**2))), rel=1e-10
        )

    def test_pattern_test_set_is_one_simulated_trajectory(self):
        # the star IC on the 16^2 grid, one copy per Burgers channel,
        # simulated on 32^2 and stored on 16^2
        pde = PDESpec(kind="burgers", nu=0.01)
        solver = SolverConfig(dt=5e-3, t_end=0.02, save_dt=5e-3)
        gen, grid = grid2(32), grid2(16)
        ds = pattern_test_set("star", pde, solver, gen, grid)
        assert ds.grid == grid and ds.cadence == solver.save_dt
        assert ds.data.shape == (1, 5, pde.channels) + grid.points
        # at the RMS of a draw from Burgers' own IC distribution
        ref = grf_sample(grid, 0, **grf_settings("burgers"))
        ic = pattern_ic(builtin_raster("star"), grid, float(np.sqrt(np.mean(ref**2))))
        ic = np.concatenate([ic] * pde.channels)
        truth = integrate(pde, solver, gen, spectral_resample(ic, grid, gen), grid)
        assert np.array_equal(ds.data[0], truth)


    @pytest.mark.parametrize("grf, rms", [(None, 0.17653153262514718), ({"tau": 7.0}, None)])
    def test_the_ood_ic_has_the_run_ics_amplitude(self, grf, rms):
        # it took NSE's amplitude (0.1488 here) whatever the run's IC distribution
        pde = PDESpec(kind="burgers", nu=0.01)
        solver = SolverConfig(dt=5e-3, t_end=5e-3, save_dt=5e-3)
        ds = pattern_test_set("smiley", pde, solver, grid2(), grid2(), grf)
        ref = grf_sample(grid2(), 0, **grf_settings("burgers", grf))
        expected = math.sqrt(float(np.mean(ref**2)))
        if rms is not None:
            assert expected == pytest.approx(rms, rel=1e-12)
        for channel in ds.data[0, 0]:
            assert math.sqrt(float(np.mean(channel**2))) == pytest.approx(expected, rel=1e-10)


class TestExportCsv:
    def make_report(self, n_traj=2, n_time=3):
        times = np.arange(n_time) * 0.5
        rng = np.random.default_rng(4)
        return EvalReport(
            times=times,
            aggregate_rel_l2=0.1,
            pcc_curves=rng.uniform(-1, 1, (n_traj, n_time)),
            rel_l2_cum=rng.uniform(0, 1, (n_traj, n_time)),
        )

    def test_empty_report_header_only(self, tmp_path):
        report = EvalReport(times=np.zeros(0), aggregate_rel_l2=float("nan"),
                            pcc_curves=np.zeros((0, 0)), rel_l2_cum=np.zeros((0, 0)))
        path = tmp_path / "empty.csv"
        export_csv(report, path, "0123456789ab")
        assert path.read_text() == "trajectory,config_hash,time_s,pcc,rel_l2_cum\n"

    def test_row_count_and_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "r.csv"
        export_csv(report, path, "0123456789ab")
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 2 * 3
        for line in lines[1:]:
            t, h, ts, p, c = line.split(",")
            assert h == "0123456789ab"
            i, s = int(t), list(report.times).index(float(ts))
            assert float(p) == report.pcc_curves[i, s]
            assert float(c) == report.rel_l2_cum[i, s]

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "r.csv"
        export_csv(self.make_report(), path, "0123456789ab")
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "r.csv"
        export_csv(self.make_report(), path, "0123456789ab")
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            export_csv(self.make_report(n_traj=1), path, "ba9876543210")
        assert path.read_bytes() == before


class TestPatternGridAlignment:
    def test_ic_independent_of_grid_resolution(self):
        # one image made into ICs on 64^2 and 128^2 grids: at the points the
        # grids share (every other point of 128^2), the fields agree
        n, sub = 128, 16
        c = -1.0 + (2.0 * np.arange(n * sub) + 1.0) / (n * sub)
        y, x = np.meshgrid(c, c, indexing="ij")
        disk = (np.hypot(x, y) <= 0.62).astype(float).reshape(n, sub, n, sub).mean(axis=(1, 3))
        coarse = pattern_ic(disk, grid2(64), amplitude=1.0, cutoff=6)
        fine = pattern_ic(disk, grid2(128), amplitude=1.0, cutoff=6)
        assert math.sqrt(float(np.mean((coarse - fine[:, ::2, ::2]) ** 2))) < 0.01
