import math
import os
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest

from sino.config import presets
from sino.errors import InsufficientLength, NonFinite
from sino.evaluation import evaluate_rollout
from sino.model import ABLATION_FLAGS, config_for_grid, exact_burgers_params, init_params
from sino.solvers import (
    PDESpec,
    SolverConfig,
    TrajectoryDataset,
    generate_dataset,
    integrate,
    sample_ic,
)
from sino.spectral import (
    GridSpec,
    forward_transform,
    freq_grid,
    inverse_transform,
)
from sino.training import (
    TrainConfig,
    adam_init,
    adam_step,
    backward,
    clip_global_norm,
    loss_rollout,
    onecycle_lr,
    sample_curriculum,
    train,
    validation_rel_l2,
    write_history_csv,
)

TWO_PI = 2.0 * math.pi


def grid2(n=16):
    return GridSpec(points=(n, n), length=(TWO_PI, TWO_PI))


def bandlimited(grid, seed, cutoff, channels=1, scale=1.0):
    rng = np.random.default_rng(seed)
    f = scale * rng.standard_normal((channels,) + grid.points)
    fg = freq_grid(grid)
    keep = (np.max(np.abs(fg.index), axis=0) <= cutoff).astype(float)
    return inverse_transform(forward_transform(f, grid) * keep, grid)


def heat_dataset(grid, nu, dt, n_snap, seeds, bandlimit=5):
    """Exact heat-equation trajectories via the spectral propagator."""
    fg = freq_grid(grid)
    decay = np.exp(-nu * fg.k_sq * dt)
    trajs = []
    for seed in seeds:
        u = bandlimited(grid, seed, cutoff=bandlimit)
        uh = forward_transform(u, grid)
        snaps = []
        for s in range(n_snap):
            snaps.append(inverse_transform(uh * decay**s, grid))
        trajs.append(np.stack(snaps))
    return TrajectoryDataset(grid=grid, cadence=dt, data=np.stack(trajs))


class TestLossRollout:
    def test_exact_params_near_zero_loss(self):
        g = grid2(32)
        dt = 5e-3
        cfg, params = exact_burgers_params(g, nu=0.01, dt_model=dt)
        from sino.solvers import PDESpec, SolverConfig, integrate
        u0 = bandlimited(g, 0, cutoff=10, channels=2, scale=0.5)
        snaps = integrate(PDESpec(kind="burgers", nu=0.01),
                          SolverConfig(dt=dt, t_end=4 * dt, save_dt=dt), g, u0)
        loss = loss_rollout(params, cfg, g, snaps)
        assert loss < 1e-12

    def test_zero_params_constant_truth(self):
        g = grid2()
        cfg = config_for_grid(g, c_in=1, K=2, C=3, dt_model=0.01, mlp_hidden=(8,))
        params = {k: np.zeros_like(v) for k, v in init_params(cfg, 0).items()}
        u = bandlimited(g, 1, cutoff=5)
        segment = [u, u, u]
        assert loss_rollout(params, cfg, g, segment) == 0.0


class TestBackward:
    def small(self, **kw):
        g = grid2(16)
        defaults = dict(c_in=1, K=4, C=8, dt_model=0.01, mlp_hidden=(16, 16))
        defaults.update(kw)
        cfg = config_for_grid(g, **defaults)
        # generic random parameters (nonzero biases) keep every tensor's
        # gradient well above the finite-difference roundoff floor
        rng = np.random.default_rng(42)
        params = {k: 0.3 * rng.standard_normal(v.shape)
                  for k, v in init_params(cfg, 0).items()}
        segment = [bandlimited(g, 10 + i, cutoff=5) for i in range(3)]
        return g, cfg, params, segment

    @pytest.mark.parametrize("flags", [{}, {"no_freq2vec": True}, {"no_filter": True}],
                             ids=["full", "no_freq2vec", "no_filter"])
    def test_gradients_match_finite_differences_per_coordinate(self, flags):
        # spec formula |an - fd| / (|an| + 1e-8) < 1e-5 with h = 1e-5; the
        # central-difference oracle carries roundoff ~eps * |loss| / h, so
        # coordinates are additionally allowed that absolute slack (the
        # analytic value was verified exact by the h-scaling study)
        g, cfg, params, segment = self.small(**flags)
        loss, bundle = backward(params, cfg, g, segment)
        h = 1e-5
        noise = 50.0 * (2.2e-16 * max(abs(loss), 1.0) / h)
        strict = 0
        for name, p in params.items():
            flat = p.ravel()
            rng = np.random.default_rng(zlib.crc32(name.encode()))
            idxs = rng.choice(flat.size, size=min(12, flat.size), replace=False)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + h
                lp = loss_rollout(params, cfg, g, segment)
                flat[i] = orig - h
                lm = loss_rollout(params, cfg, g, segment)
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                an = bundle[name].ravel()[i]
                rel = abs(an - fd) / (abs(an) + 1e-8)
                assert rel < 1e-5 or abs(an - fd) < noise, (name, i, rel)
                strict += rel < 1e-5
        assert strict > 50

    def test_gradients_per_tensor_norm(self):
        g, cfg, params, segment = self.small()
        loss, bundle = backward(params, cfg, g, segment)
        h = 1e-5
        for name, p in params.items():
            flat = p.ravel()
            fd = np.zeros(flat.size)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = loss_rollout(params, cfg, g, segment)
                flat[i] = orig - h
                lm = loss_rollout(params, cfg, g, segment)
                flat[i] = orig
                fd[i] = (lp - lm) / (2 * h)
            an = bundle[name].ravel()
            rel = np.linalg.norm(an - fd) / (np.linalg.norm(an) + 1e-8)
            assert rel < 1e-5, name

    def test_ablated_block_absent_from_bundle(self):
        g, cfg, params, segment = self.small(no_linear=True)
        _, bundle = backward(params, cfg, g, segment)
        assert "linear.w" not in bundle
        assert set(bundle) == set(init_params(cfg, 0))

    def test_gradient_linear_in_loss_scale(self):
        # linearity checked by seeding: grads of 2x the loss double
        # (engine-level seed)
        g, cfg, params, segment = self.small()
        from sino import engine as eg
        from sino import model as sino_model
        from sino.training import _rollout_loss_graph
        pt = sino_model._wrap_params(params, True)
        loss = _rollout_loss_graph(pt, cfg, g, segment)
        loss.backward()
        g1 = {k: t.grad.copy() for k, t in pt.items()}
        pt2 = sino_model._wrap_params(params, True)
        loss2 = eg.mul(_rollout_loss_graph(pt2, cfg, g, segment), 2.0)
        loss2.backward()
        for k in g1:
            assert np.allclose(pt2[k].grad, 2.0 * g1[k], rtol=1e-12)

    def test_pi_block_is_one_tape_node(self):
        # a 9-frame E6-desk window records 671 nodes; with the Pi factors,
        # their product and the output mix as separate nodes it recorded 831
        from sino import engine as eg
        from sino import model as sino_model
        from sino.config import presets
        from sino.training import _rollout_loss_graph
        case = presets()["E6-desk"]
        cfg, g = case.model, case.train_grid
        segment = [bandlimited(g, 40 + i, cutoff=5, channels=cfg.c_in) for i in range(9)]
        pt = sino_model._wrap_params(init_params(cfg, 0), True)
        loss = _rollout_loss_graph(pt, cfg, g, segment)
        assert len(eg._toposort(loss)) <= 671

    def test_a_window_backward_holds_the_stage_inputs_only(self):
        # a step node keeps its stage inputs and recomputes the rest in its
        # pullback: one 9-frame E6-desk backward peaks at 7.0 MB traced,
        # where keeping every intermediate on the tape peaked at 16.1 MB
        case = presets()["E6-desk"]
        cfg, g = case.model, case.train_grid
        solver = replace(case.solver, t_end=8 * case.solver.save_dt)
        segment = integrate(case.pde, solver, g, sample_ic(case.pde, g, 0, 0, case.grf))
        params = init_params(cfg, 0)
        backward(params, cfg, g, segment)
        tracemalloc.start()
        try:
            backward(params, cfg, g, segment)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(segment) == 9 and peak <= 10e6

    @pytest.mark.parametrize("flag", [None, *ABLATION_FLAGS])
    def test_a_batch_backward_is_the_mean_of_its_windows(self, flag):
        # one tape for the batch: the maps are built once and the windows
        # step as one state, so the maps' cotangents sum over the batch in
        # another order than the mean of the windows' own backwards
        g, cfg, params, _ = self.small(**({} if flag is None else {flag: True}))
        windows = np.stack([np.stack([bandlimited(g, 50 + 4 * b + i, cutoff=5)
                                      for i in range(4)]) for b in range(3)])
        loss, grads = backward(params, cfg, g, windows)
        alone = [backward(params, cfg, g, w) for w in windows]
        mean_loss = sum(l for l, _ in alone) / len(alone)
        assert loss == pytest.approx(mean_loss, rel=1e-12, abs=0.0)
        assert loss_rollout(params, cfg, g, windows) == loss
        assert sorted(grads) == sorted(params)
        for name, grad in grads.items():
            ref = sum(g_b[name] for _, g_b in alone) / len(alone)
            assert np.linalg.norm(grad - ref) <= 1e-12 * np.linalg.norm(ref), name

    def test_pi_factor_permutation_symmetry(self):
        g, cfg, params, segment = self.small()
        loss_a, bundle_a = backward(params, cfg, g, segment)
        swapped = dict(params)
        swapped["pi.0.w"], swapped["pi.1.w"] = params["pi.1.w"], params["pi.0.w"]
        swapped["pi.0.b"], swapped["pi.1.b"] = params["pi.1.b"], params["pi.0.b"]
        loss_b, bundle_b = backward(swapped, cfg, g, segment)
        assert loss_b == pytest.approx(loss_a, rel=1e-12)
        assert np.allclose(bundle_b["pi.0.w"], bundle_a["pi.1.w"], rtol=1e-12)
        assert np.allclose(bundle_b["pi.1.b"], bundle_a["pi.0.b"], rtol=1e-12)


class TestEveryPresetFirstTrainStep:
    """One training.backward per preset: the preset's model at a reduced
    native grid of its own domain, on a two-step solver segment from the
    preset's default GRF initial condition, which loads every mode."""

    @pytest.mark.parametrize("case", sorted(presets()))
    def test_first_train_step_is_finite(self, case):
        c = presets()[case]
        points = (16, 16) if c.pde.dim == 2 else (8, 8, 8)
        g = GridSpec(points=points, length=c.domain_length)
        model_cfg = replace(c.model, freq_norm=tuple(n // 2 for n in points))
        dt_model = model_cfg.dt_model
        solver = replace(c.solver, t_end=2 * dt_model, save_dt=dt_model)
        segment = integrate(c.pde, solver, g, sample_ic(c.pde, g, 0, 0, c.grf))
        loss, grads = backward(init_params(model_cfg, 0), model_cfg, g, segment)
        assert math.isfinite(loss) and loss > 0.0
        assert set(grads) == set(init_params(model_cfg, 0))
        assert all(np.isfinite(v).all() for v in grads.values())


class TestCurriculum:
    def make_dataset(self, n_snap=20):
        g = grid2(8)
        rng = np.random.default_rng(0)
        data = rng.standard_normal((3, n_snap, 1, 8, 8))
        return TrajectoryDataset(grid=g, cadence=0.01, data=data)

    def test_zero_warmup_when_n1_zero(self):
        ds = self.make_dataset()
        cfg = TrainConfig(iterations=1, n1=0, n2=4)
        rng = np.random.default_rng(1)
        for _ in range(50):
            traj, n, start = sample_curriculum(ds, cfg, rng)
            assert n == 0
            assert 0 <= traj < ds.n_traj and 0 <= start < ds.n_snapshots - cfg.n2

    def test_uniform_warmup_distribution(self):
        ds = self.make_dataset()
        cfg = TrainConfig(iterations=1, n1=4, n2=8)
        rng = np.random.default_rng(2)
        counts = np.zeros(5)
        draws = 100_000
        for _ in range(draws):
            _, n, _ = sample_curriculum(ds, cfg, rng)
            counts[n] += 1
        assert np.all(np.abs(counts / draws - 0.2) < 0.02 * 1.0)

    def test_start_bound(self):
        # the window's last supervised snapshot, start + n + n2, is in the
        # trajectory, and the draws reach its last snapshot
        ds = self.make_dataset(n_snap=14)
        cfg = TrainConfig(iterations=1, n1=4, n2=8)
        rng = np.random.default_rng(3)
        ends = [start + n + cfg.n2 for _, n, start in
                (sample_curriculum(ds, cfg, rng) for _ in range(500))]
        assert min(ends) >= cfg.n2 and max(ends) == ds.n_snapshots - 1

    def test_insufficient_length(self):
        ds = self.make_dataset(n_snap=10)
        cfg = TrainConfig(iterations=1, n1=4, n2=8)  # needs 13
        with pytest.raises(InsufficientLength):
            sample_curriculum(ds, cfg, np.random.default_rng(4))

    def test_warmup_state_is_start_frame(self, monkeypatch):
        # train warms up the snapshot at each draw's start, and its one
        # backward gets, for each draw, that state followed by the n2
        # snapshots after start + n
        import sino.training
        ds = self.make_dataset()
        g = ds.grid
        cfg = config_for_grid(g, c_in=1, K=2, C=3, dt_model=ds.cadence, mlp_hidden=(8,))
        tc = TrainConfig(iterations=1, n1=2, n2=4, batch=3, seed=5)
        rng = np.random.default_rng(tc.seed)
        draws = [sample_curriculum(ds, tc, rng) for _ in range(tc.batch)]
        warm_ups, segments = [], []
        real_warm_up = sino.training._warm_up

        def watched_warm_up(starts, ns, *args):
            states = real_warm_up(starts, ns, *args)
            warm_ups.append((starts.copy(), ns.copy(), states.copy()))
            return states

        def recording_backward(params, model_cfg, grid, segment):
            segments.append(np.array(segment))
            return 0.0, {k: np.zeros_like(v) for k, v in params.items()}

        monkeypatch.setattr(sino.training, "_warm_up", watched_warm_up)
        monkeypatch.setattr(sino.training, "backward", recording_backward)
        train(ds, ds, cfg, tc)
        (starts, ns, states), = warm_ups
        (batch,) = segments
        assert [n for _, n, _ in draws] == ns.tolist()
        assert batch.shape == (tc.batch, tc.n2 + 1) + ds.data.shape[2:]
        for b, (traj, n, start) in enumerate(draws):
            first = start + n + 1
            assert np.array_equal(starts[b], ds.data[traj, start])
            assert np.array_equal(batch[b, 0], states[b])
            assert np.array_equal(batch[b, 1:], ds.data[traj, first:first + tc.n2])


class TestAdam:
    def test_first_step_magnitude(self):
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([0.5])}
        state = adam_init(params)
        new = adam_step(state, params, grads, lr=1e-3)
        # bias-corrected first step is lr * g / (|g| + eps) ~= lr
        assert new["w"][0] == pytest.approx(1.0 - 1e-3, abs=1e-9)

    def test_zero_gradient_keeps_params(self):
        # fresh state: zero gradient means zero moments and no movement
        params = {"w": np.array([1.0, -2.0])}
        state = adam_init(params)
        new = adam_step(state, params, {"w": np.zeros(2)}, lr=1e-3)
        assert np.array_equal(new["w"], params["w"])
        # preloaded moments decay toward zero under zero gradients
        state.m["w"][:] = 0.3
        state.v["w"][:] = 0.2
        adam_step(state, params, {"w": np.zeros(2)}, lr=1e-3)
        assert np.all(state.m["w"] == pytest.approx(0.3 * 0.9))
        assert np.all(state.v["w"] == pytest.approx(0.2 * 0.999))

    def test_quadratic_convergence(self):
        # minimize (w - 3)^2: converge within 1e-4 in 2000 steps
        params = {"w": np.array([0.0])}
        state = adam_init(params)
        for _ in range(2000):
            grads = {"w": 2.0 * (params["w"] - 3.0)}
            params = adam_step(state, params, grads, lr=0.01)
        assert abs(params["w"][0] - 3.0) < 1e-4


class TestClipAndSchedule:
    def test_clip_exact_bound(self):
        grads = {"a": np.full(4, 3.0), "b": np.full(9, -2.0)}
        clipped, total = clip_global_norm(grads, 1.0)
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in clipped.values()))
        assert norm == pytest.approx(1.0, rel=1e-12)
        assert total > 1.0

    def test_clip_noop_below_bound(self):
        grads = {"a": np.array([0.1])}
        clipped, total = clip_global_norm(grads, 1.0)
        assert clipped["a"] is grads["a"]

    def test_onecycle_endpoints_and_peak(self):
        total, max_lr = 1000, 0.01
        assert onecycle_lr(0, total, max_lr) == pytest.approx(max_lr / 25.0)
        assert onecycle_lr(300, total, max_lr) == pytest.approx(max_lr)
        assert onecycle_lr(999, total, max_lr) < max_lr / 1e3

    def test_onecycle_continuity(self):
        total, max_lr = 500, 0.01
        lrs = [onecycle_lr(s, total, max_lr) for s in range(total)]
        jumps = np.abs(np.diff(lrs))
        assert np.max(jumps) < max_lr / total * 10.0


class TestTrainLoop:
    def test_heat_equation_recovery(self):
        # learn nu*lap(u) from 2 exact trajectories; val rel l2 < 0.01
        g = grid2(16)
        nu, dt = 0.05, 0.05
        ds_train = heat_dataset(g, nu, dt, 20, seeds=(0, 1))
        ds_val = heat_dataset(g, nu, dt, 20, seeds=(2,))
        cfg = config_for_grid(g, c_in=1, K=2, C=4, dt_model=dt, mlp_hidden=(16, 16))
        tc = TrainConfig(iterations=500, max_lr=0.01, n1=2, n2=6, val_every=100, seed=0)
        result = train(ds_train, ds_val, cfg, tc)
        assert result.best_val < 0.01

    def test_burgers_learned_from_two_trajectories(self):
        # a nonlinear PDE from 2 trajectories: the learned model's test error
        # is below half that of the zero right-hand side, u(t) = u(0)
        g_gen, g = grid2(32), grid2(16)
        pde = PDESpec(kind="burgers", nu=0.05)
        solver = SolverConfig(dt=0.005, t_end=1.0, save_dt=0.02)
        sets = {split: generate_dataset(pde, solver, g_gen, g, n, split=split,
                                        grf={"alpha": 3.0})
                for split, n in (("train", 2), ("val", 1), ("test", 3))}
        cfg = config_for_grid(g, c_in=2, K=4, C=8, dt_model=0.02)
        tc = TrainConfig(iterations=600, val_every=600)
        state = train(sets["train"], sets["val"], cfg, tc)
        learned = evaluate_rollout(state.best_params, cfg, sets["test"])
        zeros = {k: np.zeros_like(v) for k, v in state.best_params.items()}
        baseline = evaluate_rollout(zeros, cfg, sets["test"])
        assert not learned.failures
        assert learned.aggregate_rel_l2 < 0.5 * baseline.aggregate_rel_l2

    def test_deterministic_history(self):
        g = grid2(8)
        ds = heat_dataset(g, 0.05, 0.05, 15, seeds=(3, 4), bandlimit=3)
        cfg = config_for_grid(g, c_in=1, K=2, C=3, dt_model=0.05, mlp_hidden=(8,))
        tc = TrainConfig(iterations=20, val_every=10, seed=5)
        a = train(ds, ds, cfg, tc)
        b = train(ds, ds, cfg, tc)
        assert a.history == b.history
        assert all(np.array_equal(a.best_params[k], b.best_params[k]) for k in a.best_params)

    def test_best_val_nonincreasing(self):
        g = grid2(8)
        ds = heat_dataset(g, 0.05, 0.05, 15, seeds=(6, 7), bandlimit=3)
        cfg = config_for_grid(g, c_in=1, K=2, C=3, dt_model=0.05, mlp_hidden=(8,))
        tc = TrainConfig(iterations=40, val_every=10, seed=8)
        result = train(ds, ds, cfg, tc)
        vals = [v for _, _, _, v in result.history if v is not None]
        best_so_far = np.minimum.accumulate(vals)
        assert result.best_val == pytest.approx(best_so_far[-1])

    def test_warmup_carries_no_gradient(self):
        # gradients depend only on the segment handed to backward, not on
        # how many no-grad steps produced its start state
        g = grid2(8)
        cfg = config_for_grid(g, c_in=1, K=2, C=3, dt_model=0.05, mlp_hidden=(8,))
        params = init_params(cfg, 9)
        seg = [bandlimited(g, 20 + i, cutoff=3) for i in range(3)]
        from sino.model import rollout
        _ = rollout(seg[0][np.newaxis], params, cfg, g, 3)  # extra no-grad work
        _, bundle_a = backward(params, cfg, g, seg)
        _, bundle_b = backward(params, cfg, g, seg)
        for k in bundle_a:
            assert np.array_equal(bundle_a[k], bundle_b[k])

    @staticmethod
    def train_one_sample_at_a_time(ds, cfg, tc):
        """train's history and params from a loop that gathers each window's
        frames itself, warms each sample up with its own rollout, and
        accumulates the batch's loss and gradients; and each iteration's
        sorted warm-up lengths."""
        from sino.model import rollout
        from sino.training import GRAD_CLIP
        params = init_params(cfg, tc.seed)
        opt = adam_init(params)
        rng = np.random.default_rng(tc.seed)
        history, warm_ups = [], []
        for it in range(tc.iterations):
            lr = onecycle_lr(it, tc.iterations, tc.max_lr)
            draws = [sample_curriculum(ds, tc, rng) for _ in range(tc.batch)]
            warm_ups.append(sorted(n for _, n, _ in draws))
            loss_acc, grads_acc = 0.0, None
            for traj, n, start in draws:
                state = ds.data[traj, start]
                if n > 0:
                    state = rollout(state[np.newaxis], params, cfg, ds.grid, n)[0, -1]
                frames = ds.data[traj, start + n + 1:start + n + tc.n2 + 1]
                loss, bundle = backward(params, cfg, ds.grid,
                                        np.concatenate([state[np.newaxis], frames]))
                loss_acc += loss / tc.batch
                if grads_acc is None:
                    grads_acc = {k: v / tc.batch for k, v in bundle.items()}
                else:
                    for k, v in bundle.items():
                        grads_acc[k] += v / tc.batch
            grads_acc, _ = clip_global_norm(grads_acc, GRAD_CLIP)
            params = adam_step(opt, params, grads_acc, lr)
            val = validation_rel_l2(params, cfg, ds) if it + 1 == tc.iterations else None
            history.append((it + 1, lr, loss_acc, val))
        return history, params, warm_ups

    def assert_train_equals_one_sample_at_a_time(self, n1, batch, expected_warm_ups):
        """train against the loop above. A batch of one is the same bits. A
        larger batch steps on one tape, whose maps' cotangents sum over the
        batch in another order, so its losses agree to 1e-12 relative, and
        its params to 1e-12 of their global norm: Adam divides a gradient
        entry that is zero but for roundoff by its own size, so such an
        entry's roundoff moves its parameter by up to lr / EPS times it."""
        g = grid2(8)
        ds = heat_dataset(g, 0.05, 0.05, 15, seeds=(3, 4), bandlimit=3)
        cfg = config_for_grid(g, c_in=1, K=2, C=3, dt_model=0.05, mlp_hidden=(8,))
        tc = TrainConfig(iterations=2, n1=n1, batch=batch, seed=1)
        state = train(ds, ds, cfg, tc)
        history, params, warm_ups = self.train_one_sample_at_a_time(ds, cfg, tc)
        assert warm_ups == expected_warm_ups
        if batch == 1:
            assert state.history == history
            assert all(np.array_equal(state.params[k], params[k]) for k in params)
            return
        assert [row[:2] for row in state.history] == [row[:2] for row in history]
        for row, ref in zip(state.history, history):
            assert row[2] == pytest.approx(ref[2], rel=1e-12, abs=0.0)
            assert (row[3] is None) == (ref[3] is None)
            assert row[3] is None or row[3] == pytest.approx(ref[3], rel=1e-12, abs=0.0)
        diff = math.sqrt(sum(np.sum((state.params[k] - params[k]) ** 2) for k in params))
        assert diff <= 1e-12 * math.sqrt(sum(np.sum(p ** 2) for p in params.values()))

    def test_batched_warm_ups_equal_a_rollout_per_sample(self):
        # train rolls a batch's warm-ups together; the warm-ups equal those
        # of a loop that warms each sample up with its own rollout. The draws
        # hold no warm-up, warm-ups of different lengths and a repeated length.
        self.assert_train_equals_one_sample_at_a_time(4, 3, [[0, 2, 4], [3, 4, 4]])

    def test_zero_step_warm_ups_equal_the_start_states(self):
        # under n1 = 0 the batch's one warm-up rollout makes no step
        self.assert_train_equals_one_sample_at_a_time(0, 2, [[0, 0], [0, 0]])

    def test_a_batch_of_one_equals_the_loop_bit_for_bit(self):
        self.assert_train_equals_one_sample_at_a_time(4, 1, [[2], [0]])

    def test_each_warm_up_steps_only_its_own_n(self, monkeypatch):
        # the batch takes ns.sum() sample-steps, not B * max(ns), and each
        # state still equals its own rollout bit for bit
        import sino.model
        from sino.training import _warm_up
        g = grid2(8)
        ds = heat_dataset(g, 0.05, 0.05, 15, seeds=(3, 4), bandlimit=3)
        cfg = config_for_grid(g, c_in=1, K=2, C=3, dt_model=0.05, mlp_hidden=(8,))
        params = init_params(cfg, 2)
        starts = ds.data[[0, 1, 0, 1, 0], [0, 3, 5, 2, 7]]
        ns = np.array([4, 0, 2, 4, 1])
        sample_steps = []
        real_rollout = sino.model.rollout

        def counting_rollout(u0, params, cfg, grid, n_steps):
            sample_steps.append(len(u0) * n_steps)
            return real_rollout(u0, params, cfg, grid, n_steps)

        monkeypatch.setattr(sino.model, "rollout", counting_rollout)
        states = _warm_up(starts, ns, params, cfg, g)
        assert sum(sample_steps) == ns.sum()
        for b, n in enumerate(ns):
            alone = real_rollout(starts[b:b + 1], params, cfg, g, int(n))[0, -1]
            assert np.array_equal(states[b], alone)

    def test_a_diverging_warm_up_skips_the_iteration(self, monkeypatch):
        # trajectory 1 is so large that one model step overflows. At seed 12
        # iteration 1 warms it up for one step: the warm-up goes non-finite,
        # so the row has a NaN loss, no backward runs and no Adam step is
        # taken. Iteration 2 draws only trajectory 0 and trains as usual.
        import sino.model
        import sino.training
        g = grid2(8)
        ds = heat_dataset(g, 0.05, 0.05, 15, seeds=(3, 4), bandlimit=3)
        ds.data[1] *= 1e100
        ds_val = TrajectoryDataset(grid=g, cadence=ds.cadence, data=ds.data[:1])
        cfg = config_for_grid(g, c_in=1, K=2, C=3, dt_model=0.05, mlp_hidden=(8,))
        tc = TrainConfig(iterations=2, n1=4, batch=2, seed=12)
        finite_rollouts, backwards = [], []
        real_rollout, real_backward = sino.model.rollout, sino.training.backward

        def watched_rollout(*args, **kwargs):
            out = real_rollout(*args, **kwargs)
            finite_rollouts.append(bool(np.isfinite(out[:, -1]).all()))
            return out

        def counting_backward(*args):
            backwards.append(1)
            return real_backward(*args)

        monkeypatch.setattr(sino.model, "rollout", watched_rollout)
        monkeypatch.setattr(sino.training, "backward", counting_backward)
        state = train(ds, ds_val, cfg, tc)
        it, _, loss, val = state.history[0]
        assert it == 1 and math.isnan(loss) and val is None
        assert math.isfinite(state.history[1][2])
        assert state.opt.step == 1
        assert len(backwards) == 1  # one batched backward, in iteration 2
        # the warm-ups of iterations 1 and 2, then iteration 2's validation
        assert finite_rollouts == [False, True, True]

    def test_a_diverging_supervised_step_skips_the_iteration(self, monkeypatch):
        # n1 = 0, so no warm-up steps, and trajectory 1 is so large that its
        # first supervised step overflows. At seed 2 iteration 1 draws it:
        # its row has a NaN loss and no Adam step is taken. Iteration 2
        # draws trajectory 0 and trains as usual.
        import sino.training
        g = grid2(8)
        ds = heat_dataset(g, 0.05, 0.05, 15, seeds=(3, 4), bandlimit=3)
        ds.data[1] *= 1e100
        ds_val = TrajectoryDataset(grid=g, cadence=ds.cadence, data=ds.data[:1])
        cfg = config_for_grid(g, c_in=1, K=2, C=3, dt_model=0.05, mlp_hidden=(8,))
        raised, real_backward = [], sino.training.backward

        def watched_backward(*args):
            try:
                return real_backward(*args)
            except NonFinite as err:
                raised.append(str(err))
                raise

        monkeypatch.setattr(sino.training, "backward", watched_backward)
        state = train(ds, ds_val, cfg, TrainConfig(iterations=2, n1=0, seed=2))
        assert raised == ["rollout diverged at supervised step 1"]
        it, _, loss, val = state.history[0]
        assert it == 1 and math.isnan(loss) and val is None
        assert math.isfinite(state.history[1][2]) and math.isfinite(state.history[1][3])
        assert state.opt.step == 1 and state.best_iteration == 2

    def test_six_consecutive_non_finite_iterations_raise(self):
        # every window diverges at its first supervised step
        g = grid2(8)
        ds = heat_dataset(g, 0.05, 0.05, 15, seeds=(3, 4), bandlimit=3)
        ds.data *= 1e100
        cfg = config_for_grid(g, c_in=1, K=2, C=3, dt_model=0.05, mlp_hidden=(8,))
        with pytest.raises(NonFinite, match=r"6 consecutive non-finite iterations "
                                            r"\(at iteration 6\)"):
            train(ds, ds, cfg, TrainConfig(iterations=10, n1=0))

    def test_without_a_finite_validation_the_last_params_are_best(self, monkeypatch):
        import sino.training
        g = grid2(8)
        ds = heat_dataset(g, 0.05, 0.05, 15, seeds=(3,), bandlimit=3)
        cfg = config_for_grid(g, c_in=1, K=2, C=3, dt_model=0.05, mlp_hidden=(8,))
        monkeypatch.setattr(sino.training, "validation_rel_l2", lambda *args: math.inf)
        state = train(ds, ds, cfg, TrainConfig(iterations=3, n1=0, val_every=1))
        assert [row[3] for row in state.history] == [math.inf] * 3
        assert state.best_val == math.inf and state.best_iteration == 3
        assert state.best_params is state.params
        assert not np.array_equal(state.params["out.w"], init_params(cfg, 0)["out.w"])

    def test_cadence_mismatch_rejected(self):
        g = grid2(8)
        ds = heat_dataset(g, 0.05, 0.05, 15, seeds=(0,), bandlimit=3)
        cfg = config_for_grid(g, c_in=1, K=2, C=3, dt_model=0.01, mlp_hidden=(8,))
        with pytest.raises(ValueError):
            train(ds, ds, cfg, TrainConfig(iterations=1))

    def test_history_csv_round_trip(self, tmp_path):
        history = [(1, 0.004, 1.25e-3, None), (2, 0.0041, 7.5e-4, 0.5)]
        path = tmp_path / "history.csv"
        write_history_csv(history, path, "0123456789ab")
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,config_hash,lr,train_loss,val_rel_l2"
        assert len(lines) == 3
        assert [line.split(",")[1] for line in lines[1:]] == ["0123456789ab"] * 2
        assert float(lines[1].split(",")[3]) == 1.25e-3
        assert lines[1].split(",")[4] == ""
        assert float(lines[2].split(",")[4]) == 0.5

    def test_failed_history_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "history.csv"
        write_history_csv([(1, 0.004, 1.25e-3, None)], path, "0123456789ab")
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            write_history_csv([(1, 0.004, 1.25e-3, None), (2, 0.0041, 7.5e-4, 0.5)],
                              path, "ba9876543210")
        assert path.read_bytes() == before
