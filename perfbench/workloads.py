"""The three benchmark workloads: reference-data generation, training and
rollout evaluation, each built from the desk presets of `sino.config`.

A workload has a set-up (timed as setup_s), one-off untimed checks, and a
list of operations that the runner repeats round-robin. Each operation
returns its output, and a separate untimed check decides whether it is
correct. Every call into the library goes through a module attribute, so
the tracer's wrappers see it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import sino.config
import sino.containers
import sino.evaluation
import sino.model
import sino.solvers
import sino.spectral
import sino.training

# Relative l2 between a generated trajectory and RK4 at half the step; the
# presets that pass differ by 1e-11 or less at seed.
GEN_REF_RTOL = 1e-8
# Aggregate rel-l2 of the hand-set exact Burgers model against solver truth.
# 2D truth is made at 64^2 and resampled to the 32^2 model grid (seed: ~0.01);
# 3D truth is made on the 16^3 model grid itself (seed: ~1e-8).
ROLLOUT_BOUND = {"2d": 0.05, "3d": 1e-5}
# Central finite difference against training.backward along one direction.
FD_STEP = 1e-4
FD_RTOL = 1e-6


# Simulated time per generated trajectory, the same for every family: 50
# steps of E1/E2/E6-desk and 10 of E7-desk.
GEN_HORIZON = 0.05


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload run; FULL is the benchmark, TINY the smoke test."""

    train_trajs: int
    train_iterations: int    # iterations per timed train() call
    rollout2d_trajs: int
    rollout2d_snapshots: int
    rollout3d_snapshots: int
    probe_repeats: int


FULL = Scale(train_trajs=2, train_iterations=2, rollout2d_trajs=2,
             rollout2d_snapshots=20, rollout3d_snapshots=6, probe_repeats=15)
TINY = Scale(train_trajs=1, train_iterations=1, rollout2d_trajs=1,
             rollout2d_snapshots=3, rollout3d_snapshots=2, probe_repeats=2)


@dataclass
class Op:
    """One timed operation: key names its metric family, units its work."""

    key: str
    run: Callable[[], object]
    check: Callable[[object], str | None]   # None if correct, else why not
    units: float


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return math.sqrt(float(np.sum((a - b) ** 2)) / float(np.sum(b**2)))


def _split_seed(seed: int, index: int) -> int:
    return 7919 * seed + index


class Gen:
    """Per desk PDE family: generate one trajectory, write it, read it back."""

    name = "gen"
    FAMILIES = (("kse", "E1-desk"), ("nse", "E2-desk"),
                ("burgers2d", "E6-desk"), ("burgers3d", "E7-desk"))
    # Known defects (README.md): E2-desk raises HermitianViolation on step 1,
    # and E1-desk's dt is outside RK4's stability region, so KSE leaves its
    # dt/2 reference within 50 steps. Both stay in every round and count as
    # failed; work_per_ref covers every family whose operation returns, so
    # KSE is timed and NSE is not until it runs.
    EXPECTED_FAILURES = ("kse", "nse")
    RATE = ("gen_{key}_sim_per_s", "sim-s/s")

    def __init__(self, seed: int, scale: Scale, out_dir: Path):
        self.seed, self.scale, self.out_dir = seed, scale, out_dir
        self.reference: dict[str, np.ndarray | None] = {}

    def setup(self):
        table = sino.config.presets()
        self.cases = {}
        for i, (key, preset) in enumerate(self.FAMILIES):
            c = table[preset]
            solver = replace(c.solver, t_end=GEN_HORIZON)
            self.cases[key] = (c, solver, _split_seed(self.seed, i))
            sino.spectral.freq_grid(c.gen_grid)
            sino.spectral.freq_grid(c.train_grid)

    def _generate(self, key, dt_divisor=1, t_end=None):
        c, solver, split_seed = self.cases[key]
        solver = replace(solver, dt=solver.dt / dt_divisor, t_end=t_end or solver.t_end)
        return sino.solvers.generate_dataset(c.pde, solver, c.gen_grid, c.train_grid, 1,
                                             split_seed=split_seed).data[0]

    def prepare(self) -> list[tuple[str, str | None]]:
        """RK4 at half the step, for every family whose solver runs at seed."""
        for key, _ in self.FAMILIES:
            try:
                self.reference[key] = self._generate(key, dt_divisor=2)
            except sino.SinoError:
                # no seed-time reference (NSE): the check halves the step in-run
                self.reference[key] = None
        return []

    def op(self, key) -> Op:
        c, solver, _ = self.cases[key]
        path = self.out_dir / f"gen-{key}.sino"

        def run():
            snaps = self._generate(key)
            sino.containers.write_field_container(path, c.train_grid, solver.save_dt, snaps)
            _, _, back = sino.containers.read_field_container(path)
            return snaps, back

        def check(out):
            written, back = out
            if not np.isfinite(written).all():
                return "trajectory is not finite"
            if not np.array_equal(written, back):
                return "container read-back differs from what was written"
            if self.reference[key] is None:
                # step halving over the first saved interval only
                self.reference[key] = self._generate(key, 2, t_end=solver.save_dt)
            ref = self.reference[key]
            err = rel_l2(written[: len(ref)], ref)
            if not err <= GEN_REF_RTOL:
                return f"rel-l2 {err:.3g} against RK4 at dt/2 exceeds {GEN_REF_RTOL:g}"
            return None

        return Op(key, run, check, units=solver.t_end)

    def ops(self) -> list[Op]:
        return [self.op(key) for key, _ in self.FAMILIES]

    def probe(self, repeats):
        """Generation calls no model block."""


class Train:
    """training.train on E6-desk from seeded params, batch 4, validating every call."""

    name = "train"
    EXPECTED_FAILURES = ()
    RATE = ("train_samples_per_s", "samples/s")
    BATCH = 4

    def __init__(self, seed: int, scale: Scale, out_dir: Path):
        self.seed, self.scale = seed, scale

    def setup(self):
        c = sino.config.presets()["E6-desk"]
        self.case = c
        tc = c.train
        need = tc.n1 + tc.n2   # saved intervals one curriculum window spans
        gen = lambda n_traj, n_snap, idx: sino.solvers.generate_dataset(
            c.pde, replace(c.solver, t_end=n_snap * c.solver.save_dt), c.gen_grid,
            c.train_grid, n_traj, split_seed=_split_seed(self.seed, idx))
        self.data_train = gen(self.scale.train_trajs, need, 10)
        self.data_val = gen(1, tc.n2, 11)
        self.train_cfg = replace(tc, iterations=self.scale.train_iterations, batch=self.BATCH,
                                 val_every=self.scale.train_iterations)
        self.params = sino.model.init_params(c.model, self.seed)

    def prepare(self) -> list[tuple[str, str | None]]:
        """Central finite difference of training.backward along one random direction."""
        c = self.case
        segment = self.data_train.data[0, : c.train.n2 + 1]
        loss, grads = sino.training.backward(self.params, c.model, c.train_grid, segment)
        rng = np.random.default_rng(self.seed)
        direction = {k: rng.standard_normal(v.shape) for k, v in self.params.items()}
        norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
        shifted = lambda s: {k: v + s * direction[k] / norm for k, v in self.params.items()}
        lp = sino.training.loss_rollout(shifted(FD_STEP), c.model, c.train_grid, segment)
        lm = sino.training.loss_rollout(shifted(-FD_STEP), c.model, c.train_grid, segment)
        fd = (lp - lm) / (2 * FD_STEP)
        exact = sum(float(np.sum(grads[k] * direction[k])) for k in grads) / norm
        err = abs(fd - exact) / max(abs(exact), 1e-300)
        why = None
        if not (math.isfinite(loss) and err <= FD_RTOL):
            why = f"loss {loss:.3g}; directional derivative off by {err:.3g} (bound {FD_RTOL:g})"
        return [("train.finite_difference", why)]

    def ops(self) -> list[Op]:
        c = self.case
        calls = itertools.count(1)

        def run():
            # a new train seed per call, so the run samples the curriculum's
            # warm-up lengths (and their cost) instead of repeating one draw
            cfg = replace(self.train_cfg, seed=1_000_003 * self.seed + next(calls))
            return sino.training.train(self.data_train, self.data_val, c.model, cfg)

        def check(result):
            losses = [row[2] for row in result.history]
            if not all(math.isfinite(x) for x in losses):
                return f"non-finite training loss in {losses}"
            if not math.isfinite(result.best_val):
                return "non-finite validation error"
            return None

        units = self.train_cfg.iterations * self.train_cfg.batch
        return [Op("train", run, check, units=units)]

    def probe(self, repeats):
        """Model blocks that train never calls through their public names."""
        _probe_model(self.case.model, self.params, self.case.train_grid,
                     self.data_val.data[0, 0], repeats, full=True)


def _probe_model(cfg, params, grid, u, repeats, full):
    m = sino.model
    for _ in range(repeats):
        if full:
            table = m.freq2vec_eval(params, cfg, grid)
            d = m.slb_apply(u, table, cfg, grid)
            m.pi_block(d, params, cfg, grid)
            m.rhs_eval(u, params, cfg, grid)
        m.model_step(u, params, cfg, grid)


class Rollout:
    """evaluation.evaluate_rollout of the exact Burgers parameters, 2D and 3D."""

    name = "rollout"
    EXPECTED_FAILURES = ()
    RATE = ("rollout{key}_steps_per_s", "steps/s")

    def __init__(self, seed: int, scale: Scale, out_dir: Path):
        self.seed, self.scale = seed, scale

    def setup(self):
        table = sino.config.presets()
        self.sets = {}
        for key, preset, n_traj, n_snap, idx in (
            ("2d", "E6-desk", self.scale.rollout2d_trajs, self.scale.rollout2d_snapshots, 20),
            ("3d", "E7-desk", 1, self.scale.rollout3d_snapshots, 21),
        ):
            c = table[preset]
            # 3D truth is made on the model grid: at the preset's 32^3 it
            # would cost about 10 s per set-up
            gen_grid = c.gen_grid if key == "2d" else c.train_grid
            solver = replace(c.solver, t_end=(n_snap - 1) * c.solver.save_dt)
            truth = sino.solvers.generate_dataset(c.pde, solver, gen_grid, c.train_grid, n_traj,
                                                  split_seed=_split_seed(self.seed, idx))
            cfg, params = sino.model.exact_burgers_params(c.train_grid, c.pde.nu,
                                                          c.model.dt_model)
            self.sets[key] = (cfg, params, truth)

    def prepare(self) -> list[tuple[str, str | None]]:
        return []

    def op(self, key) -> Op:
        cfg, params, truth = self.sets[key]

        def run():
            return sino.evaluation.evaluate_rollout(params, cfg, truth)

        def check(report):
            if report.failures:
                return f"rollout failed: {report.failures}"
            err = report.aggregate_rel_l2
            if not err <= ROLLOUT_BOUND[key]:
                return f"aggregate rel-l2 {err:.3g} exceeds {ROLLOUT_BOUND[key]:g}"
            return None

        steps = truth.n_traj * (truth.n_snapshots - 1) * round(truth.cadence / cfg.dt_model)
        return Op(key, run, check, units=steps)

    def ops(self) -> list[Op]:
        return [self.op("2d"), self.op("3d")]

    def probe(self, repeats):
        for key in ("2d", "3d"):
            cfg, params, truth = self.sets[key]
            _probe_model(cfg, params, truth.grid, truth.data[0, 0], repeats, full=key == "2d")


WORKLOADS = {w.name: w for w in (Gen, Train, Rollout)}
