"""Experiment configuration: case presets, YAML loading, canonical hashing.

Cases E1-E7 mirror the benchmark table (generation grid/step, operator-
learning grid/step, trajectory counts); each also has a reduced "-desk"
variant sized for a desktop CPU. presets() holds them as one case table, a
row per preset, and one loop builds each row's ExperimentConfig; the NSE
cases E2-E5 write their viscosity, forcing and generation step once, for
both sizes.

Every preset generates its data with the one reference integrator,
integrating-factor RK4 (solvers.integrate), which advances the stiff linear
part exactly, so accuracy, not stability, bounds the step. Each preset's
generation step, E5's and E7's aside, is the largest of save_dt,
save_dt/2, ... whose trajectory stays within 1e-8 relative l2 of the same
integrator at half the step on every snapshot of the whole horizon
(test_t_end where set), the bound the benchmark's gen workload checks.
Worst snapshot against dt/2, on the generation grid, over the first
trajectory of the train and the test split (desk presets: and of the
validation split); in brackets, the step before: the paper's for E1-E7.

    preset     step                  worst rel-l2    horizon
    E1-desk    1e-3 (= save_dt)      6.2e-9          2
    E2-desk    5e-3 (1e-3) = save_dt 2.3e-11         15
    E3-desk    5e-3 (1e-3) = save_dt 1.6e-10         15
    E4-desk    5e-3 (1e-3) = save_dt 8.1e-11         15
    E5-desk    2.5e-3 (1e-3)         2.5e-9          15
    E6-desk    5e-3 (1e-3) = save_dt 1.0e-9          1
    E7-desk    1.25e-2 (5e-3)        7.9e-9          1
    E1         2.5e-4 (1e-4)         7.3e-9          5
    E2         5e-3 (1e-4) = save_dt 3.5e-11         15
    E3         5e-3 (1e-4) = save_dt 3.5e-10         15
    E4         5e-3 (1e-4) = save_dt 5.4e-11         15
    E5         2.5e-3 (1e-4)         5.5e-10         15
    E6         2.5e-3 (1e-3)         6.7e-9          2
    E7         5e-3, the paper's     not measured

Twice the step fails: E5-desk at 5e-3 reads 3.95e-8 at t = 15, E7-desk at
2.5e-2 7.6e-8 at t = 1, E1 at 5e-4 4.5e-8 at t = 1e-3 and E6 at 5e-3
9.0e-8 at t = 5e-3. E5 at 5e-3 reads 8.8e-9 at t = 15 on its test
trajectory, under the bound but still rising at the end of the horizon, so
E5 takes half that step for a margin. So E1-E6 deviate from the paper's
step, and E7 keeps it.

The schema is the dataclasses themselves: a config document is a mapping of
ExperimentConfig's field names, and its pde, solver, model and train values
are mappings of the fields of PDESpec, SolverConfig, ModelConfig and
TrainConfig. to_dict is dataclasses.asdict, and the SHA-256 prefix of its
key-sorted JSON form with out_dir blanked is the config hash, so the hash
names the experiment, not its directory. Every value must fit its field's
type hint: an int is accepted for a float field, a bool only for a bool
field, and a list for a tuple field whose elements fit its element type.
gen_points and train_points must each make a grid (GridSpec) on
domain_length. The model must fit the experiment: pde.dim is the number of
axes of domain_length, model.c_in is the PDE's channel count, the native grid
2 * model.freq_norm is train_points, and the snapshot cadence solver.save_dt
is model.dt_model. A test_t_end must be a horizon SolverConfig accepts. The
GRF settings that sample_ic draws with (solvers.grf_settings: the PDE kind's
GRF_DEFAULTS updated by the non-null grf values) must make a field: alpha
finite and > pde.dim/2, tau finite and > 0, and scale null or finite and
> 0. A curriculum window, train.n1 + train.n2 + 1 snapshots, must fit in
the solver.n_snapshots of a trajectory. All of this is checked when the
config is built, before any data is made.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import types
import typing
from dataclasses import dataclass, field, replace

import yaml

from .model import ModelConfig, config_for_grid
from .solvers import GRF_DEFAULTS, PDESpec, SolverConfig, grf_settings
from .spectral import GridSpec
from .training import TrainConfig

TWO_PI = 2.0 * math.pi


@dataclass
class ExperimentConfig:
    case: str
    pde: PDESpec
    domain_length: tuple[float, ...]
    gen_points: tuple[int, ...]
    train_points: tuple[int, ...]
    solver: SolverConfig
    model: ModelConfig
    train: TrainConfig
    n_train: int = 2
    n_val: int = 2
    n_test: int = 5
    grf: dict = field(default_factory=dict)
    test_t_end: float | None = None
    out_dir: str = "runs/out"

    def __post_init__(self):
        for name in ("n_train", "n_val", "n_test"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        unknown = sorted(set(self.grf) - set(GRF_DEFAULTS[self.pde.kind]))
        if unknown:
            raise ValueError(f"unknown grf key {unknown[0]!r}")
        for key, value in self.grf.items():
            if value is not None and not _fits(value, float):
                raise ValueError(f"grf.{key} must be a number or null, got {value!r}")
        grf = grf_settings(self.pde.kind, self.grf)
        if not self.pde.dim / 2 < grf["alpha"] < math.inf:
            raise ValueError(f"grf.alpha must be finite and > dim/2 = {self.pde.dim / 2}, "
                             f"got {grf['alpha']}")
        for key in ("tau", "scale"):  # every kind has a tau; a null scale derives from it
            if grf[key] is not None and not 0 < grf[key] < math.inf:
                raise ValueError(f"grf.{key} must be finite and > 0, got {grf[key]}")
        if self.pde.dim != len(self.domain_length):
            raise ValueError(f"pde.dim {self.pde.dim} must equal the {len(self.domain_length)} "
                             f"axes of domain_length")
        for name, points in (("gen_points", self.gen_points), ("train_points", self.train_points)):
            try:
                GridSpec(points=points, length=self.domain_length)
            except ValueError as err:
                raise ValueError(f"{name} {points} on domain_length {self.domain_length} "
                                 f"is no grid: {err}") from None
        if self.model.c_in != self.pde.channels:
            raise ValueError(f"model.c_in {self.model.c_in} must equal the "
                             f"{self.pde.channels} channels of the PDE")
        if self.model.native_points != tuple(self.train_points):
            raise ValueError(f"model.freq_norm {self.model.freq_norm} gives native points "
                             f"{self.model.native_points}, not train_points {self.train_points}")
        if abs(self.solver.save_dt - self.model.dt_model) > 1e-9 * self.model.dt_model:
            raise ValueError(f"solver.save_dt {self.solver.save_dt} must equal "
                             f"model.dt_model {self.model.dt_model}")
        try:
            self.test_solver()
        except ValueError as err:
            raise ValueError(f"test_t_end {self.test_t_end}: {err}") from None
        need = self.train.n1 + self.train.n2 + 1
        if need > self.solver.n_snapshots:
            raise ValueError(f"train.n1 + train.n2 + 1 = {need} exceeds the "
                             f"{self.solver.n_snapshots} snapshots of solver.t_end "
                             f"{self.solver.t_end} at save_dt {self.solver.save_dt}")

    @property
    def gen_grid(self) -> GridSpec:
        return GridSpec(points=self.gen_points, length=self.domain_length)

    @property
    def train_grid(self) -> GridSpec:
        return GridSpec(points=self.train_points, length=self.domain_length)

    def test_solver(self) -> SolverConfig:
        """Solver settings for the test split (longer horizon where configured)."""
        if self.test_t_end is None:
            return self.solver
        return replace(self.solver, t_end=self.test_t_end)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        """One experiment run in two directories has one hash: out_dir is left out."""
        experiment = replace(self, out_dir="").canonical_json()
        return hashlib.sha256(experiment.encode("utf-8")).hexdigest()[:12]


def _fits(value, hint) -> bool:
    """Whether a config value fits a field's type hint."""
    origin = typing.get_origin(hint)
    if origin is tuple:
        return isinstance(value, tuple) and all(_fits(v, typing.get_args(hint)[0]) for v in value)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _from_fields(cls, d, where: str):
    """Build the dataclass cls from a mapping of its field names.

    Nested dataclass fields are built the same way; missing fields take the
    dataclass defaults and lists become tuples. An unknown key, a missing
    required one, a value that does not fit its field's type hint, or one
    the dataclass rejects raises ValueError.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{where or 'config'} must be a mapping, got {type(d).__name__}")
    prefix = f"{where}." if where else ""
    names = [f.name for f in dataclasses.fields(cls)]
    for key in d:
        if key not in names:
            raise ValueError(f"unknown key {prefix}{key}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in d:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ValueError(f"missing key {prefix}{f.name}")
            continue
        value, hint = d[f.name], hints[f.name]
        if dataclasses.is_dataclass(hint):
            value = _from_fields(hint, value, prefix + f.name)
        else:
            if isinstance(value, list):
                value = tuple(value)
            if not _fits(value, hint):
                expected = str(hint) if typing.get_origin(hint) else hint.__name__
                raise ValueError(f"{prefix}{f.name} must be {expected}, got {value!r}")
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{where or 'config'}: {err}") from err


def from_dict(d: dict) -> ExperimentConfig:
    return _from_fields(ExperimentConfig, d, "")


def load_yaml(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as err:
            raise ValueError(f"{path} is not valid YAML: {err}") from err
    return from_dict(doc)


def presets() -> dict[str, ExperimentConfig]:
    """The case table, one ExperimentConfig per row; a row's point counts
    hold on every axis of its domain."""
    kse = PDESpec(kind="kse")
    burgers = {dim: PDESpec(kind="burgers", nu=0.01, dim=dim) for dim in (2, 3)}
    kse_domain, two_pi = (12 * math.pi,) * 2, (TWO_PI,) * 2
    # name, viscosity, forcing, generation step (the same on both grids)
    nse = [("E2", 1e-4, "f1", 5e-3), ("E3", 1e-5, "f1", 5e-3),
           ("E4", 1e-4, "f2", 5e-3), ("E5", 1e-5, "f2", 2.5e-3)]
    # case, PDE, domain, generation points and step, training points and
    # dt_model, horizon, trajectories, iterations, K, C, test horizon
    rows = [
        ("E1", kse, kse_domain, 108, 2.5e-4, 54, 1e-3, 5.0, 2, 20000, 8, 64, None),
        ("E6", burgers[2], two_pi, 512, 2.5e-3, 128, 5e-3, 2.0, 5, 20000, 8, 64, None),
        ("E7", burgers[3], (TWO_PI,) * 3, 128, 5e-3, 64, 5e-2, 5.0, 5, 5000, 8, 64, None),
        ("E1-desk", kse, kse_domain, 64, 1e-3, 32, 1e-3, 2.0, 2, 2000, 4, 16, None),
        ("E6-desk", burgers[2], two_pi, 64, 5e-3, 32, 5e-3, 1.0, 2, 2000, 4, 16, None),
        ("E7-desk", burgers[3], (TWO_PI,) * 3, 32, 1.25e-2, 16, 5e-2, 1.0, 2, 300, 4, 8, None),
        *[(name + suffix, PDESpec(kind="nse", nu=nu, forcing=forcing), (1.0, 1.0), gen_n, gen_dt,
           train_n, 5e-3, 10.0, 5, iterations, K, C, 15.0)
          for suffix, gen_n, train_n, iterations, K, C in (("", 256, 64, 20000, 8, 64),
                                                           ("-desk", 64, 32, 2000, 4, 16))
          for name, nu, forcing, gen_dt in nse],
    ]
    out = {}
    for (case, pde, length, gen_n, gen_dt, train_n, dt_model, t_end, n_traj, iterations,
         K, C, test_t_end) in rows:
        train_points = (train_n,) * len(length)
        out[case] = ExperimentConfig(
            case=case, pde=pde, domain_length=length, gen_points=(gen_n,) * len(length),
            train_points=train_points, out_dir=f"runs/{case.lower()}",
            solver=SolverConfig(dt=gen_dt, t_end=t_end, save_dt=dt_model),
            model=config_for_grid(GridSpec(points=train_points, length=length),
                                  c_in=pde.channels, K=K, C=C, dt_model=dt_model),
            train=TrainConfig(iterations=iterations), n_train=n_traj, test_t_end=test_t_end)
    return out
