"""Training: exact reverse-mode gradients of the rollout loss, Adam with a
one-cycle schedule, and the warm-up curriculum loop.

Each iteration draws B windows as integers (trajectory, warm-up length n
in {0..n1}, start) and gathers their frames in one step. The start states
roll together without gradients (warm-up), each sample taking its state
after its own n steps. The B windows then predict n2 steps with gradients
as one state, on one tape whose maps are built once, and one backward
gives the batch-mean loss and its gradients. Model selection is by
full-horizon validation error.

A run is a TrainState: the parameters, the Adam state, the best parameters
with their validation error and iteration, and one (iteration, lr,
train_loss, val_rel_l2 | None) history row per iteration, a skipped
non-finite one included. train starts from one and returns one, and a
checkpoint stores it whole. A resumed run continues at iteration
len(history) + 1 and replays the sampler's batch * len(history) draws, so
it continues the original stream only under the same seed, batch, n1 and
n2; the Adam step count lags by the skipped iterations, which take no step.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from . import containers
from . import engine as eg
from . import evaluation
from . import model as sino_model
from .engine import Tensor
from .errors import ContainerError, InsufficientLength, NonFinite
from .model import ModelConfig
from .solvers import TrajectoryDataset
from .spectral import GridSpec

# Adam's moment decay rates and denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# the global gradient-norm clip, and PyTorch OneCycleLR's schedule defaults
GRAD_CLIP = 1.0
WARMUP_FRAC, DIV_FACTOR, FINAL_DIV_FACTOR = 0.3, 25.0, 1e4


@dataclass(frozen=True)
class TrainConfig:
    iterations: int
    max_lr: float = 0.01
    n1: int = 4
    n2: int = 8
    batch: int = 1
    seed: int = 0
    val_every: int = 200

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.n1 < 0 or self.n2 < 1:
            raise ValueError("need n1 >= 0 and n2 >= 1")
        if self.batch < 1 or self.val_every < 1:
            raise ValueError("batch and val_every must be >= 1")
        if not self.max_lr > 0:
            raise ValueError(f"max_lr must be positive, got {self.max_lr}")


@dataclass
class OptimizerState:
    """Adam moment buffers, shape-mirroring the parameter dict."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def adam_init(params: dict[str, np.ndarray]) -> OptimizerState:
    zeros = lambda: {k: np.zeros_like(v) for k, v in params.items()}
    return OptimizerState(m=zeros(), v=zeros())


def adam_step(
    state: OptimizerState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update; mutates state, returns new params."""
    state.step += 1
    bc1 = 1.0 - BETA1**state.step
    bc2 = 1.0 - BETA2**state.step
    out = {}
    for name, p in params.items():
        g = grads[name]
        state.m[name] = BETA1 * state.m[name] + (1.0 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1.0 - BETA2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        out[name] = p - lr * m_hat / (np.sqrt(v_hat) + EPS)
    return out


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> tuple[dict, float]:
    """Scale the whole bundle so its global l2 norm is at most max_norm."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads, total
    factor = max_norm / total
    return {k: g * factor for k, g in grads.items()}, total


def onecycle_lr(step: int, total: int, max_lr: float) -> float:
    """Cosine one-cycle: max_lr/DIV_FACTOR -> max_lr over the WARMUP_FRAC of
    the run, then anneal to max_lr/FINAL_DIV_FACTOR."""
    if not 0 <= step < total:
        raise ValueError(f"step {step} outside [0, {total})")
    peak = WARMUP_FRAC * total
    if step <= peak:
        lo = max_lr / DIV_FACTOR
        t = step / peak
        return lo + (max_lr - lo) * 0.5 * (1.0 - math.cos(math.pi * t))
    lo = max_lr / FINAL_DIV_FACTOR
    t = (step - peak) / (total - peak)
    return lo + (max_lr - lo) * 0.5 * (1.0 + math.cos(math.pi * t))


def sample_curriculum(
    dataset: TrajectoryDataset, cfg: TrainConfig, rng: np.random.Generator
) -> tuple[int, int, int]:
    """Draw a window (trajectory, warm-up length n, start) uniformly.

    The trainer warms the state at snapshot start up by n steps without
    gradients and supervises the next n2 steps against the snapshots
    start+n+1 .. start+n+n2, so start + n + n2 < n_snapshots.
    """
    need = cfg.n1 + cfg.n2 + 1
    if dataset.n_snapshots < need:
        raise InsufficientLength(
            f"trajectories have {dataset.n_snapshots} snapshots; curriculum needs {need}"
        )
    traj = int(rng.integers(dataset.n_traj))
    n = int(rng.integers(cfg.n1 + 1))
    start = int(rng.integers(dataset.n_snapshots - n - cfg.n2))
    return traj, n, start


# -- rollout loss -------------------------------------------------------------


def _squared_error(state: Tensor, target: np.ndarray) -> Tensor:
    """The mean of (state - target)^2 over every entry, as one tape node
    that keeps nothing of its own: its pullback recomputes the difference."""
    diff = state.data - target
    loss = np.sum(diff * diff) * (1.0 / diff.size)

    def vjp(g):
        g_state = state.data - target
        g_state *= (1.0 / g_state.size) * g
        g_state += g_state
        return (g_state,)

    return eg._node(loss, (state,), vjp)


def _rollout_loss_graph(
    pt: dict[str, Tensor],
    model_cfg: ModelConfig,
    grid: GridSpec,
    segment,
) -> Tensor:
    maps = sino_model._rhs_maps(pt, model_cfg, grid)
    segment = np.asarray(segment, dtype=np.float64)
    if segment.ndim == grid.dim + 2:
        segment = segment[np.newaxis]  # one window is a batch of one
    # the model steps a batch (c_in, B, *points): frames (n2+1, c_in, B, *points)
    frames = np.ascontiguousarray(np.moveaxis(segment, 0, 2))
    state = Tensor(frames[0])
    step_losses = []
    # a diverging step overflows; each step's check reports it as NonFinite
    with np.errstate(over="ignore", invalid="ignore"):
        for target in frames[1:]:
            state = sino_model._step(state, maps, model_cfg, grid)
            if not np.isfinite(state.data).all():
                raise NonFinite(f"rollout diverged at supervised step {len(step_losses) + 1}")
            step_losses.append(_squared_error(state, target))
    total = step_losses[0]
    for sl in step_losses[1:]:
        total = eg.add(total, sl)
    return eg.mul(total, 1.0 / len(step_losses))


def loss_rollout(
    params: dict[str, np.ndarray],
    model_cfg: ModelConfig,
    grid: GridSpec,
    segment,
) -> float:
    """Mean per-step squared error of an n-step rollout from segment[0] vs
    segment[1:]; segment is one window (n+1, c_in, *points) or a batch of
    windows (B, n+1, c_in, *points), whose loss is the batch mean."""
    pt = sino_model._wrap_params(params, False)
    return float(_rollout_loss_graph(pt, model_cfg, grid, segment).data)


def backward(
    params: dict[str, np.ndarray],
    model_cfg: ModelConfig,
    grid: GridSpec,
    segment,
) -> tuple[float, dict[str, np.ndarray]]:
    """loss_rollout and its exact gradient with respect to every parameter
    tensor.

    A batch of windows builds the Freq2Vec table and the folded maps once
    and steps as one state, on one tape; its gradients equal the mean of the
    windows' own to roundoff, as the maps' cotangents sum over the batch in
    another order."""
    pt = sino_model._wrap_params(params, True)
    loss = _rollout_loss_graph(pt, model_cfg, grid, segment)
    loss.backward()
    bundle = {
        name: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for name, t in pt.items()
    }
    return float(loss.data), bundle


# -- training loop ------------------------------------------------------------


def _strip(tensors: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    """The tensors whose names start with prefix, keyed by the rest of the name."""
    return {k[len(prefix):]: v for k, v in tensors.items() if k.startswith(prefix)}


@dataclass
class TrainState:
    params: dict[str, np.ndarray]
    opt: OptimizerState
    best_params: dict[str, np.ndarray]
    best_val: float = math.inf
    best_iteration: int = 0
    history: list[tuple] = field(default_factory=list)  # (iteration, lr, train_loss, val | None)

    def to_tensors(self) -> dict[str, np.ndarray]:
        """The whole state as checkpoint tensors; an absent validation is NaN."""
        bundles = {"param.": self.params, "adam_m.": self.opt.m, "adam_v.": self.opt.v,
                   "best.": self.best_params}
        tensors = {prefix + k: v for prefix, bundle in bundles.items() for k, v in bundle.items()}
        tensors["meta.step"] = np.array(float(self.opt.step))
        tensors["meta.best_val"] = np.array(float(self.best_val))
        tensors["meta.best_iteration"] = np.array(float(self.best_iteration))
        rows = [(it, lr, loss, math.nan if val is None else val)
                for it, lr, loss, val in self.history]
        tensors["meta.history"] = np.array(rows, dtype=np.float64).reshape(-1, 4)
        return tensors

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray]) -> TrainState:
        """The state to_tensors stored; ContainerError if a key is missing or
        misshapen: the counters are scalars and the history is (n, 4)."""
        for key in ("meta.step", "meta.best_val", "meta.best_iteration", "meta.history"):
            if key not in tensors:
                raise ContainerError(f"not a training state: no {key}; "
                                     "a run's checkpoint is its ckpt_last.sino")
            shape, history = tensors[key].shape, key == "meta.history"
            if (len(shape) != 2 or shape[1] != 4) if history else shape != ():
                raise ContainerError(f"not a training state: {key} has shape {shape}, "
                                     f"not {'(n, 4)' if history else '()'}")
        history = [(int(it), float(lr), float(loss), None if math.isnan(val) else float(val))
                   for it, lr, loss, val in tensors["meta.history"]]
        opt = OptimizerState(m=_strip(tensors, "adam_m."), v=_strip(tensors, "adam_v."),
                             step=int(tensors["meta.step"]))
        return cls(params=_strip(tensors, "param."), opt=opt,
                   best_params=_strip(tensors, "best."),
                   best_val=float(tensors["meta.best_val"]),
                   best_iteration=int(tensors["meta.best_iteration"]), history=history)


def validation_rel_l2(
    params: dict[str, np.ndarray],
    model_cfg: ModelConfig,
    dataset: TrajectoryDataset,
) -> float:
    """Full-horizon pooled relative l2 over all validation trajectories
    (evaluation.evaluate_rollout), or inf if any of them diverged."""
    report = evaluation.evaluate_rollout(params, model_cfg, dataset)
    return float("inf") if report.failures else report.aggregate_rel_l2


def _warm_up(starts: np.ndarray, ns: np.ndarray, params, model_cfg: ModelConfig,
             grid: GridSpec) -> np.ndarray:
    """The start states (B, c_in, *points), each advanced by its own warm-up
    ns[b] steps without gradients.

    The batch rolls to each distinct n in ascending order, and a sample
    leaves it once its own n is reached, so the batch takes ns.sum() sample-
    steps. A batch's trajectories step independently, so each state equals
    that of its own rollout bit for bit. Raises NonFinite if any of the
    states it returns is non-finite.
    """
    states, reached = starts.copy(), 0
    for n in np.unique(ns[ns > 0]):
        rows = np.flatnonzero(ns >= n)
        states[rows] = sino_model.rollout(states[rows], params, model_cfg, grid, n - reached)[:, -1]
        reached = n
    if not np.isfinite(states).all():
        raise NonFinite("a warm-up rollout diverged")
    return states


def train(
    dataset_train: TrajectoryDataset,
    dataset_val: TrajectoryDataset,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    state: TrainState | None = None,
    log_every: int = 0,
) -> TrainState:
    """Warm-up curriculum training with Adam + one-cycle, best-by-validation,
    from fresh parameters or continuing a copy of state.

    The one-cycle schedule spans train_cfg.iterations. A state from a run
    with another total continues on this total's schedule, so its history
    then holds two schedules, and it differs from a run made in one go.
    A state continues the sampler's stream by replaying its draws, which
    holds only under the seed, batch, n1 and n2 that made the state.
    """
    grid = dataset_train.grid
    if dataset_train.grid.points != model_cfg.native_points:
        raise ValueError(
            f"training grid {dataset_train.grid.points} does not match the model's "
            f"native resolution {model_cfg.native_points}"
        )
    if abs(dataset_train.cadence - model_cfg.dt_model) > 1e-9 * model_cfg.dt_model:
        raise ValueError(
            f"dataset cadence {dataset_train.cadence} must equal dt_model {model_cfg.dt_model}"
        )

    # adam_step returns new arrays, so the best parameters may share the current ones
    if state is None:
        params = sino_model.init_params(model_cfg, train_cfg.seed)
        state = TrainState(params=params, opt=adam_init(params), best_params=params)
    else:
        state = copy.deepcopy(state)
    rng = np.random.default_rng(train_cfg.seed)
    # replay the sampler so a resumed run continues the original stream
    for _ in range(train_cfg.batch * len(state.history)):
        sample_curriculum(dataset_train, train_cfg, rng)

    batch, window = train_cfg.batch, np.arange(train_cfg.n2 + 1)
    nonfinite_streak = 0
    for it in range(len(state.history), train_cfg.iterations):
        lr = onecycle_lr(it, train_cfg.iterations, train_cfg.max_lr)
        # draw the whole batch up front so the rng stream advances by a fixed
        # amount per iteration regardless of failures (resume replays it)
        traj, ns, start = np.array(
            [sample_curriculum(dataset_train, train_cfg, rng) for _ in range(batch)]).T
        # (B, n2+1, c_in, *points); frame 0 becomes the warmed-up state
        segments = dataset_train.data[traj[:, np.newaxis], (start + ns)[:, np.newaxis] + window]
        try:
            segments[:, 0] = _warm_up(dataset_train.data[traj, start], ns, state.params,
                                      model_cfg, grid)
            loss, grads = backward(state.params, model_cfg, grid, segments)
        except NonFinite:
            nonfinite_streak += 1
            if nonfinite_streak > 5:
                raise NonFinite(
                    f"{nonfinite_streak} consecutive non-finite iterations (at iteration {it + 1})"
                )
            state.history.append((it + 1, lr, float("nan"), None))
            continue
        nonfinite_streak = 0

        grads, _ = clip_global_norm(grads, GRAD_CLIP)
        state.params = adam_step(state.opt, state.params, grads, lr)

        val = None
        if (it + 1) % train_cfg.val_every == 0 or (it + 1) == train_cfg.iterations:
            val = validation_rel_l2(state.params, model_cfg, dataset_val)
            if val < state.best_val:
                state.best_val = val
                state.best_params = state.params
                state.best_iteration = it + 1
        state.history.append((it + 1, lr, loss, val))
        if log_every and (it + 1) % log_every == 0:
            v = f" val={val:.4g}" if val is not None else ""
            print(f"[train] iter {it + 1}/{train_cfg.iterations} loss={loss:.6g}{v}")

    if not math.isfinite(state.best_val):
        state.best_params = state.params
        state.best_iteration = train_cfg.iterations
    return state


def write_history_csv(history: list[tuple], path, config_hash: str) -> None:
    """History rows as CSV, written atomically: iteration, the hash of the
    run's config, lr, train_loss, val_rel_l2 (blank if absent)."""
    lines = ["iteration,config_hash,lr,train_loss,val_rel_l2"]
    for it, lr, loss, val in history:
        val_s = "" if val is None else f"{val:.17g}"
        lines.append(f"{it},{config_hash},{lr:.17g},{loss:.17g},{val_s}")
    containers.write_lines(path, lines)
