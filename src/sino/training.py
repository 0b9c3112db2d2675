"""Training: exact reverse-mode gradients of the rollout loss, Adam with a
one-cycle schedule, and the warm-up curriculum loop.

Each iteration samples a window along a training trajectory, evolves the
model n in {0..n1} steps without gradients (warm-up), then predicts n2
steps with gradients against the ground-truth frames. Model selection is
by full-horizon validation error.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import engine as eg
from . import evaluation
from . import model as sino_model
from .engine import Tensor
from .errors import InsufficientLength, NonFinite
from .model import ModelConfig
from .solvers import TrajectoryDataset
from .spectral import GridSpec

# Adam's moment decay rates and denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    iterations: int
    max_lr: float = 0.01
    n1: int = 4
    n2: int = 8
    batch: int = 1
    grad_clip: float = 1.0
    seed: int = 0
    val_every: int = 200
    warmup_frac: float = 0.3
    div_factor: float = 25.0
    final_div_factor: float = 1e4

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.n1 < 0 or self.n2 < 1:
            raise ValueError("need n1 >= 0 and n2 >= 1")
        if self.batch < 1 or self.val_every < 1:
            raise ValueError("batch and val_every must be >= 1")
        for name in ("max_lr", "grad_clip", "div_factor", "final_div_factor"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.warmup_frac <= 1.0:
            raise ValueError(f"warmup_frac must lie in [0, 1], got {self.warmup_frac}")


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


def onecycle_lr(
    step: int,
    total: int,
    max_lr: float,
    warmup_frac: float = 0.3,
    div_factor: float = 25.0,
    final_div_factor: float = 1e4,
) -> float:
    """Cosine one-cycle: max_lr/div -> max_lr over the warmup fraction, then
    anneal to max_lr/final_div."""
    if not 0 <= step < total:
        raise ValueError(f"step {step} outside [0, {total})")
    peak = warmup_frac * total
    if step <= peak:
        lo = max_lr / div_factor
        t = step / peak if peak > 0 else 1.0
        return lo + (max_lr - lo) * 0.5 * (1.0 - math.cos(math.pi * t))
    lo = max_lr / final_div_factor
    t = (step - peak) / (total - peak)
    return lo + (max_lr - lo) * 0.5 * (1.0 + math.cos(math.pi * t))


def sample_curriculum(
    dataset: TrajectoryDataset, cfg: TrainConfig, rng: np.random.Generator
) -> tuple[np.ndarray, int, np.ndarray]:
    """Pick (trajectory, warm-up length n, start) uniformly.

    Returns the state at the start index (the trainer warm-ups from it
    without gradients), the sampled n, and the n2+1 ground-truth frames
    starting at start+n.
    """
    need = cfg.n1 + cfg.n2 + 1
    if dataset.n_snapshots < need:
        raise InsufficientLength(
            f"trajectories have {dataset.n_snapshots} snapshots; curriculum needs {need}"
        )
    traj = int(rng.integers(dataset.n_traj))
    n = int(rng.integers(cfg.n1 + 1))
    hi = dataset.n_snapshots - 1 - n - cfg.n2
    start = int(rng.integers(hi + 1))
    frames = dataset.data[traj, start + n : start + n + cfg.n2 + 1]
    return dataset.data[traj, start].copy(), n, frames


# -- rollout loss -------------------------------------------------------------


def _rollout_loss_graph(
    pt: dict[str, Tensor],
    model_cfg: ModelConfig,
    grid: GridSpec,
    segment: list[np.ndarray] | np.ndarray,
) -> Tensor:
    table = sino_model._freq2vec(pt, model_cfg, grid)
    state = Tensor(np.asarray(segment[0], dtype=np.float64))
    step_losses = []
    for target in segment[1:]:
        state = sino_model._step(state, table, pt, model_cfg, grid)
        if not np.isfinite(state.data).all():
            raise NonFinite(f"rollout diverged at supervised step {len(step_losses) + 1}")
        diff = eg.sub(state, Tensor(np.asarray(target, dtype=np.float64)))
        step_losses.append(eg.mean_all(eg.mul(diff, diff)))
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
    """Mean per-step squared error of an n-step rollout from segment[0] vs segment[1:]."""
    with eg.no_grad():
        pt = sino_model._wrap_params(params, False)
        return float(_rollout_loss_graph(pt, model_cfg, grid, segment).data)


def backward(
    params: dict[str, np.ndarray],
    model_cfg: ModelConfig,
    grid: GridSpec,
    segment,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and its exact gradient with respect to every parameter tensor."""
    pt = sino_model._wrap_params(params, True)
    loss = _rollout_loss_graph(pt, model_cfg, grid, segment)
    loss.backward()
    bundle = {
        name: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for name, t in pt.items()
    }
    return float(loss.data), bundle


# -- training loop ------------------------------------------------------------


@dataclass
class TrainResult:
    best_params: dict[str, np.ndarray]
    history: list[tuple]  # (iteration, lr, train_loss, val_rel_l2 | None)
    best_val: float
    best_iteration: int
    final_params: dict[str, np.ndarray]
    opt_state: OptimizerState


@dataclass
class ResumeState:
    params: dict[str, np.ndarray]
    opt_state: OptimizerState
    start_iteration: int
    best_params: dict[str, np.ndarray]
    best_val: float
    best_iteration: int


def validation_rel_l2(
    params: dict[str, np.ndarray],
    model_cfg: ModelConfig,
    dataset: TrajectoryDataset,
) -> float:
    """Full-horizon pooled relative l2 over all validation trajectories
    (evaluation.evaluate_rollout), or inf if any of them diverged."""
    report = evaluation.evaluate_rollout(params, model_cfg, dataset)
    return float("inf") if report.failures else report.aggregate_rel_l2


def train(
    dataset_train: TrajectoryDataset,
    dataset_val: TrajectoryDataset,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    resume: ResumeState | None = None,
    log_every: int = 0,
) -> TrainResult:
    """Warm-up curriculum training with Adam + one-cycle, best-by-validation."""
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

    rng = np.random.default_rng(train_cfg.seed)
    if resume is not None:
        params = copy.deepcopy(resume.params)
        opt = resume.opt_state
        start = resume.start_iteration
        best_params = copy.deepcopy(resume.best_params)
        best_val = resume.best_val
        best_iteration = resume.best_iteration
        # replay the sampler so a resumed run continues the original stream
        for _ in range(train_cfg.batch * start):
            sample_curriculum(dataset_train, train_cfg, rng)
    else:
        params = sino_model.init_params(model_cfg, train_cfg.seed)
        opt = adam_init(params)
        start = 0
        best_params = copy.deepcopy(params)
        best_val = float("inf")
        best_iteration = 0

    history: list[tuple] = []
    nonfinite_streak = 0
    for it in range(start, train_cfg.iterations):
        lr = onecycle_lr(
            it, train_cfg.iterations, train_cfg.max_lr,
            train_cfg.warmup_frac, train_cfg.div_factor, train_cfg.final_div_factor,
        )
        loss_acc = 0.0
        grads_acc: dict[str, np.ndarray] | None = None
        failed = False
        # draw the whole batch up front so the rng stream advances by a fixed
        # amount per iteration regardless of failures (resume replays it)
        samples = [sample_curriculum(dataset_train, train_cfg, rng) for _ in range(train_cfg.batch)]
        for start_state, n, frames in samples:
            try:
                if n > 0:
                    start_state = sino_model.rollout(
                        start_state, params, model_cfg, grid, n, record_every=n
                    )[-1]
                segment = np.concatenate([start_state[np.newaxis], frames[1:]])
                loss, bundle = backward(params, model_cfg, grid, segment)
            except NonFinite:
                failed = True
                break
            loss_acc += loss / train_cfg.batch
            if grads_acc is None:
                grads_acc = {k: g / train_cfg.batch for k, g in bundle.items()}
            else:
                for k, g in bundle.items():
                    grads_acc[k] += g / train_cfg.batch

        if failed or grads_acc is None:
            nonfinite_streak += 1
            if nonfinite_streak > 5:
                raise NonFinite(
                    f"{nonfinite_streak} consecutive non-finite iterations (at iteration {it + 1})"
                )
            history.append((it + 1, lr, float("nan"), None))
            continue
        nonfinite_streak = 0

        grads_acc, _ = clip_global_norm(grads_acc, train_cfg.grad_clip)
        params = adam_step(opt, params, grads_acc, lr)

        val = None
        if (it + 1) % train_cfg.val_every == 0 or (it + 1) == train_cfg.iterations:
            val = validation_rel_l2(params, model_cfg, dataset_val)
            if val < best_val:
                best_val = val
                best_params = copy.deepcopy(params)
                best_iteration = it + 1
        history.append((it + 1, lr, loss_acc, val))
        if log_every and (it + 1) % log_every == 0:
            v = f" val={val:.4g}" if val is not None else ""
            print(f"[train] iter {it + 1}/{train_cfg.iterations} loss={loss_acc:.6g}{v}")

    if not math.isfinite(best_val):
        best_params = copy.deepcopy(params)
        best_iteration = train_cfg.iterations
    return TrainResult(
        best_params=best_params,
        history=history,
        best_val=best_val,
        best_iteration=best_iteration,
        final_params=params,
        opt_state=opt,
    )


def write_history_csv(history: list[tuple], path) -> None:
    """History rows as CSV: iteration, lr, train_loss, val_rel_l2 (blank if absent)."""
    lines = ["iteration,lr,train_loss,val_rel_l2"]
    for it, lr, loss, val in history:
        val_s = "" if val is None else f"{val:.17g}"
        lines.append(f"{it},{lr:.17g},{loss:.17g},{val_s}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
