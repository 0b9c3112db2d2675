"""Command-line entry points: dataset generation, training, evaluation,
ablation and hyperparameter sweeps.

A run takes a case preset (--preset) or a YAML config (--config). The YAML
schema is the dataclass field names: the top-level keys are the fields of
config.ExperimentConfig, and pde, solver, model and train hold the fields of
PDESpec, SolverConfig, ModelConfig and TrainConfig. Lists become tuples, a
missing field takes its dataclass default, and an unknown key or a missing
required one is a validation error. For example:

    case: burgers-16
    pde: {kind: burgers, nu: 0.01}
    domain_length: [6.283185307179586, 6.283185307179586]
    gen_points: [32, 32]
    train_points: [16, 16]
    solver: {dt: 0.001, t_end: 0.5, save_dt: 0.005}
    model: {c_in: 2, K: 4, C: 16, dt_model: 0.005, freq_norm: [8, 8]}
    train: {iterations: 200}
    out_dir: runs/burgers-16

Exit codes: 0 success, 2 validation error (including a malformed config),
3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import containers, evaluation, training
from .config import ExperimentConfig, from_dict, load_yaml, presets
from .errors import ContainerError, NonFinite, SinoError
from .model import ABLATION_FLAGS
from .solvers import TrajectoryDataset, generate_dataset, simulate
from .spectral import GridSpec, spectral_resample
from .training import TrainState, train


def _resolve_config(args) -> ExperimentConfig:
    if args.preset and args.config:
        raise ValueError("pass either --preset or --config, not both")
    if args.preset:
        table = presets()
        if args.preset not in table:
            raise ValueError(f"unknown preset {args.preset!r}; choose from {sorted(table)}")
        cfg = table[args.preset]
    elif args.config:
        cfg = load_yaml(args.config)
    else:
        raise ValueError("one of --preset or --config is required")
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    if args.seed is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=args.seed))
    flags = {flag: True for flag in ABLATION_FLAGS if getattr(args, flag)}
    if flags:
        cfg = replace(cfg, model=replace(cfg.model, **flags))
    return cfg


def _write_manifest(out: Path, cfg: ExperimentConfig, files: list[Path]) -> None:
    """manifest.txt: the config hash, then the SHA-256 of every file."""
    lines = [f"config {cfg.config_hash()}"]
    for f in sorted(files):
        lines.append(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.name}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")


def _generate_split(cfg: ExperimentConfig, split: str, n_traj: int, out: Path) -> list[Path]:
    solver = cfg.test_solver() if split == "test" else cfg.solver
    ds = generate_dataset(cfg.pde, solver, cfg.gen_grid, cfg.train_grid, n_traj,
                          split=split, grf=cfg.grf)
    files = []
    for t, snaps in enumerate(ds.data):
        path = out / f"{split}_{t:03d}.sino"
        containers.write_field_container(path, cfg.train_grid, ds.cadence, snaps)
        files.append(path)
    return files


def load_split(data_dir, split: str) -> TrajectoryDataset:
    """Assemble a TrajectoryDataset from the per-trajectory containers of a split."""
    data_dir = Path(data_dir)
    paths = sorted(data_dir.glob(f"{split}_*.sino"))
    if not paths:
        raise ContainerError(f"no {split} containers under {data_dir}")
    read = [containers.read_field_container(p) for p in paths]
    grid, cadence, first = read[0]
    for p, (g, c, snaps) in zip(paths, read):
        if g != grid or abs(c - cadence) > 1e-12 or snaps.shape != first.shape:
            raise ContainerError(f"{split} containers disagree on grid, cadence or shape: "
                                 f"{p.name} against {paths[0].name}")
    return TrajectoryDataset(grid=grid, cadence=cadence, data=np.stack([r[2] for r in read]))


def cmd_generate(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir) / "data"
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for split, n in (("train", cfg.n_train), ("val", cfg.n_val), ("test", cfg.n_test)):
        files += _generate_split(cfg, split, n, out)
        print(f"[generate] {split}: {n} trajectories")
    _write_manifest(out, cfg, files)
    print(f"[generate] wrote {len(files)} containers to {out}")
    return 0


def _read_checkpoint(path) -> tuple[ExperimentConfig, dict[str, np.ndarray]]:
    """The config echo and the tensors of a checkpoint."""
    echo, tensors = containers.read_checkpoint(path)
    try:
        return from_dict(json.loads(echo)), tensors
    except ValueError as err:
        raise ValueError(f"{path}: the checkpoint's config echo is from another config "
                         f"schema than this version's: {err}") from err


def load_model_checkpoint(path) -> tuple[ExperimentConfig, dict[str, np.ndarray]]:
    """Config and parameter tensors from a checkpoint (best params if present)."""
    cfg, tensors = _read_checkpoint(path)
    return cfg, training.params_from_tensors(tensors)


def _resume_state(cfg: ExperimentConfig, path) -> tuple[ExperimentConfig, TrainState]:
    """The config echo and the training state of a ckpt_last.sino written
    for the run's model."""
    ck_cfg, tensors = _read_checkpoint(path)
    ck_model = ck_cfg.model
    changed = [f"model.{f.name}" for f in fields(cfg.model)
               if getattr(ck_model, f.name) != getattr(cfg.model, f.name)]
    if changed:
        raise ValueError(f"{path} was trained with a different model: "
                         f"{', '.join(changed)} differ")
    return ck_cfg, TrainState.from_tensors(tensors)


def cmd_train(cfg: ExperimentConfig, resume_path=None) -> int:
    out = Path(cfg.out_dir)
    ds_train = load_split(out / "data", "train")
    ds_val = load_split(out / "data", "val")
    state = None
    if resume_path:
        ck_cfg, state = _resume_state(cfg, resume_path)
        print(f"[train] resuming from {resume_path} after iteration {len(state.history)}")
        if ck_cfg.train.iterations != cfg.train.iterations:
            print(f"[train] the checkpoint's run has {ck_cfg.train.iterations} iterations and "
                  f"this one {cfg.train.iterations}: the remaining iterations follow the "
                  f"one-cycle schedule of {cfg.train.iterations}, so the history holds two")
    state = train(ds_train, ds_val, cfg.model, cfg.train, state,
                  log_every=max(1, cfg.train.iterations // 20))
    echo = cfg.canonical_json()
    containers.write_checkpoint(out / "ckpt_best.sino", echo,
                                training.params_to_tensors(state.best_params))
    containers.write_checkpoint(out / "ckpt_last.sino", echo, state.to_tensors())
    training.write_history_csv(state.history, out / "history.csv")
    print(f"[train] best val rel_l2 {state.best_val:.6g} at iteration {state.best_iteration}")
    return 0


def cmd_evaluate(cfg: ExperimentConfig, checkpoint=None, superres: int = 0,
                 ood: str | None = None) -> int:
    out = Path(cfg.out_dir)
    ckpt = Path(checkpoint) if checkpoint else out / "ckpt_best.sino"
    ck_cfg, params = load_model_checkpoint(ckpt)
    if tuple(ck_cfg.model.freq_norm) != tuple(cfg.model.freq_norm):
        raise ValueError(
            f"checkpoint native grid {ck_cfg.model.native_points} does not match "
            f"configured training grid {cfg.train_grid.points}"
        )
    model_cfg = ck_cfg.model
    ds_test = load_split(out / "data", "test")
    report = evaluation.evaluate_rollout(params, model_cfg, ds_test)
    evaluation.export_csv(report, out / "eval_test.csv")
    print(f"[evaluate] aggregate rel_l2 {report.aggregate_rel_l2:.6g} "
          f"({len(report.failures or [])} failures)")
    if superres:
        fine_points = tuple(n * superres for n in cfg.train_points)
        fine_grid = GridSpec(points=fine_points, length=cfg.domain_length)
        solver = cfg.test_solver()
        fine = generate_dataset(cfg.pde, solver, cfg.gen_grid, fine_grid,
                                cfg.n_test, split="test", grf=cfg.grf)
        pair = evaluation.superres_eval(params, model_cfg, fine)
        evaluation.export_csv(pair["fine"], out / f"eval_superres_x{superres}.csv")
        print(f"[evaluate] superres x{superres}: native {pair['native'].aggregate_rel_l2:.6g} "
              f"fine {pair['fine'].aggregate_rel_l2:.6g}")
    if ood:
        raster = evaluation.builtin_raster(ood)
        ic = evaluation.pattern_ic(evaluation.PatternIC(raster=raster, grid=cfg.train_grid))
        if cfg.pde.channels != 1:
            ic = np.repeat(ic, cfg.pde.channels, axis=0)
        solver = cfg.test_solver()
        ic_gen = spectral_resample(ic, cfg.train_grid, cfg.gen_grid)
        truth = simulate(cfg.pde, solver, cfg.gen_grid, cfg.train_grid, ic_gen)
        ood_set = TrajectoryDataset(grid=cfg.train_grid, cadence=solver.save_dt,
                                    data=truth[np.newaxis])
        report = evaluation.evaluate_rollout(params, model_cfg, ood_set)
        evaluation.export_csv(report, out / f"eval_ood_{ood}.csv")
        print(f"[evaluate] OOD {ood}: rel_l2 {report.aggregate_rel_l2:.6g}")
    return 0


def _load_splits(cfg: ExperimentConfig) -> list[TrajectoryDataset]:
    """The train, val and test splits under out_dir/data, generated first if absent."""
    data_dir = Path(cfg.out_dir) / "data"
    if not (data_dir / "manifest.txt").exists():
        cmd_generate(cfg)
    return [load_split(data_dir, split) for split in ("train", "val", "test")]


def _train_and_score(cfg: ExperimentConfig, ds_train, ds_val, ds_test) -> str:
    """Train, then score the best parameters on the test split: the pooled
    rel-l2 as a CSV cell, or NaN if training or every test rollout diverged."""
    try:
        state = train(ds_train, ds_val, cfg.model, cfg.train)
    except NonFinite:
        return "NaN"
    err = evaluation.evaluate_rollout(state.best_params, cfg.model, ds_test).aggregate_rel_l2
    return f"{err:.17g}" if math.isfinite(err) else "NaN"


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([header] + rows) + "\n")


def cmd_ablate(cfg: ExperimentConfig) -> int:
    ds_train, ds_val, ds_test = _load_splits(cfg)
    rows = []
    for variant in ("full",) + ABLATION_FLAGS:
        flags = {} if variant == "full" else {variant: True}
        cell = _train_and_score(replace(cfg, model=replace(cfg.model, **flags)),
                                ds_train, ds_val, ds_test)
        rows.append(f"{variant},{cell}")
        print(f"[ablate] {variant}: {cell}")
    _write_csv(Path(cfg.out_dir) / "ablation.csv", "variant,rel_l2", rows)
    return 0


def _positive_ints(option: str, text: str) -> list[int]:
    """The values of a comma-list option, each a positive integer."""
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{option} must be a comma list of integers, got {text!r}") from None
    if any(v < 1 for v in values):
        raise ValueError(f"{option} entries must be >= 1, got {text!r}")
    return values


def cmd_sweep(cfg: ExperimentConfig, channels: str | None, embed: str | None,
              n_traj: str | None) -> int:
    if n_traj and (channels or embed):
        raise ValueError("--n-traj sweeps the training-set size alone; "
                         "it cannot be combined with --channels or --embed")
    ns = _positive_ints("--n-traj", n_traj) if n_traj else []
    cs = _positive_ints("--channels", channels) if channels else [cfg.model.C]
    ks = _positive_ints("--embed", embed) if embed else [cfg.model.K]
    ds_train, ds_val, ds_test = _load_splits(cfg)
    points = []  # (label, config, training set or None if the split is too small)
    if ns:
        for n in ns:
            subset = None
            if n <= ds_train.n_traj:
                subset = TrajectoryDataset(grid=ds_train.grid, cadence=ds_train.cadence,
                                           data=ds_train.data[:n])
            points.append((f"n_traj={n}", replace(cfg, n_train=n), subset))
    else:
        for c in cs:
            for k in ks:
                points.append((f"C={c},K={k}", replace(cfg, model=replace(cfg.model, C=c, K=k)),
                               ds_train))
    rows = []
    for label, point_cfg, subset in points:
        cell = "NaN" if subset is None else _train_and_score(point_cfg, subset, ds_val, ds_test)
        rows.append(f"\"{label}\",{point_cfg.config_hash()},{cell}")
        print(f"[sweep] {label}: {cell}")
    _write_csv(Path(cfg.out_dir) / "sweep.csv", "point,config_hash,rel_l2", rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sino", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML experiment config")
        p.add_argument("--preset", help="case preset id (E1..E7, E1-desk..E7-desk)")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--seed", type=int, default=None,
                       help="training seed: parameter init and curriculum sampling")
        for flag in ABLATION_FLAGS:
            option = "--euler" if flag == "euler_time" else "--" + flag.replace("_", "-")
            p.add_argument(option, dest=flag, action="store_true")

    common(sub.add_parser("generate", help="simulate and write train/val/test datasets"))

    p_train = sub.add_parser("train", help="train on generated datasets")
    common(p_train)
    p_train.add_argument("--resume", help="continue from a ckpt_last.sino; under another "
                         "train.iterations the remaining iterations follow the new total's "
                         "one-cycle schedule")

    p_eval = sub.add_parser("evaluate", help="full-horizon test evaluation")
    common(p_eval)
    p_eval.add_argument("--checkpoint", help="checkpoint path (default out/ckpt_best.sino)")
    p_eval.add_argument("--superres", type=int, default=0,
                        help="also evaluate at this multiple of the training resolution")
    p_eval.add_argument("--ood", choices=("star", "smiley", "ai"),
                        help="evaluate an out-of-distribution pattern initial condition")

    common(sub.add_parser("ablate", help="train and score the six architecture variants"))

    p_sweep = sub.add_parser("sweep", help="grid over C x K or training-set size")
    common(p_sweep)
    p_sweep.add_argument("--channels", help="comma list of C values")
    p_sweep.add_argument("--embed", help="comma list of K values")
    p_sweep.add_argument("--n-traj", dest="sweep_n_traj", help="comma list of trajectory counts")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "train":
            return cmd_train(cfg, resume_path=args.resume)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, checkpoint=args.checkpoint,
                                superres=args.superres, ood=args.ood)
        if args.command == "ablate":
            return cmd_ablate(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.channels, args.embed, args.sweep_n_traj)
        raise ValueError(f"unknown command {args.command!r}")
    except NonFinite as err:
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return 3
    except (OSError, ContainerError) as err:
        print(f"error: I/O: {err}", file=sys.stderr)
        return 4
    except (ValueError, SinoError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
