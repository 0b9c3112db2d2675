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

A run keeps one checkpoint, ckpt_last.sino: its config echo and its whole
training state. evaluate scores the checkpoint's best parameters under its
echo; --config, --preset and --out only locate the run directory. It scores
the test split (eval_test.csv). --superres N, N >= 2, also generates the
run's test ICs stored at N times the training resolution and scores them
(eval_superres_xN.csv); it prints that fine score beside the test-set score
as native. --ood NAME scores one 2D pattern IC (eval_ood_NAME.csv).
generate and evaluate train nothing, so they take neither --seed nor an
ablation flag; ablate trains every variant itself, so it takes no flag.

Every CSV a job writes (history.csv, eval_*.csv, ablation.csv, sweep.csv)
has a config_hash column: the hash of the config that produced the row,
which leaves out out_dir, so a run copied or repeated elsewhere keeps its
hash. A train run's rows carry the run's config, the hash manifest.txt
records when generate ran under it, and an evaluate run's rows carry the
hash of the checkpoint's run. A resumed train rewrites history.csv with its own
hash on every row, the resumed rows included, as its checkpoint echoes
only its own config. An ablate or sweep row carries its own variant's or
point's config.

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
from .model import ABLATION_FLAGS, _param_shapes
from .solvers import TrajectoryDataset, generate_dataset
from .spectral import GridSpec
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
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=args.seed))
    flags = {flag: True for flag in ABLATION_FLAGS if getattr(args, flag, False)}
    if flags:
        cfg = replace(cfg, model=replace(cfg.model, **flags))
    return cfg


def _write_manifest(out: Path, cfg: ExperimentConfig, files: list[Path]) -> None:
    """manifest.txt: the config hash, then the SHA-256 of every file."""
    lines = [f"config {cfg.config_hash()}"]
    for f in sorted(files):
        lines.append(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.name}")
    containers.write_lines(out / "manifest.txt", lines)


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
    data = None
    for i, p in enumerate(paths):
        g, c, snaps = containers.read_field_container(p)
        if data is None:
            grid, cadence = g, c
            data = np.empty((len(paths),) + snaps.shape, snaps.dtype)
        elif g != grid or abs(c - cadence) > 1e-12 or snaps.shape != data.shape[1:]:
            raise ContainerError(f"{split} containers disagree on grid, cadence or shape: "
                                 f"{p.name} against {paths[0].name}")
        # the split is held once: each container goes to its slot and is dropped
        # before the next is read
        data[i] = snaps
        del snaps
    return TrajectoryDataset(grid=grid, cadence=cadence, data=data)


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


def _read_checkpoint(path) -> tuple[ExperimentConfig, TrainState]:
    """The config echo and the training state of a run's checkpoint, if it fits the echo."""
    echo, tensors = containers.read_checkpoint(path)
    try:
        cfg = from_dict(json.loads(echo))
    except ValueError as err:
        raise ValueError(f"{path}: the checkpoint's config echo is from another config "
                         f"schema than this version's: {err}") from err
    state, shapes = TrainState.from_tensors(tensors), _param_shapes(cfg.model)
    for prefix in ("param.", "best.", "adam_m.", "adam_v."):
        got = {k[len(prefix):]: v.shape for k, v in tensors.items() if k.startswith(prefix)}
        wrong = sorted({prefix + k for k, _ in shapes.items() ^ got.items()})
        if wrong:
            raise ContainerError(f"{path}: the checkpoint's tensors {', '.join(wrong)} are "
                                 "missing, extra or misshapen for its echoed model")
    return cfg, state


def _resume_state(cfg: ExperimentConfig, path) -> tuple[ExperimentConfig, TrainState]:
    """The config echo and the training state of a ckpt_last.sino written
    for the run's model and curriculum sampler: train replays the sampler's
    draws, which continues the original stream only under the same seed,
    batch, n1 and n2."""
    ck_cfg, state = _read_checkpoint(path)
    changed = [f"model.{f.name}" for f in fields(cfg.model)
               if getattr(ck_cfg.model, f.name) != getattr(cfg.model, f.name)]
    changed += [f"train.{name}" for name in ("seed", "batch", "n1", "n2")
                if getattr(ck_cfg.train, name) != getattr(cfg.train, name)]
    if changed:
        raise ValueError(f"{path} was trained with a different model or sampler: "
                         f"{', '.join(changed)} differ")
    return ck_cfg, state


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
    containers.write_checkpoint(out / "ckpt_last.sino", cfg.canonical_json(), state.to_tensors())
    training.write_history_csv(state.history, out / "history.csv", cfg.config_hash())
    print(f"[train] best val rel_l2 {state.best_val:.6g} at iteration {state.best_iteration}")
    return 0


def cmd_evaluate(cfg: ExperimentConfig, checkpoint=None, superres: int = 0,
                 ood: str | None = None) -> int:
    if superres < 0 or superres == 1:
        # N = 1 is the training grid: its score is eval_test.csv's
        raise ValueError(f"--superres must be 0 or >= 2, got {superres}")
    out = Path(cfg.out_dir)
    run, state = _read_checkpoint(checkpoint or out / "ckpt_last.sino")
    if ood and run.pde.dim != 2:
        raise ValueError(f"--ood: pattern initial conditions are 2D; the run is {run.pde.dim}D")
    if superres > 1 and run.model.no_freq2vec:
        raise ValueError(f"--superres {superres}: the free multiplier table of a no_freq2vec "
                         f"run is bound to its native resolution {run.train_points}")
    ds_test = load_split(out / "data", "test")
    if ds_test.grid != run.train_grid:
        raise ValueError(f"the test split's grid {ds_test.grid} is not the run's training "
                         f"grid {run.train_grid}")
    params, run_hash = state.best_params, run.config_hash()
    report = evaluation.evaluate_rollout(params, run.model, ds_test)
    evaluation.export_csv(report, out / "eval_test.csv", run_hash)
    print(f"[evaluate] aggregate rel_l2 {report.aggregate_rel_l2:.6g} "
          f"({len(report.failures)} failures)")
    if superres:
        # the test split's ICs and solver, stored on the finer grid
        fine_grid = GridSpec(points=tuple(n * superres for n in run.train_points),
                             length=run.domain_length)
        fine = generate_dataset(run.pde, run.test_solver(), run.gen_grid, fine_grid,
                                run.n_test, split="test", grf=run.grf)
        fine_report = evaluation.evaluate_rollout(params, run.model, fine)
        evaluation.export_csv(fine_report, out / f"eval_superres_x{superres}.csv", run_hash)
        print(f"[evaluate] superres x{superres}: native {report.aggregate_rel_l2:.6g} "
              f"fine {fine_report.aggregate_rel_l2:.6g}")
    if ood:
        ood_set = evaluation.pattern_test_set(ood, run.pde, run.test_solver(), run.gen_grid,
                                              run.train_grid)
        report = evaluation.evaluate_rollout(params, run.model, ood_set)
        evaluation.export_csv(report, out / f"eval_ood_{ood}.csv", run_hash)
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
    rel-l2 as a CSV cell, or NaN if training or any test rollout diverged."""
    try:
        state = train(ds_train, ds_val, cfg.model, cfg.train)
    except NonFinite:
        return "NaN"
    report = evaluation.evaluate_rollout(state.best_params, cfg.model, ds_test)
    err = report.aggregate_rel_l2
    return f"{err:.17g}" if math.isfinite(err) and not report.failures else "NaN"


def cmd_ablate(cfg: ExperimentConfig) -> int:
    ds_train, ds_val, ds_test = _load_splits(cfg)
    rows = ["variant,config_hash,rel_l2"]
    for variant in ("full",) + ABLATION_FLAGS:
        flags = {} if variant == "full" else {variant: True}
        variant_cfg = replace(cfg, model=replace(cfg.model, **flags))
        cell = _train_and_score(variant_cfg, ds_train, ds_val, ds_test)
        rows.append(f"{variant},{variant_cfg.config_hash()},{cell}")
        print(f"[ablate] {variant}: {cell}")
    containers.write_lines(Path(cfg.out_dir) / "ablation.csv", rows)
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
    rows = ["point,config_hash,rel_l2"]
    for label, point_cfg, subset in points:
        cell = "NaN" if subset is None else _train_and_score(point_cfg, subset, ds_val, ds_test)
        rows.append(f"\"{label}\",{point_cfg.config_hash()},{cell}")
        print(f"[sweep] {label}: {cell}")
    containers.write_lines(Path(cfg.out_dir) / "sweep.csv", rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sino", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, ablation_flags=True):
        p.add_argument("--config", help="YAML experiment config")
        p.add_argument("--preset", help="case preset id (E1..E7, E1-desk..E7-desk)")
        p.add_argument("--out", help="output directory override")
        # generate and evaluate train nothing; ablate sets each flag itself
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="training seed: parameter init and curriculum sampling")
        for flag in ABLATION_FLAGS if ablation_flags else ():
            option = "--euler" if flag == "euler_time" else "--" + flag.replace("_", "-")
            p.add_argument(option, dest=flag, action="store_true")

    common(sub.add_parser("generate", help="simulate and write train/val/test datasets"),
           seed=False, ablation_flags=False)

    p_train = sub.add_parser("train", help="train on generated datasets")
    common(p_train)
    p_train.add_argument("--resume", help="continue from a ckpt_last.sino of the same model "
                         "and train.seed, batch, n1 and n2; under another train.iterations the "
                         "remaining iterations follow the new total's one-cycle schedule")

    p_eval = sub.add_parser("evaluate", help="full-horizon test evaluation")
    common(p_eval, seed=False, ablation_flags=False)
    p_eval.add_argument("--checkpoint", help="checkpoint path (default out/ckpt_last.sino); "
                        "its best parameters are scored under its run's config")
    p_eval.add_argument("--superres", type=int, default=0,
                        help="also score the test ICs at this multiple N >= 2 of the training "
                        "resolution; the native score printed beside it is the test-set score")
    p_eval.add_argument("--ood", choices=("star", "smiley", "ai"),
                        help="evaluate an out-of-distribution pattern initial condition")

    common(sub.add_parser("ablate", help="train and score the six architecture variants"),
           ablation_flags=False)

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
