"""Command-line entry points: dataset generation, training, evaluation,
ablation and hyperparameter sweeps, and teacher-side distillation data.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import containers, evaluation, model as sino_model, training
from .config import ExperimentConfig, from_dict, load_yaml, presets
from .errors import ContainerError, NonFinite, SinoError
from .solvers import SPLIT_SEEDS, TrajectoryDataset, generate_dataset, sample_ic
from .spectral import GridSpec, spectral_resample
from .training import ResumeState, TrainConfig, train

import json


def _workers() -> int:
    try:
        return max(1, int(os.environ.get("SINO_THREADS", "1")))
    except ValueError:
        return 1


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
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.train = replace(cfg.train, seed=args.seed)
    flags = {}
    for flag in ("no_pi", "no_filter", "no_freq2vec", "no_linear"):
        if getattr(args, flag, False):
            flags[flag] = True
    if getattr(args, "euler", False):
        flags["euler_time"] = True
    if flags:
        cfg.model = replace(cfg.model, **flags)
    return cfg


def _write_manifest(out: Path, cfg: ExperimentConfig, files: list[Path]) -> None:
    """manifest.txt: the config hash, then the SHA-256 of every file."""
    lines = [f"config {cfg.config_hash()}"]
    for f in sorted(files):
        lines.append(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.name}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")


def _generate_split(cfg: ExperimentConfig, split: str, n_traj: int, out: Path) -> list[Path]:
    solver = cfg.test_solver() if split == "test" else cfg.solver
    gen_grid, train_grid = cfg.gen_grid, cfg.train_grid
    if _workers() > 1 and n_traj > 1:
        from .solvers import integrate

        def one_traj(t):
            ic = sample_ic(cfg.pde, gen_grid, SPLIT_SEEDS[split], t, cfg.grf)
            snaps = integrate(cfg.pde, solver, gen_grid, ic)
            return np.stack([spectral_resample(s, gen_grid, train_grid) for s in snaps])

        with ThreadPoolExecutor(max_workers=_workers()) as pool:
            trajs = list(pool.map(one_traj, range(n_traj)))
        ds = TrajectoryDataset(grid=train_grid, cadence=solver.save_dt, data=np.stack(trajs))
    else:
        ds = generate_dataset(
            cfg.pde, solver, gen_grid, train_grid, n_traj, split=split, grf=cfg.grf
        )
    files = []
    for t in range(n_traj):
        path = out / f"{split}_{t:03d}.sino"
        containers.write_field_container(path, train_grid, ds.cadence, ds.data[t])
        files.append(path)
    return files


def load_split(data_dir, split: str) -> TrajectoryDataset:
    """Assemble a TrajectoryDataset from the per-trajectory containers of a split."""
    data_dir = Path(data_dir)
    paths = sorted(data_dir.glob(f"{split}_*.sino"))
    if not paths:
        raise ContainerError(f"no {split} containers under {data_dir}")
    grids, cadences, blocks = [], [], []
    for p in paths:
        grid, cadence, snaps = containers.read_field_container(p)
        grids.append(grid)
        cadences.append(cadence)
        blocks.append(snaps)
    if any(g != grids[0] for g in grids) or any(abs(c - cadences[0]) > 1e-12 for c in cadences):
        raise ContainerError(f"{split} containers disagree on grid or cadence")
    return TrajectoryDataset(
        grid=grids[0], cadence=cadences[0], data=np.stack(blocks), meta={"split": split}
    )


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


def _checkpoint_tensors(params, opt=None, best_params=None, best_val=None, best_iter=None):
    tensors = {f"param.{k}": v for k, v in params.items()}
    if opt is not None:
        tensors.update({f"adam_m.{k}": v for k, v in opt.m.items()})
        tensors.update({f"adam_v.{k}": v for k, v in opt.v.items()})
        tensors["meta.step"] = np.array(float(opt.step))
    if best_params is not None:
        tensors.update({f"best.{k}": v for k, v in best_params.items()})
        tensors["meta.best_val"] = np.array(float(best_val))
        tensors["meta.best_iteration"] = np.array(float(best_iter))
    return tensors


def load_model_checkpoint(path) -> tuple[ExperimentConfig, dict[str, np.ndarray]]:
    """Config and parameter tensors from a checkpoint (best params if present)."""
    echo, tensors = containers.read_checkpoint(path)
    cfg = from_dict(json.loads(echo))
    prefix = "best." if any(k.startswith("best.") for k in tensors) else "param."
    params = {k[len(prefix):]: v for k, v in tensors.items() if k.startswith(prefix)}
    return cfg, params


def cmd_train(cfg: ExperimentConfig, resume_path=None) -> int:
    data_dir = Path(cfg.out_dir) / "data"
    ds_train = load_split(data_dir, "train")
    ds_val = load_split(data_dir, "val")
    resume = None
    if resume_path:
        echo, tensors = containers.read_checkpoint(resume_path)
        params = {k[6:]: v for k, v in tensors.items() if k.startswith("param.")}
        best = {k[5:]: v for k, v in tensors.items() if k.startswith("best.")}
        opt = training.adam_init(params, cfg.train.beta1, cfg.train.beta2, cfg.train.eps)
        opt.m = {k[7:]: v for k, v in tensors.items() if k.startswith("adam_m.")}
        opt.v = {k[7:]: v for k, v in tensors.items() if k.startswith("adam_v.")}
        opt.step = int(tensors["meta.step"])
        resume = ResumeState(
            params=params, opt_state=opt, start_iteration=opt.step,
            best_params=best or params, best_val=float(tensors.get("meta.best_val", np.inf)),
            best_iteration=int(tensors.get("meta.best_iteration", 0)),
        )
        print(f"[train] resuming from {resume_path} at iteration {opt.step}")
    result = train(ds_train, ds_val, cfg.model, cfg.train, resume=resume,
                   log_every=max(1, cfg.train.iterations // 20))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = cfg.canonical_json()
    containers.write_checkpoint(out / "ckpt_best.sino", echo,
                                _checkpoint_tensors(result.best_params))
    containers.write_checkpoint(
        out / "ckpt_last.sino", echo,
        _checkpoint_tensors(result.final_params, result.opt_state,
                            result.best_params, result.best_val, result.best_iteration),
    )
    training.write_history_csv(result.history, out / "history.csv")
    print(f"[train] best val rel_l2 {result.best_val:.6g} at iteration {result.best_iteration}")
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
    report = evaluation.evaluate_rollout(
        params, model_cfg, ds_test, train_horizon=cfg.solver.t_end
    )
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
        from .solvers import integrate
        truth = np.stack([
            spectral_resample(s, cfg.gen_grid, cfg.train_grid)
            for s in integrate(cfg.pde, solver, cfg.gen_grid, ic_gen)
        ])
        ood_set = TrajectoryDataset(grid=cfg.train_grid, cadence=solver.save_dt,
                                    data=truth[np.newaxis])
        report = evaluation.evaluate_rollout(params, model_cfg, ood_set,
                                             train_horizon=cfg.solver.t_end)
        evaluation.export_csv(report, out / f"eval_ood_{ood}.csv")
        print(f"[evaluate] OOD {ood}: rel_l2 {report.aggregate_rel_l2:.6g}")
    return 0


ABLATION_VARIANTS = ("full", "no_pi", "no_filter", "no_freq2vec", "no_linear", "euler_time")


def cmd_ablate(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    data_dir = out / "data"
    if not (data_dir / "manifest.txt").exists():
        cmd_generate(cfg)
    ds_train = load_split(data_dir, "train")
    ds_val = load_split(data_dir, "val")
    ds_test = load_split(data_dir, "test")
    rows = []
    for variant in ABLATION_VARIANTS:
        model_cfg = cfg.model if variant == "full" else replace(cfg.model, **{variant: True})
        try:
            result = train(ds_train, ds_val, model_cfg, cfg.train)
            report = evaluation.evaluate_rollout(result.best_params, model_cfg, ds_test)
            err = report.aggregate_rel_l2
            cell = "NaN" if not math.isfinite(err) or (report.failures and
                   len(report.failures) == ds_test.n_traj) else f"{err:.17g}"
            if report.failures and len(report.failures) == ds_test.n_traj:
                cell = "NaN"
        except NonFinite:
            cell = "NaN"
        rows.append((variant, cell))
        print(f"[ablate] {variant}: {cell}")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "ablation.csv", "w", newline="\n") as fh:
        fh.write("variant,rel_l2\n")
        for variant, cell in rows:
            fh.write(f"{variant},{cell}\n")
    return 0


def cmd_distill_generate(cfg: ExperimentConfig, checkpoint, n_traj: int,
                         cadence: float, t_end: float) -> int:
    ck_cfg, params = load_model_checkpoint(checkpoint)
    model_cfg = ck_cfg.model
    grid = GridSpec(points=model_cfg.native_points, length=cfg.domain_length)
    steps_per_snap = round(cadence / model_cfg.dt_model)
    if abs(steps_per_snap * model_cfg.dt_model - cadence) > 1e-9 * cadence:
        raise ValueError(
            f"synthetic cadence {cadence} must be an integer multiple of "
            f"dt_model {model_cfg.dt_model}"
        )
    n_steps = round(t_end / cadence) * steps_per_snap
    out = Path(cfg.out_dir) / "distill"
    out.mkdir(parents=True, exist_ok=True)
    files = []
    written = 0
    for t in range(n_traj):
        ic = sample_ic(cfg.pde, grid, SPLIT_SEEDS["train"] + 3, t, cfg.grf)
        try:
            snaps = sino_model.rollout(ic, params, model_cfg, grid, n_steps,
                                       record_every=steps_per_snap)
        except NonFinite as err:
            print(f"[distill] trajectory {t} skipped: {err}")
            continue
        path = out / f"distill_{written:03d}.sino"
        containers.write_field_container(path, grid, cadence, np.stack(snaps))
        files.append(path)
        written += 1
    if n_traj == 0:
        path = out / "distill_000.sino"
        containers.write_field_container(
            path, grid, cadence, np.zeros((0, model_cfg.c_in) + grid.points)
        )
        files.append(path)
    _write_manifest(out, cfg, files)
    print(f"[distill] wrote {written} synthetic trajectories to {out}")
    return 0


def cmd_sweep(cfg: ExperimentConfig, channels: str | None, embed: str | None,
              n_traj: str | None) -> int:
    out = Path(cfg.out_dir)
    data_dir = out / "data"
    if not (data_dir / "manifest.txt").exists():
        cmd_generate(cfg)
    ds_train_full = load_split(data_dir, "train")
    ds_val = load_split(data_dir, "val")
    ds_test = load_split(data_dir, "test")

    points = []
    if n_traj:
        for n in (int(x) for x in n_traj.split(",")):
            points.append({"n_traj": n})
    else:
        cs = [int(x) for x in channels.split(",")] if channels else [cfg.model.C]
        ks = [int(x) for x in embed.split(",")] if embed else [cfg.model.K]
        for c in cs:
            for k in ks:
                points.append({"C": c, "K": k})

    rows = []
    for point in points:
        model_cfg = cfg.model
        ds_train = ds_train_full
        label = ",".join(f"{k}={v}" for k, v in point.items())
        if "n_traj" in point:
            n = point["n_traj"]
            if n > ds_train_full.n_traj:
                rows.append((label, "", "NaN"))
                continue
            ds_train = TrajectoryDataset(grid=ds_train_full.grid, cadence=ds_train_full.cadence,
                                         data=ds_train_full.data[:n])
        else:
            model_cfg = replace(cfg.model, C=point["C"], K=point["K"])
        sub_cfg = replace_experiment_model(cfg, model_cfg)
        try:
            result = train(ds_train, ds_val, model_cfg, cfg.train)
            report = evaluation.evaluate_rollout(result.best_params, model_cfg, ds_test)
            cell = f"{report.aggregate_rel_l2:.17g}"
        except (NonFinite, SinoError):
            cell = "NaN"
        rows.append((label, sub_cfg.config_hash(), cell))
        print(f"[sweep] {label}: {cell}")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w", newline="\n") as fh:
        fh.write("point,config_hash,rel_l2\n")
        for label, h, cell in rows:
            fh.write(f"\"{label}\",{h},{cell}\n")
    return 0


def replace_experiment_model(cfg: ExperimentConfig, model_cfg) -> ExperimentConfig:
    clone = ExperimentConfig(**{**cfg.__dict__})
    clone.model = model_cfg
    return clone


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sino", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML experiment config")
        p.add_argument("--preset", help="case preset id (E1..E7, E1-desk..E7-desk)")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--no-pi", dest="no_pi", action="store_true")
        p.add_argument("--no-filter", dest="no_filter", action="store_true")
        p.add_argument("--no-freq2vec", dest="no_freq2vec", action="store_true")
        p.add_argument("--no-linear", dest="no_linear", action="store_true")
        p.add_argument("--euler", action="store_true")

    common(sub.add_parser("generate", help="simulate and write train/val/test datasets"))

    p_train = sub.add_parser("train", help="train on generated datasets")
    common(p_train)
    p_train.add_argument("--resume", help="continue from a ckpt_last.sino")

    p_eval = sub.add_parser("evaluate", help="full-horizon test evaluation")
    common(p_eval)
    p_eval.add_argument("--checkpoint", help="checkpoint path (default out/ckpt_best.sino)")
    p_eval.add_argument("--superres", type=int, default=0,
                        help="also evaluate at this multiple of the training resolution")
    p_eval.add_argument("--ood", choices=("star", "smiley", "ai"),
                        help="evaluate an out-of-distribution pattern initial condition")

    common(sub.add_parser("ablate", help="train and score the six architecture variants"))

    p_dist = sub.add_parser("distill-generate", help="synthetic data from a trained teacher")
    common(p_dist)
    p_dist.add_argument("--checkpoint", required=True)
    p_dist.add_argument("--n-traj", type=int, required=True)
    p_dist.add_argument("--cadence", type=float, required=True,
                        help="snapshot spacing of the synthetic data (s)")
    p_dist.add_argument("--t-end", type=float, required=True)

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
        if args.command == "distill-generate":
            return cmd_distill_generate(cfg, args.checkpoint, args.n_traj,
                                        args.cadence, args.t_end)
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
