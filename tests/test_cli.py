import csv
import json
import shutil
import textwrap
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from sino import cli, evaluation, training
from sino.config import load_yaml, presets
from sino.containers import (
    read_checkpoint,
    read_field_container,
    write_checkpoint,
    write_field_container,
)
from sino.errors import NonFinite
from sino.model import exact_burgers_params
from sino.solvers import TrajectoryDataset
from sino.spectral import GridSpec, spectral_resample


ABLATION_OPTIONS = ["--no-pi", "--no-filter", "--no-freq2vec", "--no-linear", "--euler"]


def tiny_config(out, iterations=4, gen_points=(16, 16)):
    """Burgers on 16^2: 11 snapshots per trajectory, a 4-iteration run."""
    c = presets()["E6-desk"]
    return replace(
        c, case="tiny", gen_points=gen_points, train_points=(16, 16),
        solver=replace(c.solver, dt=5e-3, t_end=0.05),
        model=replace(c.model, K=2, C=4, mlp_hidden=(8,), freq_norm=(8, 8)),
        train=replace(c.train, iterations=iterations, n1=1, n2=2, val_every=2),
        n_train=2, n_val=1, n_test=1, out_dir=str(out),
    )


def write_config(path, cfg):
    path.write_text(yaml.safe_dump(cfg.to_dict()))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A generated and trained tiny run: (config path, config, out dir)."""
    root = tmp_path_factory.mktemp("cli")
    cfg = tiny_config(root / "out")
    path = write_config(root / "tiny.yaml", cfg)
    assert cli.main(["generate", "--config", path]) == 0
    assert cli.main(["train", "--config", path]) == 0
    return path, cfg, root / "out"


@pytest.fixture(scope="module")
def fine_run(tmp_path_factory):
    """The tiny run generated at 32^2, so that --superres 2 has a fine truth:
    (config path, config, out dir)."""
    root = tmp_path_factory.mktemp("cli_fine")
    cfg = tiny_config(root / "out", gen_points=(32, 32))
    path = write_config(root / "tiny.yaml", cfg)
    assert cli.main(["generate", "--config", path]) == 0
    assert cli.main(["train", "--config", path]) == 0
    return path, cfg, root / "out"


class TestRoundTrip:
    def test_generate_writes_splits_and_manifest(self, run):
        _, cfg, out = run
        names = sorted(p.name for p in (out / "data").glob("*.sino"))
        assert names == ["test_000.sino", "train_000.sino", "train_001.sino", "val_000.sino"]
        manifest = (out / "data" / "manifest.txt").read_text().splitlines()
        assert manifest[0] == f"config {cfg.config_hash()}"
        assert sorted(line.split()[1] for line in manifest[1:]) == names

    def test_generate_replaces_the_splits(self, tmp_path, monkeypatch):
        # a smaller generate leaves no container of the larger one behind
        data = tmp_path / "out" / "data"
        for n_train in (4, 2):
            cfg = replace(tiny_config(tmp_path / "out"), n_train=n_train)
            assert cli.main(["generate", "--config", write_config(tmp_path / "c.yaml", cfg)]) == 0
        names = sorted(p.name for p in data.glob("*.sino"))
        assert names == ["test_000.sino", "train_000.sino", "train_001.sino", "val_000.sino"]
        manifest = (data / "manifest.txt").read_text().splitlines()
        assert sorted(line.split()[1] for line in manifest[1:]) == names
        assert cli.load_split(data, "train").n_traj == 2

        # one cut short leaves no manifest, so ablate and sweep generate again
        def failing_generate(*args, **kwargs):
            raise NonFinite("injected")

        monkeypatch.setattr(cli, "generate_dataset", failing_generate)
        assert cli.main(["generate", "--config", str(tmp_path / "c.yaml")]) == 3
        assert not (data / "manifest.txt").exists() and not list(data.glob("*.sino"))

    def test_train_writes_checkpoints_and_history(self, run):
        _, cfg, out = run
        assert [p.name for p in out.glob("*.sino")] == ["ckpt_last.sino"]
        echo, last = read_checkpoint(out / "ckpt_last.sino")
        assert echo == cfg.canonical_json()
        assert int(last["meta.step"]) == 4
        state = training.TrainState.from_tensors(last, cfg.model)
        assert state.best_iteration in (2, 4)
        assert sorted(state.best_params) == sorted(state.params)
        rows = read_csv(out / "history.csv")
        assert rows[0] == ["iteration", "config_hash", "lr", "train_loss", "val_rel_l2"]
        assert [int(r[0]) for r in rows[1:]] == [1, 2, 3, 4]
        assert {r[1] for r in rows[1:]} == {cfg.config_hash()}

    def test_resume_continues_the_run(self, run, tmp_path):
        _, cfg, out = run
        shutil.copytree(out, tmp_path / "out")
        longer = tiny_config(tmp_path / "out", iterations=6)
        path = write_config(tmp_path / "longer.yaml", longer)
        ckpt = str(tmp_path / "out" / "ckpt_last.sino")
        assert cli.main(["train", "--config", path, "--resume", ckpt]) == 0
        _, last = read_checkpoint(tmp_path / "out" / "ckpt_last.sino")
        assert int(last["meta.step"]) == 6
        # the history keeps the rows before the checkpoint, unchanged but
        # for the hash: the whole file carries the resumed run's config
        rows = read_csv(tmp_path / "out" / "history.csv")
        assert [int(r[0]) for r in rows[1:]] == [1, 2, 3, 4, 5, 6]
        without_hash = lambda rs: [r[:1] + r[2:] for r in rs]
        assert without_hash(rows[:5]) == without_hash(read_csv(out / "history.csv"))
        assert {r[1] for r in rows[1:]} == {longer.config_hash()}

    def test_resume_to_another_total_says_the_schedule_changes(self, run, tmp_path, capsys):
        _, _, out = run
        shutil.copytree(out, tmp_path / "out")
        path = write_config(tmp_path / "longer.yaml", tiny_config(tmp_path / "out", iterations=5))
        ckpt = str(tmp_path / "out" / "ckpt_last.sino")
        assert cli.main(["train", "--config", path, "--resume", ckpt]) == 0
        assert "one-cycle schedule of 5" in capsys.readouterr().out

    @pytest.mark.parametrize("iterations, max_lr", [(2, None), (4, 5e-4)])
    def test_resume_with_no_iteration_left_is_refused(self, run, tmp_path, capsys,
                                                      iterations, max_lr):
        # under another config it would rewrite the run under that config's hash
        _, _, out = run
        shutil.copytree(out, tmp_path / "out")
        cfg = tiny_config(tmp_path / "out", iterations=iterations)
        if max_lr is not None:
            cfg = replace(cfg, train=replace(cfg.train, max_lr=max_lr))
        path = write_config(tmp_path / "c.yaml", cfg)
        ckpt = tmp_path / "out" / "ckpt_last.sino"
        capsys.readouterr()
        assert cli.main(["train", "--config", path, "--resume", str(ckpt)]) == 2
        assert f"has run 4 iterations and this run has {iterations}" in capsys.readouterr().err
        for name in ("ckpt_last.sino", "history.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (out / name).read_bytes()

    def test_resume_from_a_best_checkpoint_is_refused(self, run, tmp_path):
        # a checkpoint of parameters alone is no training state
        path, _, out = run
        echo, tensors = read_checkpoint(out / "ckpt_last.sino")
        best = tmp_path / "best.sino"
        write_checkpoint(best, echo, {"param." + k[len("best."):]: v
                                      for k, v in tensors.items() if k.startswith("best.")})
        assert cli.main(["train", "--config", path, "--resume", str(best)]) == 4
        assert cli.main(["evaluate", "--config", path, "--checkpoint", str(best)]) == 4

    def test_resume_after_a_skipped_iteration(self, run, tmp_path, monkeypatch):
        # iteration 3 is non-finite: it takes no Adam step but has a row
        _, _, out = run
        shutil.copytree(out / "data", tmp_path / "out" / "data")
        path = write_config(tmp_path / "tiny.yaml", tiny_config(tmp_path / "out"))
        calls = iter(range(1, 100))
        backward = training.backward

        def failing_backward(*args):
            if next(calls) == 3:
                raise NonFinite("injected")
            return backward(*args)

        monkeypatch.setattr(training, "backward", failing_backward)
        assert cli.main(["train", "--config", path]) == 0
        monkeypatch.undo()
        _, first = read_checkpoint(tmp_path / "out" / "ckpt_last.sino")
        assert int(first["meta.step"]) == 3
        assert first["meta.history"].shape == (4, 4)
        history = (tmp_path / "out" / "history.csv").read_text()
        # the run is finished: resuming it under its own config changes nothing
        ckpt = str(tmp_path / "out" / "ckpt_last.sino")
        assert cli.main(["train", "--config", path, "--resume", ckpt]) == 0
        _, again = read_checkpoint(ckpt)
        assert sorted(again) == sorted(first)
        assert all(np.array_equal(again[k], first[k], equal_nan=True) for k in first)
        assert (tmp_path / "out" / "history.csv").read_text() == history

    @pytest.mark.parametrize("args, model, named", [
        (["--no-pi"], {}, "model.no_pi"),
        ([], {"C": 8}, "model.C"),
    ])
    def test_resume_with_a_different_model_is_refused(self, run, tmp_path, capsys,
                                                      args, model, named):
        self.assert_refused(run, tmp_path, capsys, args, named, model=model)

    @pytest.mark.parametrize("args, train, named", [
        (["--seed", "5"], {}, "train.seed"),
        ([], {"batch": 2}, "train.batch"),
        ([], {"n1": 0}, "train.n1"),
        ([], {"n2": 3}, "train.n2"),
        ([], {"n1": 2, "seed": 1}, "train.seed, train.n1"),
    ])
    def test_resume_with_a_different_sampler_is_refused(self, run, tmp_path, capsys,
                                                        args, train, named):
        # the resumed run replays the sampler's draws, which holds only
        # under the checkpoint's seed, batch and window lengths
        self.assert_refused(run, tmp_path, capsys, args, named, train=train)

    @staticmethod
    def assert_refused(run, tmp_path, capsys, args, named, **changes):
        _, _, out = run
        shutil.copytree(out, tmp_path / "out")
        other = tiny_config(tmp_path / "out")
        other = replace(other, **{k: replace(getattr(other, k), **v) for k, v in changes.items()})
        path = write_config(tmp_path / "other.yaml", other)
        ckpt = tmp_path / "out" / "ckpt_last.sino"
        before = ckpt.read_bytes()
        assert cli.main(["train", "--config", path, "--resume", str(ckpt)] + args) == 2
        assert named in capsys.readouterr().err
        assert ckpt.read_bytes() == before

    @pytest.mark.parametrize("command, option", [("train", "--resume"),
                                                 ("evaluate", "--checkpoint")])
    def test_checkpoint_from_another_schema_is_refused(self, run, tmp_path, capsys,
                                                       command, option):
        # an echo that sets a key the schema no longer has, as a checkpoint
        # written before train.div_factor was removed does
        path, _, out = run
        echo, tensors = read_checkpoint(out / "ckpt_last.sino")
        old = json.loads(echo)
        old["train"]["div_factor"] = 25.0
        ckpt = tmp_path / "old.sino"
        write_checkpoint(ckpt, json.dumps(old), tensors)
        assert cli.main([command, "--config", path, option, str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "another config schema" in err
        assert "unknown key train.div_factor" in err

    def test_evaluate_writes_reports(self, fine_run):
        path, cfg, out = fine_run
        assert cli.main(["evaluate", "--config", path, "--superres", "2", "--ood", "star"]) == 0
        for name in ("eval_test.csv", "eval_superres_x2.csv", "eval_ood_star.csv"):
            rows = read_csv(out / name)
            assert rows[0] == ["trajectory", "config_hash", "time_s", "pcc", "rel_l2_cum"]
            assert len(rows) == 1 + 11
            assert {r[1] for r in rows[1:]} == {cfg.config_hash()}

    def test_superres_native_is_the_test_set_score(self, fine_run, tmp_path, capsys):
        path, cfg, out = fine_run
        shutil.copytree(out, tmp_path / "out")
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", path, "--out", str(tmp_path / "out"),
                         "--superres", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        aggregate = lines[0].split("aggregate rel_l2 ")[1].split()[0]
        assert lines[1].startswith(f"[evaluate] superres x2: native {aggregate} fine ")
        _, state = cli._read_checkpoint(out / "ckpt_last.sino")
        test_set = cli.load_split(out / "data", "test")
        report = evaluation.evaluate_rollout(state.best_params, cfg.model, test_set)
        assert aggregate == f"{report.aggregate_rel_l2:.6g}"

    def test_evaluate_labels_rows_with_the_checkpoints_run(self, run, tmp_path):
        # the hash of the run that trained the model, not of evaluate's config
        path, cfg, out = run
        shutil.copytree(out / "data", tmp_path / "out" / "data")
        args = ["--config", path, "--out", str(tmp_path / "out")]
        assert cli.main(["train", *args, "--seed", "5"]) == 0
        assert cli.main(["evaluate", *args]) == 0
        trained = replace(cfg, out_dir=str(tmp_path / "out"), train=replace(cfg.train, seed=5))
        for name in ("history.csv", "eval_test.csv"):
            assert {r[1] for r in read_csv(tmp_path / "out" / name)[1:]} == {trained.config_hash()}

    def test_ablate_scores_every_variant(self, run):
        path, cfg, out = run
        assert cli.main(["ablate", "--config", path]) == 0
        rows = read_csv(out / "ablation.csv")
        assert rows[0] == ["variant", "config_hash", "rel_l2"]
        assert [r[0] for r in rows[1:]] == [
            "full", "no_pi", "no_filter", "no_freq2vec", "no_linear", "euler_time"]
        assert [r[1] for r in rows[1:]] == [cfg.config_hash()] + [
            replace(cfg, model=replace(cfg.model, **{flag: True})).config_hash()
            for flag in ("no_pi", "no_filter", "no_freq2vec", "no_linear", "euler_time")]
        assert all(r[2] == "NaN" or float(r[2]) >= 0.0 for r in rows[1:])

    def test_a_cell_is_nan_when_one_test_rollout_diverges(self, tmp_path, monkeypatch):
        # the exact Burgers model stands in for a trained one; at dt 0.1 the
        # large-amplitude IC blows up and the small one stays finite
        grid = GridSpec(points=(16, 16), length=(2 * np.pi,) * 2)
        model, params = exact_burgers_params(grid, nu=0.01, dt_model=0.1)
        tiny = tiny_config(tmp_path)
        cfg = replace(tiny, model=model,
                      solver=replace(tiny.solver, dt=0.1, save_dt=0.1, t_end=0.3))
        monkeypatch.setattr(cli, "train", lambda *args: SimpleNamespace(best_params=params))
        rng = np.random.default_rng(0)
        ics = [scale * np.sin(np.arange(16) * 2 * np.pi / 16)[None, :, None]
               + 0.1 * scale * rng.standard_normal((2, 16, 16)) for scale in (0.5, 50.0)]
        data = np.stack([np.stack([ic] * 4) for ic in ics])
        one = TrajectoryDataset(grid=grid, cadence=0.1, data=data[:1])
        both = TrajectoryDataset(grid=grid, cadence=0.1, data=data)
        assert float(cli._train_and_score(cfg, None, None, one)) >= 0.0
        assert cli._train_and_score(cfg, None, None, both) == "NaN"

    def test_sweep_rows_carry_their_own_hash(self, run):
        path, cfg, out = run
        assert cli.main(["sweep", "--config", path, "--n-traj", "1,2,3"]) == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["point", "config_hash", "rel_l2"]
        assert [r[0] for r in rows[1:]] == ["n_traj=1", "n_traj=2", "n_traj=3"]
        hashes = [r[1] for r in rows[1:]]
        assert hashes == [replace(cfg, n_train=n).config_hash() for n in (1, 2, 3)]
        assert len(set(hashes)) == 3
        assert rows[3][2] == "NaN"  # only 2 training trajectories exist
        assert all(float(r[2]) >= 0.0 for r in rows[1:3])

    def test_a_sweep_over_channels_and_embed_has_a_row_per_point(self, run, tmp_path):
        _, _, out = run
        shutil.copytree(out / "data", tmp_path / "out" / "data")
        cfg = tiny_config(tmp_path / "out")
        path = write_config(tmp_path / "tiny.yaml", cfg)
        assert cli.main(["sweep", "--config", path, "--channels", "2,3", "--embed", "2"]) == 0
        rows = read_csv(tmp_path / "out" / "sweep.csv")
        assert [r[0] for r in rows[1:]] == ["C=2,K=2", "C=3,K=2"]
        hashes = [r[1] for r in rows[1:]]
        assert hashes == [replace(cfg, model=replace(cfg.model, C=c, K=2)).config_hash()
                          for c in (2, 3)]
        assert len(set(hashes + [cfg.config_hash()])) == 3
        assert all(float(r[2]) >= 0.0 for r in rows[1:])


class TestExitCodes:
    def generate(self, tmp_path, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        return cli.main(["generate", "--config", str(path), "--out", str(tmp_path / "out")])

    def test_missing_model(self, tmp_path, capsys):
        d = tiny_config(tmp_path).to_dict()
        del d["model"]
        assert self.generate(tmp_path, yaml.safe_dump(d)) == 2
        assert "model" in capsys.readouterr().err

    def test_yaml_syntax_error(self, tmp_path):
        assert self.generate(tmp_path, "case: [unclosed\n") == 2

    def test_unknown_solver_key(self, tmp_path, capsys):
        # an unknown key, and keys that older documents and checkpoints still
        # set: each selected a branch of which only one is left, or set nothing
        for section, key, value in (("solver", "bogus", 1), ("solver", "method", "rk4"),
                                    ("solver", "dealias", False), ("model", "activation", "tanh"),
                                    ("train", "loss", "rel_l2"), (None, "seed", 3)):
            d = tiny_config(tmp_path).to_dict()
            (d[section] if section else d)[key] = value
            assert self.generate(tmp_path, yaml.safe_dump(d)) == 2
            assert f"unknown key {section + '.' if section else ''}{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, named", [
        ("train", "iterations", 2.5, "train.iterations"),
        (None, "n_train", "2", "n_train"),
        (None, "grf", {"alpha": "x"}, "grf.alpha"),
        (None, "out_dir", 5, "out_dir"),
        (None, "n_test", -1, "n_test"),
        ("train", "val_every", 0, "val_every"),
        ("train", "div_factor", 0.0, "div_factor"),
        ("train", "warmup_frac", 2.0, "warmup_frac"),
        ("model", "c_in", 1, "c_in"),
        ("model", "freq_norm", [4, 4], "freq_norm"),
    ])
    def test_malformed_value(self, tmp_path, capsys, section, key, value, named):
        d = tiny_config(tmp_path).to_dict()
        (d[section] if section else d)[key] = value
        assert self.generate(tmp_path, yaml.safe_dump(d)) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, named", [
        (["--n-traj", "0,2"], "--n-traj"),
        (["--n-traj", "1", "--channels", "4"], "--channels"),
        (["--n-traj", "1", "--embed", "2"], "--embed"),
        (["--channels", "4,x"], "--channels"),
        (["--embed", "2,-1"], "--embed"),
    ])
    def test_bad_sweep_list(self, tmp_path, capsys, args, named):
        # refused before any data is generated or any point trained
        path = write_config(tmp_path / "c.yaml", tiny_config(tmp_path / "out"))
        assert cli.main(["sweep", "--config", path] + args) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_pde_dim_must_match_the_domain(self, tmp_path, capsys):
        # a 3-component Burgers on a 2D grid, its model widened to match
        d = tiny_config(tmp_path).to_dict()
        d["pde"]["dim"] = 3
        d["model"]["c_in"] = 3
        assert self.generate(tmp_path, yaml.safe_dump(d)) == 2
        assert "pde.dim" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, named", [
        ("dt_model", 0.01, "model.dt_model 0.01"),
        ("test_t_end", 0.0525, "test_t_end 0.0525"),
    ])
    def test_config_is_checked_before_any_data(self, tmp_path, capsys, key, value, named):
        # a model step other than the snapshot cadence, or a test horizon that
        # is not a whole number of snapshots, exits 2 with nothing written
        d = tiny_config(tmp_path).to_dict()
        (d["model"] if key == "dt_model" else d)[key] = value
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(d))
        for command in ("generate", "ablate"):
            assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            assert named in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, option", [
        *(pytest.param("ablate", [flag], id=flag) for flag in ABLATION_OPTIONS),
        *(pytest.param(command, option, id=command + option[0])
          for command in ("generate", "evaluate")
          for option in [["--seed", "3"]] + [[flag] for flag in ABLATION_OPTIONS]),
    ])
    def test_ablate_takes_no_ablation_flag(self, tmp_path, capsys, command, option):
        # ablate sets every flag itself; a flag on top would train it in every
        # row. generate and evaluate train nothing: a seed or flag would only
        # change the config hash they record
        with pytest.raises(SystemExit) as exit_:
            cli.main([command, "--preset", "E6-desk", "--out", str(tmp_path / "out"), *option])
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        args = cli.build_parser().parse_args(["ablate", "--preset", "E6-desk", "--seed", "3"])
        assert args.seed == 3

    @pytest.mark.parametrize("source, named", [
        ([], "one of the arguments --config --preset is required"),
        (["--preset", "E6-desk", "--config", "c.yaml"], "not allowed with argument"),
        (["--preset", "E9-desk"], "invalid choice: 'E9-desk'"),
    ], ids=["neither", "both", "unknown-preset"])
    @pytest.mark.parametrize("command", ["generate", "train", "evaluate", "ablate", "sweep"])
    def test_one_known_config_source_is_required(self, tmp_path, capsys, command, source, named):
        with pytest.raises(SystemExit) as exit_:
            cli.main([command, *source, "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_superres_is_refused_before_any_work(self, run, tmp_path, capsys):
        path, _, out = run
        shutil.copytree(out, tmp_path / "out")
        for report in (tmp_path / "out").glob("eval_*.csv"):
            report.unlink()
        # 1 is the training resolution, whose score is eval_test.csv's
        for superres in ("-2", "1"):
            assert cli.main(["evaluate", "--config", path, "--out", str(tmp_path / "out"),
                             "--superres", superres]) == 2
            assert "--superres" in capsys.readouterr().err
            assert not list((tmp_path / "out").glob("eval_*.csv"))

    def test_superres_finer_than_the_generation_grid_is_refused(self, run, tmp_path, capsys):
        # the run generates on its 16^2 training grid: a 32^2 truth would be zero-padded
        path, _, out = run
        shutil.copytree(out, tmp_path / "out")
        for report in (tmp_path / "out").glob("eval_*.csv"):
            report.unlink()
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", path, "--out", str(tmp_path / "out"),
                         "--superres", "2"]) == 2
        assert "gen_points (16, 16)" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("eval_*.csv"))

    def test_test_split_on_another_grid_is_refused(self, run, tmp_path, capsys):
        path, _, out = run
        shutil.copytree(out, tmp_path / "out")
        for report in (tmp_path / "out").glob("eval_*.csv"):
            report.unlink()
        test = tmp_path / "out" / "data" / "test_000.sino"
        grid, cadence, snaps = read_field_container(test)
        fine = GridSpec(points=(32, 32), length=grid.length)
        write_field_container(test, fine, cadence,
                              np.stack([spectral_resample(s, grid, fine) for s in snaps]))
        assert cli.main(["evaluate", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "training grid" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("eval_*.csv"))

    def test_ood_on_a_3d_run_is_refused_before_any_work(self, tmp_path, capsys):
        # a tiny 3D Burgers run, generated and trained for one iteration
        c = presets()["E7-desk"]
        cfg = replace(c, gen_points=(8,) * 3, train_points=(8,) * 3,
                      solver=replace(c.solver, dt=0.01, t_end=0.2),
                      model=replace(c.model, K=2, C=2, mlp_hidden=(4,), freq_norm=(4,) * 3),
                      train=replace(c.train, iterations=1, n1=1, n2=2, val_every=1),
                      n_train=1, n_val=1, n_test=1, out_dir=str(tmp_path / "out"))
        path = write_config(tmp_path / "e7.yaml", cfg)
        assert cli.main(["generate", "--config", path]) == 0
        assert cli.main(["train", "--config", path]) == 0
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", path, "--ood", "star"]) == 2
        assert "pattern initial conditions are 2D" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("eval_*.csv"))

    def test_superres_on_a_no_freq2vec_run_is_refused_before_any_work(self, fine_run, tmp_path,
                                                                      capsys):
        # the free table holds the native grid's modes and no others
        path, _, out = fine_run
        shutil.copytree(out / "data", tmp_path / "out" / "data")
        out_arg = ["--out", str(tmp_path / "out")]
        assert cli.main(["train", "--config", path, *out_arg, "--no-freq2vec"]) == 0
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", path, *out_arg, "--superres", "2"]) == 2
        assert "native resolution (16, 16)" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("eval_*.csv"))

    @pytest.mark.parametrize("command, option", [("train", "--resume"),
                                                 ("evaluate", "--checkpoint")])
    @pytest.mark.parametrize("change, named", [
        ("drop", "best.out.w"),
        ("reshape", "adam_m.pi.0.w"),
        ("add", "param.extra"),
    ])
    def test_a_checkpoint_that_does_not_fit_its_model_exits_4(self, run, tmp_path, capsys,
                                                              command, option, change, named):
        path, _, out = run
        echo, tensors = read_checkpoint(out / "ckpt_last.sino")
        if change == "drop":
            del tensors[named]
        elif change == "reshape":
            tensors[named] = tensors[named][:, :-1]
        else:
            tensors[named] = np.zeros(3)
        ckpt = tmp_path / "bad.sino"
        write_checkpoint(ckpt, echo, tensors)
        shutil.copytree(out / "data", tmp_path / "out" / "data")
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "out"),
                         option, str(ckpt)]) == 4
        err = capsys.readouterr().err
        assert named in err and "echoed model" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("meta.history", np.array(1.0)),
        ("meta.step", np.zeros((2, 2))),
        ("meta.best_val", np.zeros(3)),
        ("meta.history", np.zeros((2, 3))),
        ("meta.step", np.array(np.nan)),
        ("meta.step", np.array(-5.0)),
        ("meta.step", np.array(2.5)),
        ("meta.best_iteration", np.array(np.inf)),
        ("meta.best_val", np.array(np.nan)),
        ("meta.history", np.array([[np.nan, 0.01, 0.5, np.nan]])),
        ("junk.x", np.zeros(3)),
    ], ids=["0d-history", "2x2-step", "3-best_val", "nx3-history", "nan-step", "negative-step",
            "fractional-step", "inf-best_iteration", "nan-best_val", "nan-iteration",
            "unknown-tensor"])
    def test_a_malformed_training_state_exits_4(self, run, tmp_path, capsys, key, value):
        # a CRC-valid checkpoint whose counters are not scalars, whose history
        # rows are not (iteration, lr, loss, val), whose counts are no integers
        # >= 0, whose best_val is NaN, or that holds a tensor of no training state
        path, _, out = run
        echo, tensors = read_checkpoint(out / "ckpt_last.sino")
        tensors[key] = value
        ckpt = tmp_path / "bad.sino"
        write_checkpoint(ckpt, echo, tensors)
        shutil.copytree(out / "data", tmp_path / "out" / "data")
        for command, option in (("evaluate", "--checkpoint"), ("train", "--resume")):
            assert cli.main([command, "--config", path, "--out", str(tmp_path / "out"),
                             option, str(ckpt)]) == 4
            err = capsys.readouterr().err
            assert key in err and "Traceback" not in err
            assert len(err.splitlines()) == 1

    def test_document_not_a_mapping(self, tmp_path):
        assert self.generate(tmp_path, "- 1\n- 2\n") == 2

    def test_unknown_grf_key(self, tmp_path):
        d = tiny_config(tmp_path).to_dict()
        d["grf"] = {"alpha": 2.0, "width": 3.0}
        assert self.generate(tmp_path, yaml.safe_dump(d)) == 2

    @pytest.mark.parametrize("cut", ["snapshots", "channels"])
    def test_containers_of_unequal_shape_exit_4(self, run, tmp_path, capsys, cut):
        # one training trajectory one snapshot shorter, or with one channel
        path, _, out = run
        data = tmp_path / "out" / "data"
        shutil.copytree(out / "data", data)
        grid, cadence, snaps = read_field_container(data / "train_001.sino")
        snaps = snaps[:-1] if cut == "snapshots" else snaps[:, :1]
        write_field_container(data / "train_001.sino", grid, cadence, snaps)
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "disagree" in err and "train_001.sino" in err

    def test_a_split_is_held_once(self, tmp_path):
        # each container is copied into the split's one array as it is read,
        # so the peak is the split and one container
        grid = GridSpec(points=(32, 32), length=(1.0, 1.0))
        rng = np.random.default_rng(7)
        blocks = [rng.standard_normal((20, 2) + grid.points) for _ in range(4)]
        for i, block in enumerate(blocks):
            write_field_container(tmp_path / f"test_{i:03d}.sino", grid, 0.5, block)
        tracemalloc.start()
        try:
            split = cli.load_split(tmp_path, "test")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(split.data, np.stack(blocks))
        one = blocks[0].nbytes
        assert peak <= split.data.nbytes + 1.1 * one, f"peaked at {peak / one:.2f} containers"

    def test_solver_blow_up_exits_3(self, tmp_path, capsys):
        # Burgers from a GRF at scale 1000 (default 5) at dt = 0.05 overflows at step 3
        c = presets()["E6-desk"]
        blow_up = replace(c, solver=replace(c.solver, dt=0.05, save_dt=0.05, t_end=1.0),
                          model=replace(c.model, dt_model=0.05), grf={"scale": 1000}, n_train=1)
        assert self.generate(tmp_path, yaml.safe_dump(blow_up.to_dict())) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "(step 3)" in err


def test_docstring_example_loads(tmp_path):
    example = cli.__doc__.split("For example:\n")[1].split("\n\n")[0]
    path = tmp_path / "example.yaml"
    path.write_text(textwrap.dedent(example))
    cfg = load_yaml(path)
    assert cfg.model.native_points == cfg.train_points
