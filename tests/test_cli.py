import csv
import json
import shutil
import textwrap
from dataclasses import replace

import numpy as np
import pytest
import yaml

from sino import cli, training
from sino.config import load_yaml, presets
from sino.containers import (
    read_checkpoint,
    read_field_container,
    write_checkpoint,
    write_field_container,
)
from sino.errors import NonFinite


def tiny_config(out, iterations=4):
    """Burgers on 16^2: 11 snapshots per trajectory, a 4-iteration run."""
    c = presets()["E6-desk"]
    return replace(
        c, case="tiny", gen_points=(16, 16), train_points=(16, 16),
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


class TestRoundTrip:
    def test_generate_writes_splits_and_manifest(self, run):
        _, cfg, out = run
        names = sorted(p.name for p in (out / "data").glob("*.sino"))
        assert names == ["test_000.sino", "train_000.sino", "train_001.sino", "val_000.sino"]
        manifest = (out / "data" / "manifest.txt").read_text().splitlines()
        assert manifest[0] == f"config {cfg.config_hash()}"
        assert sorted(line.split()[1] for line in manifest[1:]) == names

    def test_train_writes_checkpoints_and_history(self, run):
        _, cfg, out = run
        echo, last = read_checkpoint(out / "ckpt_last.sino")
        assert echo == cfg.canonical_json()
        assert int(last["meta.step"]) == 4
        _, best = read_checkpoint(out / "ckpt_best.sino")
        assert best and all(k.startswith("param.") for k in best)
        rows = read_csv(out / "history.csv")
        assert rows[0] == ["iteration", "lr", "train_loss", "val_rel_l2"]
        assert [int(r[0]) for r in rows[1:]] == [1, 2, 3, 4]

    def test_resume_continues_the_run(self, run, tmp_path):
        _, cfg, out = run
        shutil.copytree(out, tmp_path / "out")
        longer = tiny_config(tmp_path / "out", iterations=6)
        path = write_config(tmp_path / "longer.yaml", longer)
        ckpt = str(tmp_path / "out" / "ckpt_last.sino")
        assert cli.main(["train", "--config", path, "--resume", ckpt]) == 0
        _, last = read_checkpoint(tmp_path / "out" / "ckpt_last.sino")
        assert int(last["meta.step"]) == 6
        # the history keeps the rows before the checkpoint, unchanged
        rows = read_csv(tmp_path / "out" / "history.csv")
        assert [int(r[0]) for r in rows[1:]] == [1, 2, 3, 4, 5, 6]
        assert rows[:5] == read_csv(out / "history.csv")

    def test_resume_to_another_total_says_the_schedule_changes(self, run, tmp_path, capsys):
        _, _, out = run
        shutil.copytree(out, tmp_path / "out")
        path = write_config(tmp_path / "longer.yaml", tiny_config(tmp_path / "out", iterations=5))
        ckpt = str(tmp_path / "out" / "ckpt_last.sino")
        assert cli.main(["train", "--config", path, "--resume", ckpt]) == 0
        assert "one-cycle schedule of 5" in capsys.readouterr().out

    def test_resume_from_a_best_checkpoint_is_refused(self, run, tmp_path):
        path, _, out = run
        best = str(out / "ckpt_best.sino")
        assert cli.main(["train", "--config", path, "--resume", best]) == 4

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
        _, _, out = run
        shutil.copytree(out, tmp_path / "out")
        other = tiny_config(tmp_path / "out")
        other = replace(other, model=replace(other.model, **model))
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

    def test_evaluate_writes_reports(self, run):
        path, _, out = run
        assert cli.main(["evaluate", "--config", path, "--superres", "2", "--ood", "star"]) == 0
        for name in ("eval_test.csv", "eval_superres_x2.csv", "eval_ood_star.csv"):
            rows = read_csv(out / name)
            assert rows[0] == ["trajectory", "time_s", "pcc", "rel_l2_cum"]
            assert len(rows) == 1 + 11

    def test_ablate_scores_every_variant(self, run):
        path, _, out = run
        assert cli.main(["ablate", "--config", path]) == 0
        rows = read_csv(out / "ablation.csv")
        assert rows[0] == ["variant", "rel_l2"]
        assert [r[0] for r in rows[1:]] == [
            "full", "no_pi", "no_filter", "no_freq2vec", "no_linear", "euler_time"]
        assert all(r[1] == "NaN" or float(r[1]) >= 0.0 for r in rows[1:])

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

    def test_solver_blow_up_exits_3(self, tmp_path, capsys):
        # Burgers from a GRF at scale 1000 (default 5) at dt = 0.05 overflows at step 3
        c = presets()["E6-desk"]
        blow_up = replace(c, solver=replace(c.solver, dt=0.05, save_dt=0.05, t_end=1.0),
                          grf={"scale": 1000}, n_train=1)
        assert self.generate(tmp_path, yaml.safe_dump(blow_up.to_dict())) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "(step 3)" in err


def test_docstring_example_loads(tmp_path):
    example = cli.__doc__.split("For example:\n")[1].split("\n\n")[0]
    path = tmp_path / "example.yaml"
    path.write_text(textwrap.dedent(example))
    cfg = load_yaml(path)
    assert cfg.model.native_points == cfg.train_points
