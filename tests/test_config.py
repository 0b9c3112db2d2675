import dataclasses
import json
import math
from dataclasses import replace

import pytest
import yaml

from sino import cli
from sino.config import ExperimentConfig, from_dict, load_yaml, presets
from sino.model import ModelConfig
from sino.solvers import PDESpec, SolverConfig
from sino.training import TrainConfig

CASES = sorted(presets())
# every preset's hash, in the table's order: a preset edit updates them on purpose
PINNED_HASHES = {
    "E1": "837bdbc6c9a1", "E6": "2a976faaa2ba", "E7": "6d4a4f39e11a",
    "E1-desk": "37750fe189b5", "E6-desk": "3346bd3540b3", "E7-desk": "8c992c0a693d",
    "E2": "873f7483de4e", "E3": "59b5f1bc3c4f", "E4": "76ccef8582d1", "E5": "8f46b73b44bb",
    "E2-desk": "25cfb9401ffc", "E3-desk": "a842b5e41175", "E4-desk": "f04049a00533",
    "E5-desk": "29c7200c4fe6",
}


NESTED = {"pde": PDESpec, "solver": SolverConfig, "model": ModelConfig, "train": TrainConfig}


def field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("case", CASES)
class TestPresetSchema:
    def test_round_trip(self, case):
        c = presets()[case]
        assert from_dict(c.to_dict()) == c
        assert from_dict(json.loads(c.canonical_json())) == c

    def test_yaml_round_trip(self, case, tmp_path):
        c = presets()[case]
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(c.to_dict()))
        assert load_yaml(path) == c

    def test_hash_is_stable(self, case):
        c = presets()[case]
        h = c.config_hash()
        assert len(h) == 12
        assert presets()[case].config_hash() == h
        assert from_dict(json.loads(c.canonical_json())).config_hash() == h

    def test_hash_is_pinned(self, case):
        assert presets()[case].config_hash() == PINNED_HASHES[case]

    def test_keys_are_the_dataclass_fields(self, case):
        d = presets()[case].to_dict()
        assert list(d) == field_names(ExperimentConfig)
        assert {k for k, v in d.items() if isinstance(v, dict)} == set(NESTED) | {"grf"}
        for key, cls in NESTED.items():
            assert list(d[key]) == field_names(cls)


def test_the_table_keeps_its_cases_and_order():
    assert list(presets()) == list(PINNED_HASHES)


class TestHashCoversEveryLevel:
    @pytest.mark.parametrize("change", [
        lambda c: replace(c, n_train=c.n_train + 1),
        lambda c: replace(c, grf={"alpha": 3.0}),
        lambda c: replace(c, pde=replace(c.pde, nu=0.02)),
        lambda c: replace(c, solver=replace(c.solver, dt=c.solver.dt / 2)),
        lambda c: replace(c, model=replace(c.model, mlp_hidden=(32,))),
        lambda c: replace(c, train=replace(c.train, max_lr=c.train.max_lr / 2)),
    ])
    def test_a_change_moves_the_hash(self, change):
        c = presets()["E6-desk"]
        assert change(c).config_hash() != c.config_hash()

    def test_out_dir_leaves_the_hash(self):
        # one experiment run in two directories is one row of results
        c = presets()["E6-desk"]
        assert replace(c, out_dir="elsewhere").config_hash() == c.config_hash()


class TestFromDict:
    def base(self):
        return presets()["E6-desk"].to_dict()

    def test_missing_fields_take_defaults(self):
        d = self.base()
        for key in ("n_val", "grf", "out_dir"):
            del d[key]
        del d["train"]["max_lr"]
        del d["model"]["mlp_hidden"]
        c = from_dict(d)
        assert c.n_val == 2 and c.grf == {} and c.out_dir == "runs/out"
        assert c.train.max_lr == TrainConfig(iterations=1).max_lr
        assert c.model.mlp_hidden == (64, 64)

    def test_lists_become_tuples(self):
        d = json.loads(presets()["E6-desk"].canonical_json())
        c = from_dict(d)
        assert isinstance(c.domain_length, tuple) and isinstance(c.model.freq_norm, tuple)

    @pytest.mark.parametrize("path, key", [
        ((), "bogus"), (("solver",), "bogus"), (("train",), "beta2"), (("model",), "width"),
    ])
    def test_unknown_key_is_named(self, path, key):
        d = self.base()
        target = d
        for p in path:
            target = target[p]
        target[key] = 1
        with pytest.raises(ValueError, match=key):
            from_dict(d)

    @pytest.mark.parametrize("path, key", [((), "model"), (("model",), "dt_model"),
                                           (("train",), "iterations")])
    def test_missing_required_key_is_named(self, path, key):
        d = self.base()
        target = d
        for p in path:
            target = target[p]
        del target[key]
        with pytest.raises(ValueError, match=key):
            from_dict(d)

    def test_unknown_grf_key(self):
        d = self.base()
        d["grf"] = {"alpha": 2.0, "sigma": 1.0}
        with pytest.raises(ValueError, match="sigma"):
            from_dict(d)

    @pytest.mark.parametrize("doc", [None, [1, 2], "text"])
    def test_not_a_mapping(self, doc):
        with pytest.raises(ValueError, match="mapping"):
            from_dict(doc)

    @pytest.mark.parametrize("section, key, value, named", [
        ("pde", "nu", 1, None),                 # an int fits a float field
        (None, "test_t_end", None, None),
        ("model", "C", True, "model.C"),        # a bool fits only a bool field
        ("model", "no_pi", 1, "model.no_pi"),
        ("model", "freq_norm", [16, "16"], "model.freq_norm"),
        (None, "domain_length", [6.0, None], "domain_length"),
        (None, "grf", {"scale": None, "alpha": 3}, None),
        (None, "grf", {"tau": True}, "grf.tau"),
    ])
    def test_value_must_fit_its_type(self, section, key, value, named):
        d = self.base()
        (d[section] if section else d)[key] = value
        if named is None:
            from_dict(d)
        else:
            with pytest.raises(ValueError, match=named):
                from_dict(d)

    def test_pde_dim_must_match_the_domain(self):
        d = self.base()
        d["pde"]["dim"] = 3
        d["model"]["c_in"] = 3
        with pytest.raises(ValueError, match="pde.dim 3"):
            from_dict(d)

    @pytest.mark.parametrize("section, key, value, named", [
        ("model", "dt_model", 0.01, "solver.save_dt 0.005 must equal model.dt_model 0.01"),
        ("solver", "save_dt", 0.01, "solver.save_dt 0.01 must equal model.dt_model 0.005"),
        (None, "test_t_end", 1.0025, "test_t_end 1.0025"),
    ])
    def test_cadence_and_test_horizon_are_checked(self, section, key, value, named):
        d = self.base()
        (d[section] if section else d)[key] = value
        with pytest.raises(ValueError, match=named):
            from_dict(d)

    @pytest.mark.parametrize("section, key, value", [
        ("solver", "t_end", math.inf), ("solver", "t_end", -1.0), ("solver", "t_end", math.nan),
        ("solver", "dt", math.inf), ("solver", "dt", math.nan), ("solver", "save_dt", math.inf),
        ("solver", "save_dt", -0.005), ("model", "dt_model", math.inf),
        (None, "test_t_end", math.inf),
    ])
    def test_times_must_be_finite(self, section, key, value, tmp_path, capsys):
        # an infinite t_end overflowed when the config was built, an infinite
        # dt divided by zero and a negative t_end made a negative dimension
        # when the data was made, and an infinite dt_model passed the cadence
        # check: each must exit 2 naming its field, before any data is made
        d = self.base()
        (d[section] if section else d)[key] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(d))
        assert cli.main(["generate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert (f"{section}: {key}" if section else key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -0.01])
    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_max_lr_must_be_finite_and_positive(self, command, value, tmp_path, capsys):
        # an infinite max_lr trained to NaN learning rates and NaN parameters
        # and exited 0: each must exit 2 naming the field, before any output
        d = self.base()
        d["train"]["max_lr"] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(d))
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "train: max_lr must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value, named", [
        (None, "domain_length", [math.inf, 6.28], "domain_length"),
        (None, "gen_points", [15, 16], "gen_points"),
        ("pde", "nu", math.inf, "pde: nu"),
    ], ids=["infinite-length", "odd-gen-points", "infinite-nu"])
    def test_grids_and_viscosity_are_checked_before_any_data(self, section, key, value, named,
                                                              tmp_path, capsys):
        # an infinite length generated a dataset, an infinite nu blew the
        # solver up, and an odd point count failed after out_dir was made
        d = self.base()
        (d[section] if section else d)[key] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(d))
        assert cli.main(["generate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def small(self):
        """Burgers from 16^2 to 8^2 over three snapshots, with a two-step curriculum."""
        d = self.base()
        d.update(gen_points=[16, 16], train_points=[8, 8])
        d["model"]["freq_norm"] = [4, 4]
        d["solver"]["t_end"] = 0.01
        d["train"].update(n1=1, n2=1)
        return d

    def refused_before_any_data(self, d, tmp_path, capsys, command="generate"):
        """Whether the command refuses d with exit 2 before out_dir exists; its stderr."""
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(d))
        code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        return code == 2 and not (tmp_path / "out").exists(), capsys.readouterr().err

    @pytest.mark.parametrize("grf, named", [
        ({"tau": 0.0}, "grf.tau"),
        ({"alpha": 2.5, "tau": -1.0}, "grf.tau"),
        ({"scale": -2.0}, "grf.scale"),
        ({"alpha": 1.0}, "grf.alpha"),
        ({"alpha": math.inf}, "grf.alpha"),
        ({"scale": math.nan}, "grf.scale"),
    ], ids=["zero-tau", "negative-tau", "negative-scale", "alpha-at-dim/2", "infinite-alpha",
            "nan-scale"])
    def test_grf_settings_that_make_no_initial_condition(self, grf, named, tmp_path, capsys):
        # a zero tau made all-zero data, a negative tau a complex scale and a
        # negative scale sign-flipped data; alpha <= dim/2 failed in grf_sample
        # and an infinite alpha or a NaN scale as a numerical failure, both
        # after out_dir/data was made
        d = self.small()
        d["grf"] = grf
        refused, err = self.refused_before_any_data(d, tmp_path, capsys)
        assert refused and named in err

    @pytest.mark.parametrize("command", ["generate", "ablate"])
    def test_a_curriculum_longer_than_the_trajectories(self, command, tmp_path, capsys):
        # 5 snapshots, and a window of 4 + 8 + 1: ablate generated all three
        # splits and then refused to train
        d = self.small()
        d["solver"]["t_end"] = 0.02
        d["train"].update(n1=4, n2=8)
        refused, err = self.refused_before_any_data(d, tmp_path, capsys, command)
        assert refused and "train.n1 + train.n2 + 1 = 13" in err and "solver.t_end" in err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_a_negative_seed_is_refused_before_any_data(self, command, tmp_path, capsys):
        # ablate --seed -1 wrote nine containers before numpy refused the seed
        out = tmp_path / "out"
        assert cli.main([command, "--preset", "E6-desk", "--seed", "-1", "--out", str(out)]) == 2
        assert "train.seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_a_negative_seed_in_a_config_is_refused(self):
        d = self.base()
        d["train"]["seed"] = -1
        with pytest.raises(ValueError, match="train.seed must be >= 0"):
            from_dict(d)

    @pytest.mark.parametrize("width", [0, -3])
    def test_mlp_hidden_entries_must_be_positive(self, width):
        # a zero width would give a constant zero table, and a negative one
        # a math domain error in init_params
        d = self.base()
        d["model"]["mlp_hidden"] = [64, width]
        with pytest.raises(ValueError, match="model: mlp_hidden"):
            from_dict(d)

    def test_bad_value_is_a_value_error(self):
        d = self.base()
        d["solver"]["dt"] = "fast"
        with pytest.raises(ValueError, match="solver"):
            from_dict(d)
