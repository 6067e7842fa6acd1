import csv
import glob
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import particle_em
from particle_em import cli
from particle_em import config as config_module
from particle_em.algorithms import ALGORITHMS, RunConfig, RunOptions, Trace
from particle_em.cli import derive_seed, dump_particles, main, run_sweep
from particle_em.config import ExperimentConfig, parse_config, validate
from particle_em.data import MAX_FLOAT64S
from particle_em.exceptions import ConfigError
from particle_em.models import GaussianHierarchicalModel
from helpers import assert_bitwise_equal, toy_hooks_naive, toy_problems

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


TOY_CFG = """
# toy benchmark
model = toy
algorithm = adaptive_coin_em
particles = 5
iters = 20
seed = 3
toy_dim = 10
record_every = 5
"""


class TestParseConfig:
    def test_file_and_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, TOY_CFG))
        assert cfg.model == "toy" and cfg.particles == 5 and cfg.record_every == 5

    def test_flags_win_over_file(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, TOY_CFG), {"particles": 7, "seed": 9})
        assert cfg.particles == 7 and cfg.seed == 9

    def test_missing_particles_defaults_with_notice(self, tmp_path, caplog):
        with caplog.at_level("INFO", logger="particle_em.config"):
            cfg = parse_config(None, {"model": "toy", "algorithm": "coin_em", "iters": 1})
        assert cfg.particles == 10
        assert any("particles" in rec.message for rec in caplog.records)

    def test_swept_key_gets_no_default_notice(self, caplog):
        # a particles sweep runs its grid counts, never the default one
        overrides = {"model": "toy", "algorithm": "pgd", "gamma": 0.1, "sweep_param": "particles",
                     "sweep_values": "2,5"}
        with caplog.at_level("INFO", logger="particle_em.config"):
            parse_config(None, overrides)
        assert [rec.message for rec in caplog.records] == [
            "config key 'iters' not given, using default 500", "config key 'seed' not given, using default 0",
        ]

    def test_gamma_forbidden_for_coin(self, tmp_path):
        with pytest.raises(ConfigError, match="gamma is forbidden"):
            parse_config(None, {"model": "toy", "algorithm": "coin_em", "gamma": 0.1})

    def test_gamma_required_for_rate_algorithms(self):
        with pytest.raises(ConfigError, match="gamma is required"):
            parse_config(None, {"model": "toy", "algorithm": "pgd"})

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, TOY_CFG + "particels = 3\n")
        with pytest.raises(ConfigError, match="unknown config key 'particels'"):
            parse_config(path)

    def test_all_violations_reported_at_once(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(None, {"model": "nope", "algorithm": "bad", "particles": 0})
        text = str(excinfo.value)
        assert "model" in text and "algorithm" in text and "particles" in text

    def test_sweep_shape_matches_reference_protocol(self):
        # 50 log-spaced rates in [1e-5, 1e3]
        values = [float(v) for v in np.logspace(-5, 3, 50)]
        cfg = parse_config(
            None,
            {
                "model": "toy",
                "algorithm": "pgd",
                "sweep_param": "gamma",
                "sweep_values": ",".join(repr(v) for v in values),
            },
        )
        assert len(cfg.sweep_values) == 50
        assert cfg.sweep_values[0] == pytest.approx(1e-5) and cfg.sweep_values[-1] == pytest.approx(1e3)

    def test_bad_sweep_settings(self):
        with pytest.raises(ConfigError, match="sweep_values"):
            parse_config(None, {"model": "toy", "algorithm": "pgd", "sweep_param": "gamma"})

    @pytest.mark.parametrize("param,values", [
        ("particles", "2,inf"), ("particles", "nan"), ("gamma", "0.1,nan"), ("gamma", "inf"),
    ])
    def test_non_finite_sweep_values_rejected(self, param, values):
        overrides = {"model": "toy", "algorithm": "pgd", "sweep_param": param, "sweep_values": values}
        if param == "particles":
            overrides["gamma"] = 0.1
        with pytest.raises(ConfigError, match="sweep_values must all be finite and positive"):
            parse_config(None, overrides)

    @pytest.mark.parametrize("key", ["gamma", "bandwidth"])
    def test_nan_run_setting_rejected(self, key):
        overrides = {"model": "toy", "algorithm": "pgd", "gamma": "0.1", key: "nan"}
        with pytest.raises(ConfigError, match=f"{key} must be a finite positive number, got nan"):
            parse_config(None, overrides)


#: (key, its text in a config file, the parsed value); every ExperimentConfig field has a case
FIELD_CASES = [
    ("model", "toy", "toy"),
    ("algorithm", "svgd_em", "svgd_em"),
    ("particles", "7", 7),
    ("iters", "3", 3),
    ("gamma", "0.25", 0.25),
    ("seed", "12", 12),
    ("run_index", "2", 2),
    ("record_every", "5", 5),
    ("output_dir", "out dir", "out dir"),
    ("name", "my_run", "my_run"),
    ("bandwidth", "1e-3", 1e-3),
    ("freeze_bandwidth", "yes", True),
    ("freeze_bandwidth", "0", False),
    ("adaptive_denominator", "bnn", "bnn"),
    ("particle_grads_use_new_theta", "False", False),
    ("particle_grads_use_new_theta", "1", True),
    ("sweep_param", "gamma", "gamma"),
    ("sweep_values", "0.1, 2,,1e3", [0.1, 2.0, 1000.0]),
    ("sweep_metric", "post_mean_mse", "post_mean_mse"),
    ("toy_dim", "4", 4),
    ("theta_true", "-2.5", -2.5),
    ("data_path", "data/x.csv", "data/x.csv"),
    ("label_column", "y", "y"),
    ("positive_label", "yes", "yes"),  # a string key keeps a boolean-looking text
    ("test_fraction", "0.5", 0.5),
    ("prior_var", "2", 2.0),
    ("edgelist_path", "edges.txt", "edges.txt"),
    ("labels_path", "labels.txt", "labels.txt"),
    ("embed_dim", "3", 3),
    ("prior_var_z", "inf", math.inf),
    ("link_sign", "plus", "plus"),
]


def test_field_cases_cover_every_key():
    assert {key for key, _, _ in FIELD_CASES} == {f.name for f in fields(ExperimentConfig)}


@pytest.mark.parametrize("key,text,expected", FIELD_CASES, ids=[f"{k}={t}" for k, t, _ in FIELD_CASES])
def test_key_parsed_from_file_text(tmp_path, key, text, expected):
    # the base lines make a valid toy run for any one key; a later line wins over an earlier one
    base = "model = toy\nalgorithm = pgd\ngamma = 0.1\nsweep_values = 0.2\n"
    cfg = parse_config(write_config(tmp_path, f"{base}{key} = {text}\n"))
    value = getattr(cfg, key)
    assert value == expected and type(value) is type(expected)
    if key == "sweep_values":
        assert all(type(v) is float for v in value)


@pytest.mark.parametrize("key,text,message", [
    ("freeze_bandwidth", "maybe", "expected a boolean, got 'maybe'"),
    ("particle_grads_use_new_theta", "", "expected a boolean, got ''"),
    ("particles", "2.5", "invalid literal for int()"),
    ("gamma", "fast", "could not convert string to float"),
    ("sweep_values", "0.1,x", "could not convert string to float"),
])
def test_bad_key_text_rejected(tmp_path, key, text, message):
    path = write_config(tmp_path, f"model = toy\nalgorithm = pgd\ngamma = 0.1\n{key} = {text}\n")
    with pytest.raises(ConfigError, match=f"bad value for '{key}': ") as err:
        parse_config(path)
    assert message in str(err.value)


#: typed library overrides: each is read from its text, as the same value on a config-file line is
TYPED_OVERRIDES = [
    ("seed", 1.5, "bad value for 'seed': invalid literal for int() with base 10: '1.5'"),
    ("seed", True, "bad value for 'seed': invalid literal for int() with base 10: 'True'"),
    ("run_index", 1.5, "bad value for 'run_index': invalid literal for int() with base 10: '1.5'"),
    ("toy_dim", 2.5, "bad value for 'toy_dim': invalid literal for int() with base 10: '2.5'"),
    ("sweep_values", [0.1, 0.2], "bad value for 'sweep_values': could not convert string to float: '[0.1'"),
    ("name", 5, None),
    ("sweep_values", 5, None),
    ("gamma", np.float64(0.25), None),
]


@pytest.mark.parametrize("key,value,message", TYPED_OVERRIDES,
                         ids=[f"{key}={value!r}" for key, value, _ in TYPED_OVERRIDES])
def test_typed_override_is_read_from_its_text(key, value, message):
    base = {"model": "toy", "algorithm": "pgd", "gamma": "0.1"}
    if message is not None:
        with pytest.raises(ConfigError) as excinfo:
            parse_config(None, {**base, key: value})
        assert excinfo.value.violations == [message]
    else:
        assert parse_config(None, {**base, key: value}) == parse_config(None, {**base, key: str(value)})


@pytest.mark.parametrize("changes,message", [
    ({"run_index": -1}, "run_index must be >= 0, got -1"),
    ({"seed": -5}, "seed must be >= 0, got -5"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),  # the master seed is validate_run's to check
    ({"sweep_param": "iters", "sweep_values": [1.0]},
     "sweep_param must be one of ('gamma', 'particles'), got 'iters'"),
    ({"sweep_param": "particles", "sweep_values": [2.0, 2.5]}, "sweep over particles requires integer values"),
    ({"model": "logreg"}, "logreg model requires data_path"),
    # a config built directly can hold a value of another type than its key's parser gives
    ({"run_index": "x"}, "run_index must be an integer, got 'x'"),
    ({"name": 5}, "name must be a str, got 5"),
    ({"sweep_param": "gamma", "sweep_values": 5}, "sweep_values must be a list of real numbers, got 5"),
    ({"sweep_param": "gamma", "sweep_values": [0.5, "x"]},
     "sweep_values must be a list of real numbers, got [0.5, 'x']"),
], ids=["run_index", "seed", "seed_type", "sweep_param", "particles_sweep", "data_path", "run_index_type",
        "name_type", "sweep_values_type", "sweep_value_type"])
def test_validate_names_each_violation(changes, message):
    assert validate(ExperimentConfig(**{"model": "toy", "algorithm": "adaptive_coin_em", **changes})) == [message]


def test_validate_takes_numbers_of_the_parsed_kind_built_directly():
    config = ExperimentConfig(model="toy", algorithm="svgd_em", gamma=0.1, theta_true=1, toy_dim=np.int64(5),
                              run_index=np.uint8(2), prior_var=np.float32(2.0), sweep_param="particles",
                              sweep_values=[2, np.float64(3.0)], data_path=None, name=np.str_("run"))
    assert validate(config) == []


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(5, 1, 0) == derive_seed(5, 1, 0)
        assert derive_seed(5, 1, 0) != derive_seed(5, 1, 1)
        assert derive_seed(5, 0) != derive_seed(6, 0)

    def test_seeds_past_64_bits_stay_distinct(self):
        assert derive_seed(2**64 + 3, 0) != derive_seed(3, 0)

    def test_negative_master_seed_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "runs"
        code = main(["run", "--model", "toy", "--algorithm", "adaptive_coin_em", "--iters", "3",
                     "--seed", "-5", "--out", str(out)])
        assert code == 2
        assert "seed must be >= 0, got -5" in capsys.readouterr().err
        assert not out.exists()


class TestRunCommand:
    def test_writes_trace_and_sidecar(self, tmp_path):
        out = tmp_path / "runs"
        code = main(["run", "--config", write_config(tmp_path, TOY_CFG), "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "toy_adaptive_coin_em.csv")
        iterations = sorted({int(r["iteration"]) for r in rows})
        assert iterations == [0, 5, 10, 15, 20]
        metrics = {r["metric"] for r in rows}
        assert {"theta", "theta_mse", "post_mean_mse", "posterior_var", "theta_grad_norm"} <= metrics
        sidecar = json.loads((out / "toy_adaptive_coin_em.json").read_text())
        assert sidecar["config"]["model"] == "toy"
        assert sidecar["diverged"] is False
        assert isinstance(sidecar["final_theta"][0], float)

    def test_sidecar_records_versions(self, tmp_path):
        out = tmp_path / "runs"
        assert main(["run", "--config", write_config(tmp_path, TOY_CFG), "--out", str(out)]) == 0
        sidecar = json.loads((out / "toy_adaptive_coin_em.json").read_text())
        build = np.show_config(mode="dicts")
        blas = build["Build Dependencies"]["blas"]
        assert sidecar["versions"] == {"particle_em": particle_em.__version__, "numpy": np.__version__,
                                       "blas": f"{blas['name']} {blas['version']}",
                                       # the CLI runs BLAS on one thread where it can set the count
                                       "blas_threads": None if cli._openblas_threads() is None else 1,
                                       "cpu_features": build["SIMD Extensions"]["found"]}

    @pytest.mark.parametrize("show_config", [lambda mode: {}, lambda: None], ids=["unreported", "no-dict-mode"])
    def test_versions_unreported_by_numpy_are_none(self, monkeypatch, show_config):
        monkeypatch.setattr(cli.np, "show_config", show_config)
        versions = cli._versions()
        assert versions["blas"] is None and versions["cpu_features"] is None
        assert versions["numpy"] == np.__version__

    def test_diverged_sidecar_theta_is_the_last_completed_step(self, tmp_path):
        # divergence at step 84 with record_every 10: the last record is 80, the last completed step 83
        args = ["run", "--model", "toy", "--algorithm", "pgd", "--gamma", "50", "--particles", "3",
                "--record-every", "10", "--seed", "2", "--out", str(tmp_path)]
        assert main(args + ["--iters", "200", "--name", "diverged"]) == 0
        assert main(args + ["--iters", "83", "--name", "stopped"]) == 0
        diverged, stopped = (json.loads((tmp_path / f"{name}.json").read_text()) for name in ("diverged", "stopped"))
        assert diverged["diverged_at"] == 84 and not stopped["diverged"]
        assert diverged["final_theta"] == stopped["final_theta"]
        recorded = [float(r["value"]) for r in read_rows(tmp_path / "diverged.csv") if r["metric"] == "theta"]
        assert recorded[-1] != diverged["final_theta"][0]

    @pytest.mark.parametrize("flag,text,key", [("--seed", "x", "seed"), ("--particles", "2.5", "particles"),
                                               ("--gamma", "fast", "gamma")])
    def test_bad_number_flag_is_a_config_error(self, tmp_path, capsys, flag, text, key):
        out = tmp_path / "runs"
        code = main(["run", "--model", "toy", "--algorithm", "pgd", "--gamma", "0.1", "--iters", "3",
                     flag, text, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: bad value for '{key}': ")
        assert not out.exists()

    def test_path_in_name_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "DIR"
        code = main(["run", "--model", "toy", "--algorithm", "coin_em", "--iters", "3",
                     "--name", "a/b/../../../x", "--out", str(out)])
        assert code == 2
        assert "name must be a file basename" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name,ok", [(".", False), ("..", False), ("a/b", False), ("/x", False),
                                         ("...", True), ("a.b", True), ("a..b", True)])
    def test_name_must_be_a_basename(self, name, ok):
        problems = validate(ExperimentConfig(model="toy", algorithm="coin_em", name=name))
        assert any("name must be a file basename" in p for p in problems) is not ok

    def test_impossible_cloud_size_is_a_config_error(self, tmp_path, capsys):
        code = main(["run", "--model", "toy", "--algorithm", "svgd_em", "--gamma", "0.1",
                     "--particles", "100000000000000000000", "--out", str(tmp_path)])
        assert code == 2
        assert "n_particles x d_z = 100000000000000000000 x 100" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_cloud_size_check_counts_bytes(self, tmp_path, capsys):
        # 1 x 1.5e18 values fit in intp but their 1.2e19 bytes do not, which numpy refuses in default_init
        edges = tmp_path / "net.txt"
        edges.write_text("a b\nb c\nc a\n", encoding="utf-8")
        text = (f"model = network\nalgorithm = coin_em\nparticles = 1\niters = 1\nedgelist_path = {edges}\n"
                f"embed_dim = {5 * 10**17}\n")
        out = tmp_path / "runs"
        assert main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        assert "config error: n_particles x d_z = 1 x 1500000000000000000 is more values than one array can hold" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("toy_dim", [0, 2 * 10**18, 10**20])
    def test_toy_dim_out_of_range_exit_code(self, tmp_path, capsys, toy_dim):
        # 2e18 values fit in intp but their bytes do not; 1e20 is beyond intp itself
        text = f"model = toy\nalgorithm = coin_em\niters = 1\ntoy_dim = {toy_dim}\n"
        out = tmp_path / "runs"
        assert main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        assert f"config error: toy_dim (d_z) must be >= 1 and at most {MAX_FLOAT64S}, got {toy_dim}\n" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_test_fraction_is_a_config_error(self, tmp_path, capsys):
        # the split checks its fraction, and the CLI reports that as a config error, not as a fault of the file
        data = tmp_path / "lr.csv"
        data.write_text("x0,label\n0.5,1\n-0.5,0\n1.5,1\n", encoding="utf-8")
        out = tmp_path / "runs"
        code = main(["run", "--config", write_config(tmp_path, "test_fraction = 1\n"), "--model", "logreg",
                     "--algorithm", "coin_em", "--iters", "1", "--data-path", str(data), "--out", str(out)])
        assert code == 2
        assert "config error: test_fraction must be in (0, 1), got 1.0\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["name", "output_dir", "data_path", "edgelist_path", "labels_path"])
    def test_nul_byte_in_a_path_is_a_config_error(self, tmp_path, capsys, key):
        edges, data = tmp_path / "net.txt", tmp_path / "lr.csv"
        edges.write_text("a b\nb c\n", encoding="utf-8")
        data.write_text("x0,label\n0.5,1\n-0.5,0\n1.5,1\n", encoding="utf-8")
        out = tmp_path / "runs"
        model = "logreg" if key == "data_path" else "network" if key in ("edgelist_path", "labels_path") else "toy"
        keys = {"data_path": data, "edgelist_path": edges, "output_dir": out,
                key: "a\0b" if key == "name" else f"{tmp_path}/a\0b"}
        text = f"model = {model}\nalgorithm = coin_em\niters = 1\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        assert main(["run", "--config", write_config(tmp_path, text)]) == 2
        assert f"config error: {key} must not contain a NUL byte" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["config", "edgelist", "labels", "csv"])
    def test_non_utf8_input_exit_code(self, tmp_path, capsys, bad):
        edges, labels, data = tmp_path / "net.txt", tmp_path / "labels.txt", tmp_path / "lr.csv"
        edges.write_bytes(b"a b\n" + (b"b \xffc\n" if bad == "edgelist" else b"b c\n"))
        labels.write_bytes(b"a A\n" + (b"b \xffB\n" if bad == "labels" else b"b B\n"))
        data.write_bytes(b"x0,label\n0.5,1\n" + (b"-0.5,\xff0\n" if bad == "csv" else b"-0.5,0\n") + b"1.5,1\n")
        model = (f"model = logreg\ndata_path = {data}\n" if bad == "csv"
                 else f"model = network\nedgelist_path = {edges}\nlabels_path = {labels}\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"algorithm = coin_em\n" + (b"# \xff\n" if bad == "config" else b"\n")
                        + f"iters = 1\n{model}".encode())
        path, line = {"config": (cfg, 2), "edgelist": (edges, 2), "labels": (labels, 2), "csv": (data, 3)}[bad]
        out = tmp_path / "runs"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"error: {path}: line {line}: byte 0xff is not UTF-8 text\n" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_without_feature_columns_is_a_config_error(self, tmp_path, capsys):
        data = tmp_path / "labels.csv"
        data.write_text("label\n1\n0\n1\n0\n1\n", encoding="utf-8")
        out = tmp_path / "runs"
        code = main(["run", "--model", "logreg", "--algorithm", "adaptive_coin_em", "--iters", "3",
                     "--data-path", str(data), "--out", str(out)])
        assert code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert errors == ["config error: BayesianLogisticRegression has no latent coordinates (d_z = 0); "
                          "a particle cloud needs at least one"]
        assert not out.exists()

    def test_memory_error_is_reported_without_traceback(self, tmp_path, monkeypatch, capsys):
        message = "Unable to allocate 2.18 TiB for an array with shape (3000000000, 100) and data type float64"

        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run", out_of_memory)  # never allocate for real
        code = main(["run", "--model", "toy", "--algorithm", "coin_em", "--iters", "3", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: out of memory: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path, TOY_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg_path, "--out", str(out2)]) == 0
        name = "toy_adaptive_coin_em.csv"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_zero_iteration_run_single_row_per_metric(self, tmp_path):
        out = tmp_path / "runs"
        code = main(["run", "--config", write_config(tmp_path, TOY_CFG), "--iters", "0", "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "toy_adaptive_coin_em.csv")
        assert {r["iteration"] for r in rows} == {"0"}
        metrics = [r["metric"] for r in rows]
        assert len(metrics) == len(set(metrics))

    def test_trace_values_roundtrip_to_full_precision(self, tmp_path):
        out = tmp_path / "runs"
        main(["run", "--config", write_config(tmp_path, TOY_CFG), "--out", str(out)])
        rows = read_rows(out / "toy_adaptive_coin_em.csv")
        for row in rows:
            value = float(row["value"])
            assert repr(value) == row["value"]

    @pytest.mark.parametrize("model,key,value,message", [
        ("logreg", "prior_var", "-1", "prior_var must be a finite positive number, got -1.0"),
        ("logreg", "prior_var", "nan", "prior_var must be a finite positive number, got nan"),
        ("toy", "theta_true", "nan", "theta_true must be finite, got nan"),
        ("network", "prior_var_z", "nan", "prior_var_z must be positive (or inf), got nan"),
    ], ids=["prior_var=-1", "prior_var=nan", "theta_true=nan", "prior_var_z=nan"])
    def test_bad_model_number_exit_code(self, tmp_path, capsys, model, key, value, message):
        data = tmp_path / "data.txt"
        if model == "logreg":
            data.write_text("x0,label\n0.5,1\n-0.5,0\n1.5,1\n-1.5,0\n0.2,0\n", encoding="utf-8")
        else:
            data.write_text("a b\nb c\nc a\n", encoding="utf-8")
        text = (
            f"model = {model}\nalgorithm = adaptive_coin_em\nparticles = 2\niters = 3\n"
            f"data_path = {data}\nedgelist_path = {data}\n{key} = {value}\n"
        )
        out = tmp_path / "runs"
        assert main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @given(st.data())
    def test_trace_csv_round_trip(self, data):
        # any name the CLI's csv writer quotes or leaves bare; a carriage return, which the writer would
        # leave unquoted under its "\n" line terminator, is refused before the file is opened
        chars = st.characters(blacklist_categories=("Cs",))
        names = data.draw(st.lists(st.text(chars, max_size=6), min_size=1, max_size=4, unique=True))
        if data.draw(st.booleans()):  # about half the examples put a carriage return into one name
            k = data.draw(st.integers(0, len(names) - 1))
            cut = data.draw(st.integers(0, len(names[k])))
            names[k] = names[k][:cut] + "\r" + names[k][cut:]
        iterations = sorted(data.draw(st.sets(st.integers(0, 10**9), min_size=1, max_size=5)))
        special = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310, 2.2250738585072014e-308])
        values = special | st.floats(allow_nan=False)
        drawn = [{name: data.draw(values) for name in names} for _ in iterations]
        zeros = np.zeros((len(iterations), 1))
        trace = Trace(iterations, zeros, zeros, {name: [row[name] for row in drawn] for name in names})
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.csv")
            if any("\r" in name for name in names):
                with pytest.raises(ValueError, match="carriage return") as err:
                    cli._write_trace_csv(path, trace)
                assert repr(min(name for name in names if "\r" in name)) in str(err.value)
                assert not os.path.exists(path)
                return
            cli._write_trace_csv(path, trace)
            with open(path, newline="", encoding="utf-8") as fh:
                header, *rows = list(csv.reader(fh))
        assert header == ["iteration", "metric", "value"]
        expected = [(it, name, value) for it, row in zip(iterations, drawn) for name, value in row.items()]
        assert [(int(it), name) for it, name, _ in rows] == [(it, name) for it, name, _ in expected]
        # bit-identical, -0.0, subnormals and the infinities included; nan is the one nan the CSV can spell
        assert [np.float64(float(v)).tobytes() for _, _, v in rows] == [np.float64(v).tobytes() for *_, v in expected]

    @pytest.mark.parametrize("rows", [cli.TRACE_CSV_BLOCK, cli.TRACE_CSV_BLOCK + 1, 2 * cli.TRACE_CSV_BLOCK + 3])
    def test_trace_csv_rows_cross_the_read_blocks(self, rows, tmp_path):
        iterations = 3 * np.arange(rows)
        values = {"a": np.arange(rows) / 7.0, "b": -1e-310 * np.arange(rows)}
        trace = Trace(iterations, np.zeros((rows, 1)), np.zeros((rows, 1)), values)
        path = tmp_path / "trace.csv"
        cli._write_trace_csv(str(path), trace)
        with open(path, newline="", encoding="utf-8") as fh:
            rows_read = list(csv.reader(fh))[1:]
        assert rows_read == [[str(it), name, repr(float(column[k]))]
                             for k, it in enumerate(iterations) for name, column in values.items()]

    # text drawing the characters csv quotes on, a bare carriage return and spaces half the time
    @given(st.lists(st.text(st.sampled_from(',"\n\r ') | st.characters(blacklist_categories=("Cs",)), max_size=8)
                    | st.integers()
                    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310]) | st.floats(),
                    min_size=2, max_size=5))
    def test_csv_line_is_the_csv_writers_row(self, fields):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerow(fields)
        assert cli._csv_line(fields) == out.getvalue()

    def test_warm_trace_csv_write_peaks_under_64_kb(self, tmp_path):
        # a pgd-sweep point recording every iteration: 501 rows of the toy model's five hooks; a
        # csv.writer's record buffer alone is 128 KB
        cfg = parse_config(None, {"model": "toy", "algorithm": "pgd", "gamma": 0.001, "particles": 10,
                                  "iters": 500, "record_every": 1, "seed": 0, "toy_dim": 100})
        trace, _ = cli.execute_run(cfg)
        assert len(trace.iterations()) == 501 and len(trace.metric_names) == 5
        path = str(tmp_path / "trace.csv")
        tracemalloc.start()
        try:
            cli._write_trace_csv(path, trace)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            cli._write_trace_csv(path, trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 64 * 1024

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["run", "--config", write_config(tmp_path, TOY_CFG), "--gamma", "0.1"])
        assert code == 2
        assert "gamma is forbidden" in capsys.readouterr().err

    def test_marginal_algorithm_without_mstep_exit_code(self, tmp_path, capsys):
        edges = tmp_path / "net.txt"
        edges.write_text("a b\nb c\n", encoding="utf-8")
        code = main([
            "run", "--model", "network", "--algorithm", "marginal_coin_em", "--particles", "2",
            "--iters", "1", "--edgelist-path", str(edges), "--out", str(tmp_path / "runs"),
        ])
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_empty_edge_list_exit_code(self, tmp_path, capsys):
        edges = tmp_path / "net.txt"
        edges.write_text("# no edges\n", encoding="utf-8")
        code = main([
            "run", "--model", "network", "--algorithm", "adaptive_coin_em", "--particles", "2",
            "--iters", "1", "--edgelist-path", str(edges), "--out", str(tmp_path / "runs"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_missing_config_file_exit_code(self, capsys):
        code = main(["run", "--config", "/nonexistent/x.cfg"])
        assert code == 1

    @pytest.mark.parametrize("command,written", [
        ("run", ["toy_coin_em.csv", "toy_coin_em.json"]), ("dump", ["toy_coin_em_particles_final.csv"]),
    ])
    def test_sweep_keys_ignored(self, tmp_path, command, written):
        # only sweep reads the sweep keys, so an unrecorded summary metric is no error here
        text = "model = toy\nalgorithm = coin_em\nparticles = 2\niters = 3\nsweep_metric = nope\n"
        out = tmp_path / "runs"
        assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == written

    def test_diverged_run_recorded_exit_zero(self, tmp_path):
        out = tmp_path / "runs"
        code = main([
            "run", "--model", "toy", "--algorithm", "pgd", "--gamma", "30.0",
            "--particles", "5", "--iters", "100", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        sidecar = json.loads((out / "toy_pgd.json").read_text())
        assert sidecar["diverged"] is True
        assert sidecar["diverged_at"] >= 1


class TestToyMetricHooks:
    @staticmethod
    def hooks(model, n_particles):
        return cli._metric_hooks(ExperimentConfig(model="toy", particles=n_particles), model, {})

    @given(toy_problems())
    def test_hooks_match_plain_formulas(self, problem):
        model, theta, z = problem
        hooks = self.hooks(model, z.shape[0])
        with np.errstate(all="ignore"):
            expected = toy_hooks_naive(model, theta, z)
            got = {name: hooks[name](theta, z) for name in expected}
        assert set(expected) == set(hooks) - {"theta", "theta_mse"}
        for name, value in expected.items():
            assert_bitwise_equal(got[name], value)

    def test_each_cloud_gets_its_own_values(self):
        # the hooks share one mean per cloud object: A, then B, then A again must not reuse B's
        rng = np.random.default_rng(5)
        model, theta = GaussianHierarchicalModel(rng.standard_normal(6)), np.array([0.4])
        a, b = rng.standard_normal((4, 6)), 3.0 + rng.standard_normal((4, 6))
        hooks = self.hooks(model, 4)
        for z in (a, b, a, a.copy()):
            expected = toy_hooks_naive(model, theta, z)
            assert {name: hooks[name](theta, z) for name in expected} == expected


class TestSweepCommand:
    def sweep_config(self, tmp_path, values, out):
        return [
            "sweep", "--model", "toy", "--algorithm", "pgd", "--particles", "5",
            "--iters", "60", "--seed", "11", "--out", str(out),
            "--sweep-param", "gamma", "--sweep-values", values,
        ]

    def test_summary_and_point_files(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(self.sweep_config(tmp_path, "0.001,0.01,50.0", out)) == 0
        rows = read_rows(out / "toy_pgd_sweep.csv")
        assert [float(r["sweep_value"]) for r in rows] == [0.001, 0.01, 50.0]
        finals = [float(r["final_metric"]) for r in rows]
        assert np.isinf(finals[2])  # huge rate diverges and is recorded as inf
        assert np.isfinite(finals[0]) and np.isfinite(finals[1])
        assert (out / "toy_pgd_000.csv").exists() and (out / "toy_pgd_002.json").exists()

    def test_worker_count_does_not_change_results(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        monkeypatch.setenv("PARTICLE_EM_WORKERS", "1")
        main(self.sweep_config(tmp_path, "0.001,0.005,0.01", out1))
        monkeypatch.setenv("PARTICLE_EM_WORKERS", "3")
        main(self.sweep_config(tmp_path, "0.001,0.005,0.01", out2))
        assert (out1 / "toy_pgd_sweep.csv").read_bytes() == (out2 / "toy_pgd_sweep.csv").read_bytes()
        for k in range(3):
            name = f"toy_pgd_{k:03d}.csv"
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_worker_count_rejected_before_any_point_runs(self, tmp_path, monkeypatch, capsys, value):
        out = tmp_path / "sweep"
        monkeypatch.setenv("PARTICLE_EM_WORKERS", value)
        assert main(self.sweep_config(tmp_path, "0.001,0.01", out)) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "PARTICLE_EM_WORKERS" in err
        assert not out.exists()

    # 3 grid points on a 2-CPU host; an empty value means one worker per CPU
    @pytest.mark.parametrize("value,want", [("64", 3), ("2", 2), ("", 2)])
    def test_worker_count_capped_at_grid_size(self, tmp_path, monkeypatch, value, want):
        pools = []

        class SerialPool:
            """Records its worker count and maps in this process."""

            def __init__(self, max_workers, **options):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("PARTICLE_EM_WORKERS", value)
        assert main(self.sweep_config(tmp_path, "0.001,0.005,0.01", tmp_path / "sweep")) == 0
        assert pools == [want]

    def test_sweep_point_reproducible_as_single_run(self, tmp_path):
        out = tmp_path / "sweep"
        main(self.sweep_config(tmp_path, "0.001,0.01", out))
        single_out = tmp_path / "single"
        code = main([
            "run", "--model", "toy", "--algorithm", "pgd", "--particles", "5",
            "--iters", "60", "--seed", "11", "--gamma", "0.01",
            "--run-index", "1", "--name", "toy_pgd_001", "--out", str(single_out),
        ])
        assert code == 0
        assert (out / "toy_pgd_001.csv").read_bytes() == (single_out / "toy_pgd_001.csv").read_bytes()

    def test_shipped_sweep_point_reproducible_from_its_config(self, tmp_path, monkeypatch):
        # run on a sweep config is one run: the grid point that --run-index and --gamma name
        monkeypatch.chdir(REPO_ROOT)
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
        cfg = os.path.join("configs", "toy_pgd_sweep.cfg")
        common = ["--config", cfg, "--seed", "3", "--iters", "5"]
        assert main(["sweep", *common, "--out", str(tmp_path / "sweep")]) == 0
        gamma = repr(parse_config(cfg).sweep_values[7])
        single = tmp_path / "single"
        code = main(["run", *common, "--run-index", "7", "--gamma", gamma, "--name", "toy_pgd_007",
                     "--out", str(single)])
        assert code == 0
        assert sorted(os.listdir(single)) == ["toy_pgd_007.csv", "toy_pgd_007.json"]
        assert (single / "toy_pgd_007.csv").read_bytes() == (tmp_path / "sweep" / "toy_pgd_007.csv").read_bytes()

    def test_run_on_sweep_config_requires_gamma(self, tmp_path, monkeypatch, capsys):
        # the grid never stands in for gamma in a single run, so a missing CSV is never opened either
        monkeypatch.chdir(REPO_ROOT)
        logreg = write_config(tmp_path, "model = logreg\nalgorithm = pgd\ndata_path = missing.csv\n"
                                        "sweep_param = gamma\nsweep_values = 0.1,0.2\n")
        out = tmp_path / "single"
        for cfg in (os.path.join("configs", "toy_pgd_sweep.cfg"), logreg):
            code = main(["run", "--config", cfg, "--seed", "3",
                         "--run-index", "7", "--iters", "5", "--name", "toy_pgd_007", "--out", str(out)])
            assert code == 2
            assert "gamma is required" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_summary_metric_checked_at_every_particle_count(self, tmp_path, monkeypatch, capsys, workers):
        # posterior_var needs two particles, so grid value 1 refuses the sweep before point 0 runs
        out = tmp_path / "sweep"
        monkeypatch.setenv(cli.WORKERS_ENV, workers)
        args = ["sweep", "--model", "toy", "--algorithm", "coin_em", "--iters", "3", "--sweep-param", "particles",
                "--sweep-values", "5,1", "--sweep-metric", "posterior_var", "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "summary metric 'posterior_var' is not recorded for model 'toy' at 1 particle(s)" in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_run_checks_made_at_every_particle_count(self, tmp_path, monkeypatch, capsys, workers):
        # 1e300 particles cannot exist; the size check refuses it with the model, before any allocation
        out = tmp_path / "sweep"
        monkeypatch.setenv(cli.WORKERS_ENV, workers)
        args = ["sweep", "--model", "toy", "--algorithm", "coin_em", "--iters", "1", "--sweep-param", "particles",
                "--sweep-values", "2,1e300", "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"config error: n_particles x d_z = {int(1e300)} x 100 is more values than one array can hold" in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_unrecorded_sweep_metric_rejected_before_any_point_runs(self, tmp_path, monkeypatch, capsys, workers):
        out = tmp_path / "sweep"
        monkeypatch.setenv(cli.WORKERS_ENV, workers)
        args = self.sweep_config(tmp_path, "0.001,0.002,0.005,0.01", out) + ["--sweep-metric", "nope"]
        assert main(args) == 2
        assert "summary metric 'nope' is not recorded for model 'toy'" in capsys.readouterr().err
        assert not out.exists()

    def test_check_model_is_freed_before_the_first_point_runs(self, tmp_path, monkeypatch):
        # otherwise a serial sweep holds a second copy of the model's data through every point
        built, dead = [], []
        build_model, sweep_point = cli._build_model, cli._sweep_point

        def recording_build(config, data_seed):
            model, extras = build_model(config, data_seed)
            built.append(weakref.ref(model))
            return model, extras

        def first_sees(point):
            dead.append(built[0]() is None)
            return sweep_point(point)

        monkeypatch.setattr(cli, "_build_model", recording_build)
        monkeypatch.setattr(cli, "_sweep_point", first_sees)
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
        assert main(self.sweep_config(tmp_path, "0.001,0.01", tmp_path / "sweep")) == 0
        assert dead == [True, True]

    def test_sweep_metric_names_the_summary_column(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(self.sweep_config(tmp_path, "0.001,0.01", out) + ["--sweep-metric", "post_mean_mse"]) == 0
        finals = [r["final_metric"] for r in read_rows(out / "toy_pgd_sweep.csv")]
        for k, final in enumerate(finals):
            trace = [r for r in read_rows(out / f"toy_pgd_{k:03d}.csv") if r["metric"] == "post_mean_mse"]
            assert trace[-1]["iteration"] == "60" and final == trace[-1]["value"]

    def test_particles_sweep_ignores_base_particle_count(self, tmp_path):
        # no grid point runs with the base count, so an invalid one is no error, nor is a summary
        # metric that the base count would not record
        out = tmp_path / "sweep"
        args = self.sweep_config(tmp_path, "2,5", out)
        args[args.index("gamma")] = "particles"
        args[args.index("--particles") + 1] = "0"
        assert main(args + ["--gamma", "0.01", "--sweep-metric", "posterior_var"]) == 0
        assert [r["sweep_value"] for r in read_rows(out / "toy_pgd_sweep.csv")] == ["2.0", "5.0"]
        sidecars = [json.loads((out / f"toy_pgd_{k:03d}.json").read_text()) for k in (0, 1)]
        assert [s["config"]["particles"] for s in sidecars] == [2, 5]

    @pytest.mark.parametrize("param,values", [("particles", "2,inf"), ("gamma", "0.01,nan")])
    def test_non_finite_grid_rejected_before_any_point_runs(self, tmp_path, capsys, param, values):
        out = tmp_path / "sweep"
        args = self.sweep_config(tmp_path, values, out)
        args[args.index("gamma")] = param
        if param == "particles":
            args += ["--gamma", "0.01"]
        assert main(args) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_requires_grid(self, tmp_path):
        code = main(["sweep", "--model", "toy", "--algorithm", "coin_em"])
        assert code == 2

    def test_summary_is_u_shaped_in_learning_rate(self, tmp_path):
        # tiny rates converge too slowly, huge rates blow up, middle is best
        out = tmp_path / "ushape"
        values = ",".join(repr(float(g)) for g in np.logspace(-5, 2, 7))
        args = [
            "sweep", "--model", "toy", "--algorithm", "pgd", "--particles", "5",
            "--iters", "300", "--seed", "13", "--out", str(out),
            "--sweep-param", "gamma", "--sweep-values", values,
        ]
        assert main(args) == 0
        finals = [float(r["final_metric"]) for r in read_rows(out / "toy_pgd_sweep.csv")]
        best = int(np.argmin(finals))
        assert 0 < best < len(finals) - 1
        assert finals[0] > finals[best] and finals[-1] > finals[best]


class TestDumpCommand:
    def test_snapshot_shape(self, tmp_path):
        cfg = parse_config(None, {
            "model": "toy", "algorithm": "adaptive_coin_em", "particles": 2,
            "iters": 3, "seed": 0, "toy_dim": 1, "output_dir": str(tmp_path),
        })
        path = dump_particles(cfg, at="final")
        rows = read_rows(path)
        assert len(rows) == 2
        coord_cols = [c for c in rows[0] if c.startswith("z")]
        assert coord_cols == ["z0"]
        assert {r["iteration"] for r in rows} == {"3"}

    def test_unknown_snapshot_is_a_config_error(self, tmp_path):
        cfg = parse_config(None, {"model": "toy", "algorithm": "adaptive_coin_em", "output_dir": str(tmp_path)})
        with pytest.raises(ConfigError, match="snapshot must be 'init' or 'final', got 'middle'"):
            dump_particles(cfg, at="middle")
        assert list(tmp_path.iterdir()) == []

    def test_initial_snapshot_moments(self, tmp_path):
        # toy initialization draws particles from a standard normal
        cfg = parse_config(None, {
            "model": "toy", "algorithm": "adaptive_coin_em", "particles": 400,
            "iters": 1, "seed": 5, "toy_dim": 10, "output_dir": str(tmp_path),
        })
        path = dump_particles(cfg, at="init")
        rows = read_rows(path)
        values = np.array([[float(r[f"z{d}"]) for d in range(10)] for r in rows])
        n = values.size
        assert abs(values.mean()) <= 3.0 / np.sqrt(n)
        assert abs(values.std() - 1.0) <= 3.0 / np.sqrt(2 * n)

    def test_network_snapshot_layout(self, tmp_path):
        edges = tmp_path / "net.txt"
        edges.write_text("a b\nb c\nc d\na d\n", encoding="utf-8")
        cfg = parse_config(None, {
            "model": "network", "algorithm": "adaptive_coin_em", "particles": 3,
            "iters": 2, "seed": 1, "edgelist_path": str(edges), "output_dir": str(tmp_path),
        })
        path = dump_particles(cfg, at="final")
        rows = read_rows(path)
        assert len(rows) == 3 * 4  # one row per (particle, node)
        assert set(rows[0]) == {"iteration", "particle", "node", "label", "c0", "c1"}
        assert {r["label"] for r in rows} == {"a", "b", "c", "d"}

    def test_network_snapshot_labels_read_back_exactly(self, tmp_path):
        # the labels file keeps the rest of each line, so a label may hold the characters csv quotes on
        edges = tmp_path / "net.txt"
        edges.write_text("a b\nb c\nc d\na d\n", encoding="utf-8")
        labels = {"a": "Smith, J.", "b": 'the "hub"', "c": "São  Paulo — 東京", "d": '"," ,""'}
        (tmp_path / "labels.txt").write_text("".join(f"{node} {label}\n" for node, label in labels.items()),
                                             encoding="utf-8")
        cfg = write_config(tmp_path, f"model = network\nalgorithm = adaptive_coin_em\nparticles = 3\niters = 2\n"
                                     f"seed = 1\nedgelist_path = {edges}\nlabels_path = {tmp_path / 'labels.txt'}\n")
        assert main(["dump", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "network_adaptive_coin_em_particles_final.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header[:4] == ["iteration", "particle", "node", "label"]
        assert [row[3] for row in rows] == list(labels.values()) * 3

    def test_diverged_final_snapshot_labelled_with_its_step(self, tmp_path):
        # divergence at step 84 with record_every 10: the last record is 80, the cloud is from step 83
        cfg = parse_config(None, {
            "model": "toy", "algorithm": "pgd", "gamma": 50.0, "particles": 3, "iters": 200,
            "record_every": 10, "seed": 2, "output_dir": str(tmp_path),
        })
        trace, info = cli.execute_run(cfg)
        assert info["diverged_at"] == 84 and trace.records[-1].iteration == 80
        rows = read_rows(dump_particles(cfg, at="final"))
        assert {r["iteration"] for r in rows} == {"83"}
        assert [float(r["z0"]) for r in rows] == trace.final_particles[:, 0].tolist()

    def test_initial_snapshot_takes_no_step(self, tmp_path, monkeypatch):
        args = ["dump", "--model", "toy", "--algorithm", "adaptive_coin_em", "--particles", "4",
                "--iters", "50", "--seed", "3", "--at", "init"]
        name = "toy_adaptive_coin_em_particles_init.csv"
        assert main(args + ["--out", str(tmp_path / "stepping")]) == 0

        def no_step(*args, **kwargs):
            raise AssertionError("dump --at init took an optimizer step")

        monkeypatch.setattr(particle_em.algorithms, "step", no_step)
        assert main(args + ["--out", str(tmp_path / "no_step")]) == 0
        assert (tmp_path / "no_step" / name).read_bytes() == (tmp_path / "stepping" / name).read_bytes()

    def test_dump_via_cli(self, tmp_path):
        code = main([
            "dump", "--model", "toy", "--algorithm", "coin_em", "--particles", "2",
            "--iters", "1", "--seed", "0", "--out", str(tmp_path), "--at", "init",
        ])
        assert code == 0
        assert (tmp_path / "toy_coin_em_particles_init.csv").exists()


class TestLogregPipeline:
    def make_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        n, d = 60, 2
        X = rng.standard_normal((n, d))
        w = np.array([2.0, -1.0])
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X @ w))).astype(int)
        lines = ["x0,x1,label"] + [
            f"{float(row[0])!r},{float(row[1])!r},{lab}" for row, lab in zip(X, y)
        ]
        path = tmp_path / "lr.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_end_to_end_run(self, tmp_path):
        out = tmp_path / "runs"
        code = main([
            "run", "--model", "logreg", "--algorithm", "adaptive_coin_em",
            "--particles", "10", "--iters", "50", "--seed", "2",
            "--data-path", self.make_csv(tmp_path), "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out / "logreg_adaptive_coin_em.csv")
        errors = [float(r["value"]) for r in rows if r["metric"] == "test_error"]
        assert errors and all(0.0 <= e <= 1.0 for e in errors)
        # training should not make the predictor worse than chance
        assert errors[-1] <= 0.5

    def test_non_finite_cell_exit_code(self, tmp_path, capsys):
        # an inf feature would normalise its whole column to NaN, and the run would still exit 0
        data = self.make_csv(tmp_path)
        lines = open(data, encoding="utf-8").read().splitlines()
        lines[2] = "inf," + lines[2].split(",", 1)[1]
        open(data, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        out = tmp_path / "runs"
        code = main(["run", "--model", "logreg", "--algorithm", "adaptive_coin_em", "--iters", "3",
                     "--data-path", data, "--out", str(out)])
        assert code == 1
        assert f"error: {data}: row 3, column 'x0': non-finite cell 'inf'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows", [0, 1])
    def test_too_few_rows_exit_code(self, tmp_path, capsys, rows):
        # a header-only file cannot be split; one row leaves its test row and no training row
        data = tmp_path / "lr.csv"
        data.write_text("x0,label\n" + "0.5,1\n" * rows, encoding="utf-8")
        out = tmp_path / "runs"
        code = main(["run", "--model", "logreg", "--algorithm", "adaptive_coin_em", "--iters", "3",
                     "--data-path", str(data), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {data}: {rows} data row(s) leave no training row at test_fraction 0.2" in err
        assert not out.exists()


def test_logreg_trace_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The logistic gradients' matrix products change their last bits with the OpenBLAS thread
    count, so the CLI runs BLAS on one thread. OpenBLAS reads the variable when it loads, so each
    count runs in its own subprocess: exactly two of them."""
    rng = np.random.default_rng(455)
    X = rng.standard_normal((455, 30))
    y = (rng.random(455) < 1.0 / (1.0 + np.exp(-0.5 * X @ rng.standard_normal(30)))).astype(int)
    data = tmp_path / "lr.csv"
    lines = [",".join([f"x{j}" for j in range(30)] + ["label"])]
    lines += [",".join([repr(float(v)) for v in row] + [str(label)]) for row, label in zip(X, y)]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    traces = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(particle_em.__file__)),
               "OPENBLAS_NUM_THREADS": threads}
        args = ["run", "--model", "logreg", "--algorithm", "adaptive_coin_em", "--particles", "100",
                "--iters", "200", "--seed", "1", "--name", "lr", "--data-path", str(data), "--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "particle_em.cli", *args], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        traces.append((out / "lr.csv").read_bytes())
    assert traces[0] == traces[1]


def test_sweep_workers_run_blas_on_one_thread(tmp_path, monkeypatch):
    threads = cli._openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread setter")
    set_threads, get_threads = threads
    before = get_threads()
    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    config = parse_config(None, {"model": "toy", "algorithm": "coin_em", "iters": 1, "toy_dim": 2,
                                 "sweep_param": "particles", "sweep_values": "2,3", "output_dir": str(tmp_path)})
    set_threads(2)  # run_sweep itself does not pin; each worker's initializer does
    try:
        run_sweep(config)
    finally:
        set_threads(before)
    for k in range(2):
        sidecar = json.loads((tmp_path / f"toy_coin_em_{k:03d}.json").read_text(encoding="utf-8"))
        assert sidecar["versions"]["blas_threads"] == 1


def test_missing_blas_thread_setter_logs_one_notice(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
    with caplog.at_level("INFO", logger="particle_em.cli"):
        code = main(["run", "--model", "toy", "--algorithm", "coin_em", "--particles", "2", "--iters", "1",
                     "--name", "toy", "--out", str(tmp_path)])
    assert code == 0
    assert sum("no OpenBLAS thread setter" in rec.message for rec in caplog.records) == 1
    sidecar = json.loads((tmp_path / "toy.json").read_text(encoding="utf-8"))
    assert sidecar["versions"]["blas_threads"] is None


def test_run_options_are_declared_once():
    # RunConfig and ExperimentConfig take every optimizer option and its default from RunOptions
    for cls in (RunConfig, ExperimentConfig):
        assert issubclass(cls, RunOptions)
        assert not {f.name for f in fields(RunOptions)} & set(vars(cls).get("__annotations__", {}))


def test_run_config_carries_every_optimizer_setting():
    cfg = ExperimentConfig(
        model="toy", algorithm="svgd_em", particles=7, iters=3, gamma=0.3, seed=99, record_every=2,
        bandwidth=0.5, freeze_bandwidth=True, adaptive_denominator="bnn", particle_grads_use_new_theta=False,
    )
    run_config = cfg.run_config()
    default = RunConfig()
    changed = {f.name for f in fields(RunConfig) if getattr(run_config, f.name) != getattr(default, f.name)}
    # every RunConfig field but the per-run ones comes from the experiment config
    assert changed == {f.name for f in fields(RunConfig)} - {"seed", "init", "metric_hooks"}
    hooks = {"theta": lambda th, Z: 0.0}
    overridden = cfg.run_config(seed=5, metric_hooks=hooks, gamma=0.01)
    assert (overridden.seed, overridden.metric_hooks, overridden.gamma) == (5, hooks, 0.01)


SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(REPO_ROOT, "configs", "*.cfg")))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=os.path.basename)
def test_shipped_config_parses(path):
    assert parse_config(path).model in ("toy", "logreg", "network")


@pytest.mark.parametrize("command,name", [
    ("run", "toy_coin.cfg"), ("sweep", "toy_pgd_sweep.cfg"), ("run", "network_coin.cfg"),
])
def test_shipped_config_runs(command, name, tmp_path, monkeypatch):
    # data paths in the shipped configs are relative to the repository root
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setenv(cli.WORKERS_ENV, "1")
    out = tmp_path / "runs"
    assert main([command, "--config", os.path.join("configs", name), "--iters", "5", "--out", str(out)]) == 0
    assert list(out.glob("*.csv"))


@pytest.mark.parametrize("spelling,sign", [("minus", -1.0), ("plus", 1.0)])
def test_link_sign_spelling_builds_its_sign(tmp_path, spelling, sign):
    edges = tmp_path / "net.txt"
    edges.write_text("a b\nb c\n", encoding="utf-8")
    config = parse_config(None, {"model": "network", "algorithm": "coin_em", "edgelist_path": str(edges),
                                 "link_sign": spelling})
    model, _ = cli._build_model(config, 0)
    assert model.link_sign == sign


def test_model_and_data_parameters_are_left_to_their_owners():
    # each is checked once, where it is used, when the CLI builds the model
    config = ExperimentConfig(model="toy", algorithm="coin_em", toy_dim=0, theta_true=math.nan, test_fraction=2.0,
                              prior_var=-1.0, embed_dim=0, prior_var_z=math.nan)
    assert validate(config) == []
    assert validate(replace(config, link_sign="sideways")) == ["link_sign must be 'minus' or 'plus', got 'sideways'"]


def test_experiment_config_resolved_name():
    cfg = ExperimentConfig(model="toy", algorithm="pgd")
    assert cfg.resolved_name() == "toy_pgd"
    assert ExperimentConfig(name="custom").resolved_name() == "custom"


# ---------------------------------------------------------------------------
# fuzz gate: whatever a config file holds, the CLI exits 0, 1 or 2 and no exception escapes

_BEYOND_INTP = st.integers(int(np.iinfo(np.intp).max) + 1, 10**30)
#: text any drawn key may be given: wrong types, the special floats, an empty value
_ANY_TEXT = st.sampled_from(["", "abc", "1.5", "-1", "nan", "inf", "-inf", "1e999", "yes", "0x10"])
_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e300]) | st.floats(-2.0, 2.0)
#: each parser's values; every size is either small or beyond np.intp, so nothing large is ever allocated
_PARSER_TEXT = {
    int: st.integers(-1, 4) | _BEYOND_INTP,
    float: _FLOATS,
    config_module._parse_bool: st.sampled_from(["yes", "0", "maybe"]),
    str: st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"), max_size=6),
    config_module._TYPE_PARSERS["list[float]"]: st.lists(st.sampled_from(
        [0.01, 1.0, 2.0, 3.0, 1e300, math.nan, math.inf, -1.0, 0.5]), max_size=3).map(lambda v: ",".join(map(repr, v))),
}
_FILES = {
    "lr.csv": b"x0,x1,label\n0.5,1,1\n-0.5,2,0\n1.5,0,1\n-1.5,1,0\n0.2,3,0\n1.1,-1,1\n",
    "labels_only.csv": b"label\n1\n0\n1\n",
    "bad.csv": b"x0,label\n0.5,1\n-0.5,\xff0\n",
    "net.txt": b"a b\nb c\nc d\nd a\n",
    "loops.txt": b"a a\n",
    "bad_net.txt": b"a b\nb \xffc\n",
    "labels.txt": b"a A\nb B\n",
    "bad_labels.txt": b"a \xffA\n",
}
_PATHS = st.sampled_from([*_FILES, "missing.txt", "dir", "a\0b"])
#: keys whose values are drawn from fixed choices, mostly valid ones, and the iteration count, kept at 3 or fewer
_KEY_TEXT = {
    "model": st.sampled_from([*config_module.MODELS * 3, "", "x"]),
    "algorithm": st.sampled_from([*sorted(ALGORITHMS) * 2, "", "x"]),
    "iters": st.integers(-1, 3) | st.sampled_from(["", "abc", "1.5"]),
    "adaptive_denominator": st.sampled_from(["standard", "bnn", "x"]),
    "link_sign": st.sampled_from(["minus", "plus", "x"]),
    "sweep_param": st.sampled_from(["gamma", "particles", "x"]),
    "sweep_metric": st.sampled_from(["theta", "theta_mse", "posterior_var", "test_error", "mean_log_joint", "x"]),
    "label_column": st.sampled_from(["label", "x0", "x"]),
    "name": st.sampled_from(["", ".", "..", "a/b", "a\0b", "r" * 300]) | _PARSER_TEXT[str],
    **dict.fromkeys(("data_path", "edgelist_path", "labels_path"), _PATHS),
    "output_dir": st.sampled_from(["out", "o\0ut", "lr.csv"]),  # a directory, a NUL byte, a file
}


@given(st.data())
def test_cli_exits_0_1_or_2_on_any_config(data):
    command = data.draw(st.sampled_from(["run", "sweep", "dump"]))
    algorithm = data.draw(_KEY_TEXT["algorithm"])
    keys = {"model": data.draw(_KEY_TEXT["model"]), "algorithm": algorithm, "iters": 2, "particles": 3,
            "toy_dim": 3, "data_path": "lr.csv", "edgelist_path": "net.txt", "output_dir": "out"}
    if "gd" in ALGORITHMS.get(algorithm, ()):
        keys["gamma"] = 0.01
    if command == "sweep":
        keys.update({"sweep_param": "particles", "sweep_values": "2,3"} if "gamma" not in keys
                    else {"sweep_param": "gamma", "sweep_values": "0.01,0.1"})
    for key in data.draw(st.lists(st.sampled_from(sorted(config_module._PARSERS)), max_size=3, unique=True)):
        keys[key] = data.draw(_KEY_TEXT.get(key, _PARSER_TEXT[config_module._PARSERS[key]]) | _ANY_TEXT)
    out_of_memory = data.draw(st.sampled_from([False] * 3 + [True]))
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(os.path.join(tmp, "dir"))
        for name, content in _FILES.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(content)
        for key in ("data_path", "edgelist_path", "labels_path", "output_dir"):  # every path under tmp
            if key in keys:
                keys[key] = os.path.join(tmp, keys[key])
        text = "".join(f"{key} = {value}\n" for key, value in keys.items()).encode()
        cfg = os.path.join(tmp, "exp.cfg")
        with open(cfg, "wb") as fh:
            fh.write(text + data.draw(st.sampled_from([b""] * 4 + [b"# \xff\n", b"no equals sign\n"])))
        argv = [command, "--config", cfg] + (["--at", data.draw(st.sampled_from(["init", "final"]))]
                                             if command == "dump" else [])

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        with mock.patch.dict(os.environ, {cli.WORKERS_ENV: "1"}), \
                mock.patch.object(cli, "run", no_memory if out_of_memory else cli.run):
            assert main(argv) in (0, 1, 2)
