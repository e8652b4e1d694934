"""Checkpoints, configs, CSV/report consistency, plots, the CLI contract, and the
package's public surface."""
import argparse
import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import types
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from condrep import evaluate, io as cio, training
from condrep.autodiff import Tensor, no_grad
from condrep.cli import build_parser, main
from condrep.config import CONFIG_TABLE, DEFAULT_CONFIG, STRATEGIES, config_values
from condrep.data import DatasetConfig, build_dataset, export_pools
from condrep.evaluate import EvalReport
from condrep.exceptions import ConfigError, DimensionError
from condrep.model import Model, ModelConfig
from condrep.plots import PLOT_H, accuracy_bars_svg, loss_curve_svg
from condrep.rerepresent import re_represent_pair
from referees import float_hex_lines


def tiny_model(seed=0):
    cfg = ModelConfig(image_size=16, feature_side=2, feature_channels=8)
    return Model.init(cfg, seed=seed)


TINY_FLAGS = ["--image-size", "16", "--feature-channels", "8", "--feature-side", "2",
              "--n-classes", "3", "--support-per-class", "4", "--query-per-class", "6"]


def test_package_exports_only_its_submodules():
    import condrep
    assert sorted(condrep.__all__) == ["autodiff", "backbone", "conditional", "config", "data",
                                       "evaluate", "exceptions", "model", "optim",
                                       "rerepresent", "training"]
    assert all(isinstance(getattr(condrep, name), types.ModuleType)
               for name in condrep.__all__)


def test_referees_live_in_the_tests_not_the_package():
    # the dense 4D convolution, the grid-level conditional matrices, the rule
    # re-measurement and the finite-difference oracle are in tests/referees.py
    from condrep import conditional, data
    moved = {conditional: ("build_relation_tensor", "conv4d_oracle", "conditional_matrices",
                           "_reduce_rows"),
             data: ("measure_rule",)}
    assert [f"{module.__name__}.{name}" for module, names in moved.items()
            for name in names if hasattr(module, name)] == []
    assert importlib.util.find_spec("condrep.gradcheck") is None


def imported_modules(node) -> list[str]:
    """The modules an import statement names; a relative one keeps its dots."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return ["." * node.level + (node.module or "")]
    return []


def test_condrep_modules_import_each_other_at_module_level_only():
    # the config table lives in a module that imports nothing from the model,
    # so no model module needs an import inside a function to reach it
    src = Path(__file__).resolve().parents[1] / "src" / "condrep"
    lazy = set()
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lazy.update(f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                            for name in imported_modules(node)
                            if name.startswith(".") or name.split(".")[0] == "condrep")
    assert sorted(lazy) == []
    outside = {name for node in ast.walk(ast.parse((src / "config.py").read_text()))
               for name in imported_modules(node)}
    outside -= {".exceptions", "numpy"} | set(sys.stdlib_module_names)
    assert outside == set()


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model = tiny_model(seed=3)
        path = tmp_path / "ck.txt"
        cio.save_checkpoint(path, model, meta={"epoch": 7})
        config, params, meta = cio.load_checkpoint(path)
        assert meta == {"epoch": 7}
        assert config == model.config
        for name, p in model.parameters().items():
            assert np.array_equal(params[name], p.data), name

    # the header is the checkpoint format: these lines were written when the
    # backbone's blocks and input channels were config fields of their own
    @pytest.mark.parametrize("overrides,header", [
        ({}, 'header {"meta": {"seed": 0}, "model_config": {"backbone": {"blocks": '
             '[[8, 2], [16, 2], [32, 2]], "channels_in": 1, "feature_channels": 32, '
             '"feature_side": 4, "input_size": 32}, "kernel_shape": [3, 3, 3, 3], '
             '"structure": "siamese"}}'),
        ({"image_size": "28", "feature_side": "7", "feature_channels": "64"},
         'header {"meta": {"seed": 0}, "model_config": {"backbone": {"blocks": '
         '[[32, 2], [64, 2]], "channels_in": 1, "feature_channels": 64, '
         '"feature_side": 7, "input_size": 28}, "kernel_shape": [3, 3, 3, 3], '
         '"structure": "siamese"}}')], ids=["default", "28px_7x7x64"])
    def test_header_line_is_the_stored_format(self, tmp_path, overrides, header):
        cfg = cio.model_config_from(dict(DEFAULT_CONFIG, **overrides))
        cio.save_checkpoint(tmp_path / "ck.txt", Model.init(cfg, seed=0), meta={"seed": 0})
        assert (tmp_path / "ck.txt").read_text().splitlines()[1] == header
        assert cio.load_checkpoint(tmp_path / "ck.txt")[0] == cfg

    def test_model_from_checkpoint(self, tmp_path):
        model = tiny_model(seed=4)
        model.rerep["final.w1"].data[:] = np.pi / 3
        path = tmp_path / "ck.txt"
        cio.save_checkpoint(path, model)
        loaded, _meta = cio.model_from_checkpoint(path)
        for name, p in model.parameters().items():
            assert np.array_equal(loaded.parameters()[name].data, p.data), name

    @pytest.mark.parametrize("fail_at", ["write_text", "replace"])
    def test_interrupted_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch, fail_at):
        path = tmp_path / "ck.txt"
        cio.save_checkpoint(path, tiny_model(seed=1), meta={"epoch": 1})
        before = path.read_bytes()

        def half_write(self, text):
            Path.write_bytes(self, text[:len(text) // 2].encode())
            raise OSError("disk full")

        def no_replace(src, dst):
            raise OSError("killed")

        if fail_at == "write_text":
            monkeypatch.setattr(Path, "write_text", half_write)
        else:
            monkeypatch.setattr(cio.os, "replace", no_replace)
        with pytest.raises(OSError):
            cio.save_checkpoint(path, tiny_model(seed=2), meta={"epoch": 2})
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["ck.txt"]

    @pytest.mark.parametrize("edit,named", [
        (lambda params: params.pop("rerep.final.w1"), r"missing \['rerep.final.w1'\]"),
        (lambda params: params.update(extra=np.zeros(2)), r"unexpected \['extra'\]")],
        ids=["missing", "unexpected"])
    def test_parameter_names_unlike_the_model_rejected(self, tmp_path, edit, named):
        path, _lines = saved_checkpoint(tmp_path)
        _cfg, params, _ = cio.load_checkpoint(path)
        edit(params)
        with pytest.raises(DimensionError, match=named):
            tiny_model().load_parameters(params)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "ck.txt"
        cio.save_checkpoint(path, model)
        _cfg, params, _ = cio.load_checkpoint(path)
        params["rerep.final.w1"] = params["rerep.final.w1"][:, :4]
        with pytest.raises(DimensionError):
            tiny_model().load_parameters(params)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ConfigError):
            cio.load_checkpoint(path)

    @pytest.mark.parametrize("first", ["condrep-checkpoint 2", "condrep-checkpoint",
                                       "condrep-checkpoint 1 1"])
    def test_unsupported_version_line_rejected(self, tmp_path, first):
        path, lines = saved_checkpoint(tmp_path)
        path.write_text("\n".join([first] + lines[1:]) + "\n")
        with pytest.raises(ConfigError, match="unsupported version line"):
            cio.load_checkpoint(path)

    def test_half_length_file_rejected(self, tmp_path):
        path, lines = saved_checkpoint(tmp_path)
        path.write_text("\n".join(lines[:len(lines) // 2]) + "\n")
        with pytest.raises(ConfigError):
            cio.load_checkpoint(path)

    def test_magic_only_file_rejected(self, tmp_path):
        path, lines = saved_checkpoint(tmp_path)
        path.write_text(lines[0] + "\n")
        with pytest.raises(ConfigError, match="header"):
            cio.load_checkpoint(path)

    @pytest.mark.parametrize("tail", [[], ["end"]])
    def test_truncated_block_names_tensor(self, tmp_path, tail):
        path, lines = saved_checkpoint(tmp_path)
        at = tensor_line(lines, "rerep.final.w1")
        path.write_text("\n".join(lines[:at + 3] + tail) + "\n")
        with pytest.raises(ConfigError, match="rerep.final.w1"):
            cio.load_checkpoint(path)

    def test_missing_end_line_rejected(self, tmp_path):
        path, lines = saved_checkpoint(tmp_path)
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ConfigError, match="truncated"):
            cio.load_checkpoint(path)

    # "1.5", "10" and "1e3" loaded as 1.3125, 16.0 and 483.0: float.fromhex
    # reads a token without the 0x prefix as hex digits
    @pytest.mark.parametrize("token", ["0xzz", "1.5.2", "0x1p99999", "1.5", "10", "1e3"])
    def test_bad_token_names_tensor(self, tmp_path, token):
        path, lines = saved_checkpoint(tmp_path)
        at = tensor_line(lines, "rerep.final.w1") + 1
        lines[at] = " ".join([token] + lines[at].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="rerep.final.w1"):
            cio.load_checkpoint(path)

    @pytest.mark.parametrize("header", ["tensor rerep.final.w1 2 8 x",
                                        "tensor rerep.final.w1 3 8 8",
                                        "tensor rerep.final.w1 2 -8 -8",
                                        "tensor"])
    def test_bad_tensor_header_rejected(self, tmp_path, header):
        path, lines = saved_checkpoint(tmp_path)
        lines[tensor_line(lines, "rerep.final.w1")] = header
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="tensor header"):
            cio.load_checkpoint(path)

    def test_extra_values_rejected(self, tmp_path):
        path, lines = saved_checkpoint(tmp_path)
        at = tensor_line(lines, "rerep.final.w1") + 1
        lines[at] += " 0x0.0p+0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="rerep.final.w1"):
            cio.load_checkpoint(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_tensor(self, tmp_path, value):
        path, lines = saved_checkpoint(tmp_path)
        at = tensor_line(lines, "conditional.bias") + 1
        lines[at] = value
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="conditional.bias.*non-finite"):
            cio.load_checkpoint(path)

    # the writer formats bits in one array pass; map(float.hex, ...) is its referee
    @pytest.mark.parametrize("values", [
        np.random.default_rng(0).normal(size=1001),
        [0.0, -0.0],
        [5e-324, -5e-324, 2.0 ** -1022, -2.0 ** -1022, np.nextafter(2.0 ** -1022, 0),
         -np.nextafter(2.0 ** -1022, 0)],
        [np.finfo(np.float64).max, -np.finfo(np.float64).max],
        [1.5, -3.0e5, 1e30, 2.0 ** -9, 1e-30, 2.0 ** 1000, -2.0 ** -1000],
        [np.inf, -np.inf, np.nan, -np.nan, 1.0]],
        ids=["normals", "signed_zeros", "subnormal_edges", "max_finite",
             "exponents_of_1_to_4_digits", "inf_nan"])
    def test_hex_lines_equal_float_hex(self, values):
        assert cio._hex_lines(np.asarray(values)) == float_hex_lines(values)

    def test_value_lines_are_float_hex_eight_per_line(self, tmp_path):
        model = tiny_model(seed=5)
        params = model.parameters()
        params["rerep.final.w1"].data.flat[:3] = [-0.0, 5e-324, 1e308]
        assert any(p.data.size % 8 for p in params.values())
        path = tmp_path / "ck.txt"
        cio.save_checkpoint(path, model)
        expected = []
        for name, p in sorted(params.items()):
            values = p.data.reshape(-1).tolist()
            dims = " ".join(str(d) for d in p.data.shape)
            expected.append(f"tensor {name} {p.data.ndim} {dims}".rstrip())
            expected.extend(" ".join(map(float.hex, values[i:i + 8]))
                            for i in range(0, len(values), 8))
        lines = path.read_text().splitlines()
        assert lines[2:-1] == expected
        assert lines[-1] == "end"
        _config, loaded, _meta = cio.load_checkpoint(path)
        for name, p in params.items():
            assert loaded[name].shape == p.data.shape, name
            assert loaded[name].tobytes() == p.data.tobytes(), name

    def test_non_finite_values_are_saved_as_float_hex_and_refused_on_load(self, tmp_path):
        model = tiny_model(seed=5)
        w1 = model.parameters()["rerep.final.w1"].data
        w1.flat[:3] = [np.inf, -np.inf, np.nan]
        path = tmp_path / "ck.txt"
        cio.save_checkpoint(path, model)
        lines = path.read_text().splitlines()
        at = tensor_line(lines, "rerep.final.w1") + 1
        assert "\n".join(lines[at:at + w1.size // 8]) == float_hex_lines(w1)
        assert lines[at].split()[:3] == ["inf", "-inf", "nan"]
        with pytest.raises(ConfigError, match="rerep.final.w1.*non-finite"):
            cio.load_checkpoint(path)

    def test_legacy_avg_pool_key_loads(self, tmp_path):
        # checkpoints from before max pooling was removed carry "pool": "avg"
        path, lines = saved_checkpoint(tmp_path)
        header = json.loads(lines[1][len("header "):])
        assert "pool" not in header["model_config"]["backbone"]
        header["model_config"]["backbone"]["pool"] = "avg"
        lines[1] = "header " + json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        config, _params, _meta = cio.load_checkpoint(path)
        assert config == tiny_model().config

    def test_max_pool_key_rejected(self, tmp_path):
        path, lines = saved_checkpoint(tmp_path)
        header = json.loads(lines[1][len("header "):])
        header["model_config"]["backbone"]["pool"] = "max"
        lines[1] = "header " + json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="'pool'"):
            cio.load_checkpoint(path)

    def test_malformed_header_rejected(self, tmp_path):
        path, lines = saved_checkpoint(tmp_path)
        lines[1] = 'header {"meta": {}}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="header"):
            cio.load_checkpoint(path)


def saved_checkpoint(tmp_path) -> tuple[Path, list[str]]:
    path = tmp_path / "ck.txt"
    cio.save_checkpoint(path, tiny_model())
    return path, path.read_text().splitlines()


def tensor_line(lines: list[str], name: str) -> int:
    return next(i for i, line in enumerate(lines) if line.startswith(f"tensor {name} "))


class TestConfig:
    def test_defaults_follow_stated_values(self):
        cfg = cio.resolve_config()
        assert cfg["batch_size"] == "80"
        assert cfg["learning_rate"] == "0.001"
        assert cfg["weight_decay"] == "0.05"
        assert cfg["episodes"] == "600"
        assert cfg["q_per_class"] == "15"
        assert cfg["image_size"] == "32"

    def test_file_and_override_precedence(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# comment\nepochs = 7\nseed=3\n")
        cfg = cio.resolve_config(f, {"seed": 9})
        assert cfg["epochs"] == "7" and cfg["seed"] == "9"

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("warp_speed=9\n")
        with pytest.raises(ConfigError):
            cio.resolve_config(f)

    def test_malformed_line_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("epochs\n")
        with pytest.raises(ConfigError, match="line 1"):
            cio.resolve_config(f)

    # the later line won silently: epochs=3 then epochs=5 trained 5 epochs
    def test_key_given_twice_in_a_file_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("epochs=3\n# comment\nseed=1\n epochs = 5\n")
        with pytest.raises(ConfigError, match=f"epochs is given twice in {f}, on lines 1 and 4"):
            cio.resolve_config(f)
        f.write_text("epochs=3\n")
        assert cio.resolve_config(f, {"epochs": 5})["epochs"] == "5"   # a flag still wins

    def test_hash_is_stable_and_order_free(self):
        a = cio.config_hash({"b": "2", "a": "1"})
        b = cio.config_hash({"a": "1", "b": "2"})
        assert a == b and len(a) == 16


def bad_values(key: str) -> tuple[str, str]:
    """One value of ``key`` that does not parse and one outside its range,
    both read off the config table."""
    kind, _default, rng = CONFIG_TABLE[key]
    if isinstance(rng, tuple):   # a number names nothing, and a list may not repeat a name
        return "1.5", f"{rng[0]},{rng[0]}" if kind.endswith(" list") else "none_such"
    op, lo = rng.split(" and ")[0].split()   # every range starts at its lower bound
    below = float(lo) - 1 if op == ">=" else float(lo)
    if kind == "float":
        return "x", repr(below)
    return ("3,x,3,3", f"3,3,3,{int(below)}") if kind == "4 ints" else ("1.5", str(int(below)))


class TestConfigTable:
    @pytest.mark.parametrize("key,value", [
        pytest.param(key, value, id=f"{key}-{what}") for key in CONFIG_TABLE
        for what, value in zip(("unparsable", "out_of_range"), bad_values(key))])
    def test_bad_value_exits_2_naming_its_key_before_any_output(self, tmp_path, capsys,
                                                                key, value):
        rc = main(["train", "--out", str(tmp_path / "run"), *TINY_FLAGS,
                   f"--{key.replace('_', '-')}", value])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: config: {key}" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_every_key_has_one_flag_with_its_range_and_a_readme_entry(self):
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        for command in ("gen-data", "train", "eval", "export-embeddings"):
            for key in CONFIG_TABLE:
                flags = [a for a in commands[command]._actions if a.dest == key]
                assert [a.option_strings for a in flags] == [[f"--{key.replace('_', '-')}"]]
                kind, default, rng = CONFIG_TABLE[key]
                shown = f"{kind} {rng}" if isinstance(rng, str) else f"{kind}: {'/'.join(rng)}"
                assert flags[0].help == f"{shown} (default {default})", (command, key)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert [key for key in CONFIG_TABLE if f"`{key}`" not in readme] == []
        assert [s for s in STRATEGIES if f"`{s}`" not in readme] == []

    def test_dataclass_defaults_are_the_table_defaults(self):
        # the library's defaults (as the acceptance fixtures build them) and
        # `condrep train`'s (from the table) must describe the same run
        assert cio.dataset_config_from(DEFAULT_CONFIG) == DatasetConfig()
        assert cio.model_config_from(DEFAULT_CONFIG) == ModelConfig()
        assert cio.train_config_from(DEFAULT_CONFIG) == training.TrainConfig()
        v = config_values(DEFAULT_CONFIG)
        for cls in (DatasetConfig, ModelConfig, training.TrainConfig):
            # every field is a table key, with the table's default
            assert {f.name: f.default for f in fields(cls)} \
                == {f.name: v[f.name] for f in fields(cls)}, cls.__name__
        suite = inspect.signature(evaluate.run_evaluation_suite).parameters
        assert {key: suite[key].default for key in ("n_way", "k_shot", "q_per_class",
                                                    "n_episodes", "strategies", "seed")} \
            == {"n_way": v["n_way"], "k_shot": v["k_shot"], "q_per_class": v["q_per_class"],
                "n_episodes": v["episodes"], "strategies": v["strategies"], "seed": v["seed"]}

    def test_resolved_config_is_the_strings_it_was_given(self):
        cfg = cio.resolve_config(None, {"seed": 7, "learning_rate": "1e-3", "epochs": " 4"})
        assert cfg == dict(DEFAULT_CONFIG, seed="7", learning_rate="1e-3", epochs=" 4")

    # each exited 2 only after making the output directory, exited 0 or 1, or
    # named no key: keys were parsed by bare int() and float() in four places
    # and the cross-key limits were met only while drawing batches or episodes
    @pytest.mark.parametrize("command,flags,message", [
        pytest.param("train", ["--n-classes", "1"],
                     "pair batches need n_classes >= 2, the pools hold 1",
                     id="train-n_classes-1"),
        pytest.param("train", ["--seed", "-1"], "config: seed must be >= 0, got -1",
                     id="train-seed"),
        pytest.param("gen-data", ["--seed", "-1"], "config: seed must be >= 0, got -1",
                     id="gen-data-seed"),
        pytest.param("train", ["--checkpoint-every", "x"],
                     "config: checkpoint_every = 'x' does not parse as int",
                     id="train-checkpoint_every-x"),
        pytest.param("train", ["--checkpoint-every", "-1"],
                     "config: checkpoint_every must be >= 0, got -1",
                     id="train-checkpoint_every-negative"),
        pytest.param("train", ["--epochs", "1.5"], "config: epochs = '1.5' does not parse as int",
                     id="train-epochs"),
        pytest.param("eval", ["--episodes", "1.5"],
                     "config: episodes = '1.5' does not parse as int", id="eval-episodes"),
        pytest.param("train", ["--image-size", "abc"],
                     "config: image_size = 'abc' does not parse as int", id="train-image_size"),
        pytest.param("eval", ["--n-way", "6"],
                     "episodes need n_classes >= n_way = 6, the pools hold 3",
                     id="eval-n_way"),
        pytest.param("eval", ["--n-way", "3", "--k-shot", "5"],
                     "episodes need support_per_class >= k_shot = 5, the pools hold 4",
                     id="eval-k_shot"),
        pytest.param("eval", ["--n-way", "3", "--q-per-class", "7"],
                     "episodes need query_per_class >= q_per_class = 7, the pools "
                     "hold 6", id="eval-q_per_class"),
        # a feature side equal to the image side built no block and exited 1
        # with an IndexError traceback
        pytest.param("train", ["--feature-side", "16"],
                     "config: image_size / feature_side must be a power of two >= 2 for "
                     "stride-2 blocks, got 16 / 16", id="train-feature_side-16")])
    def test_probe_input_exits_2_naming_key_and_value_before_any_output(
            self, tmp_path, capsys, command, flags, message):
        ckpt = tmp_path / "ckpt.txt"
        cio.save_checkpoint(ckpt, tiny_model())
        small = ["--epochs", "1", "--batches-per-epoch", "1", "--batch-size", "4",
                 "--episodes", "1"]
        extra = ["--checkpoint", str(ckpt)] if command == "eval" else []
        rc = main([command, "--out", str(tmp_path / "run"), *TINY_FLAGS, *small, *extra, *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    # loaded pools are counted after they load: train exited 2 from the first
    # pair batch, after making the output directory, and eval's error from
    # the first episode named no key
    @pytest.mark.parametrize("command,flags,message", [
        pytest.param("train", [], "pair batches need n_classes >= 2, the pools hold 1",
                     id="train"),
        pytest.param("eval", ["--n-way", "1", "--k-shot", "3"],
                     "episodes need support_per_class >= k_shot = 3, the pools hold 2",
                     id="eval")])
    def test_short_pools_exit_2_before_any_output(self, tmp_path, capsys, command, flags,
                                                  message):
        ckpt = tmp_path / "ckpt.txt"
        cio.save_checkpoint(ckpt, tiny_model())
        export_pools(build_dataset(DatasetConfig(seed=0, n_classes=1, image_size=16,
                                                 support_per_class=2, query_per_class=3)),
                     tmp_path / "data")
        extra = ["--checkpoint", str(ckpt)] if command == "eval" else []
        rc = main([command, "--out", str(tmp_path / "run"), "--data", str(tmp_path / "data"),
                   *TINY_FLAGS, "--q-per-class", "2", *extra, *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()


class TestCsvAndReport:
    def test_loss_csv_round_trip(self, tmp_path):
        path = tmp_path / "loss.csv"
        cio.write_loss_csv(path, [0.5, 0.25, 0.125])
        assert cio.read_loss_csv(path) == [(0, 0.5), (1, 0.25), (2, 0.125)]

    def test_loss_csv_row_count(self, tmp_path):
        path = tmp_path / "loss.csv"
        cio.write_loss_csv(path, list(np.linspace(1, 0, 50)))
        assert len(path.read_text().splitlines()) == 51

    def test_report_mean_matches_csv_average(self, tmp_path):
        rng = np.random.default_rng(0)
        reports = {s: EvalReport.from_accuracies(s, rng.uniform(size=20))
                   for s in ("classifier", "weighted_query")}
        csv_path, json_path = tmp_path / "acc.csv", tmp_path / "report.json"
        cio.write_accuracy_csv(csv_path, reports)
        cio.write_report_json(json_path, reports)
        columns = cio.read_accuracy_csv(csv_path)
        payload = json.loads(json_path.read_text())
        for name in reports:
            csv_mean = np.mean(columns[name])
            assert abs(payload["strategies"][name]["mean"] - csv_mean) < 1e-12

    def test_malformed_accuracy_csv_names_line(self, tmp_path):
        path = tmp_path / "acc.csv"
        path.write_text("episode,a\n0,0.5\n1,oops\n")
        with pytest.raises(ConfigError, match="line 3"):
            cio.read_accuracy_csv(path)

    @pytest.mark.parametrize("read,header", [(cio.read_accuracy_csv, "episode,a"),
                                             (cio.read_loss_csv, "epoch,mean_loss")],
                             ids=["accuracy", "loss"])
    def test_header_only_csv_rejected(self, tmp_path, read, header):
        path = tmp_path / "header_only.csv"
        path.write_text(header + "\n")
        with pytest.raises(ConfigError, match="no data rows"):
            read(path)


class TestPlots:
    def test_loss_curve_is_wellformed_svg(self, tmp_path):
        csv = tmp_path / "loss.csv"
        cio.write_loss_csv(csv, [1.0, 0.5, 0.4])
        root = ET.fromstring(loss_curve_svg(csv))
        assert root.tag.endswith("svg")

    def test_bar_heights_equal_csv_means(self, tmp_path):
        rng = np.random.default_rng(1)
        reports = {s: EvalReport.from_accuracies(s, rng.uniform(size=12))
                   for s in ("classifier", "weighted_query")}
        csv = tmp_path / "acc.csv"
        cio.write_accuracy_csv(csv, reports)
        root = ET.fromstring(accuracy_bars_svg(csv))
        rects = [el for el in root.iter() if el.tag.endswith("rect")
                 and "data-strategy" in el.attrib]
        assert len(rects) == 2
        columns = cio.read_accuracy_csv(csv)
        for rect in rects:
            mean = np.mean(columns[rect.attrib["data-strategy"]])
            assert float(rect.attrib["data-mean"]) == mean
            assert float(rect.attrib["height"]) == mean * PLOT_H

    def test_malformed_csv_fails(self, tmp_path):
        bad = tmp_path / "acc.csv"
        bad.write_text("episode,a\n0,nan_text\n")
        with pytest.raises(ConfigError):
            accuracy_bars_svg(bad)


class TestCli:
    def test_invalid_config_exits_2(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path), "--epochs", "0"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_gen_data_then_train_then_eval(self, tmp_path):
        data_dir = tmp_path / "data"
        run_dir = tmp_path / "run"
        rc = main(["gen-data", "--out", str(data_dir), *TINY_FLAGS])
        assert rc == 0
        rc = main(["train", "--out", str(run_dir), "--data", str(data_dir), *TINY_FLAGS,
                   "--epochs", "2", "--batch-size", "6", "--batches-per-epoch", "1"])
        assert rc == 0
        assert (run_dir / "checkpoint.txt").exists()
        loss_rows = cio.read_loss_csv(run_dir / "loss.csv")
        assert len(loss_rows) == 2
        rc = main(["eval", "--out", str(run_dir), "--data", str(data_dir), *TINY_FLAGS,
                   "--checkpoint", str(run_dir / "checkpoint.txt"),
                   "--n-way", "2", "--k-shot", "1", "--q-per-class", "2",
                   "--episodes", "3", "--strategies", "class_similarity,weighted_query",
                   "--with-baseline"])
        assert rc == 0
        payload = json.loads((run_dir / "report.json").read_text())
        assert payload["strategies"]["weighted_query"]["n_episodes"] == 3
        columns = cio.read_accuracy_csv(run_dir / "accuracy.csv")
        assert {len(v) for v in columns.values()} == {3}
        for name, stats in payload["strategies"].items():
            assert abs(stats["mean"] - np.mean(columns[name])) < 1e-12

    def test_rerun_is_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            run_dir = tmp_path / sub
            rc = main(["train", "--out", str(run_dir), *TINY_FLAGS,
                       "--epochs", "2", "--batch-size", "6", "--batches-per-epoch", "1",
                       "--seed", "5"])
            assert rc == 0
            outs.append(((run_dir / "loss.csv").read_bytes(),
                         (run_dir / "checkpoint.txt").read_bytes()))
        assert outs[0] == outs[1]

    def test_export_embeddings(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        rc = main(["train", "--out", str(run_dir), *TINY_FLAGS,
                   "--epochs", "1", "--batch-size", "4", "--batches-per-epoch", "1"])
        assert rc == 0
        calls, real_features = [], Model.features

        def counted_features(model, images):
            calls.append(len(images))
            return real_features(model, images)
        monkeypatch.setattr(Model, "features", counted_features)
        rc = main(["export-embeddings", "--out", str(run_dir), *TINY_FLAGS,
                   "--checkpoint", str(run_dir / "checkpoint.txt"), "--pool", "query"])
        assert rc == 0
        lines = (run_dir / "embeddings_query.csv").read_text().splitlines()
        assert lines[0].startswith("sample_id,class_id,pool,rep_0")
        assert lines[0].count("rep_") == 8 and lines[0].count("backbone_") == 8
        assert len(lines) == 1 + 3 * 6
        # one backbone call over the 18 queries and the 3 class references
        assert calls == [18 + 3]

        # reference: each sample and its class's first support mapped alone
        monkeypatch.setattr(Model, "features", real_features)
        model, _meta = cio.model_from_checkpoint(run_dir / "checkpoint.txt")
        ds = build_dataset(DatasetConfig(seed=0, n_classes=3, image_size=16,
                                         support_per_class=4, query_per_class=6))
        refs = {c: samples[0] for c, samples in ds.by_class("support").items()}
        with no_grad():
            for s, line in zip(ds.query, lines[1:]):
                ref_map = model.features(refs[s.class_id].image[None])
                smp_map = model.features(s.image[None])
                _fs, fq = re_represent_pair(ref_map, smp_map, model)
                expected = np.concatenate([fq.data[0], smp_map.data.mean(axis=(1, 2))[0]])
                sample_id, class_id, pool, *values = line.split(",")
                assert (sample_id, int(class_id), pool) == (s.sample_id, s.class_id, "query")
                # the conv runs one gemm per image, so a map's bits do not
                # depend on its batch, and the CSV's repr round-trips them
                np.testing.assert_array_equal(np.array(values, dtype=float), expected)

    @pytest.mark.parametrize("pool", ["query", "support"])
    def test_grouped_export_is_byte_identical_to_one_batch(self, tmp_path, monkeypatch, pool):
        ckpt = tmp_path / "checkpoint.txt"
        cio.save_checkpoint(ckpt, tiny_model(seed=3), {"seed": 3})
        ds = build_dataset(DatasetConfig(seed=0, n_classes=3, image_size=16,
                                         support_per_class=4, query_per_class=6))
        samples = ds.query if pool == "query" else ds.support
        refs = {c: group[0] for c, group in ds.by_class("support").items()}
        images = np.stack([refs[s.class_id].image for s in samples] + [s.image for s in samples])
        model, _meta = cio.model_from_checkpoint(ckpt)
        with no_grad():   # every image and every row in one batch
            ref_maps, smp_maps = np.split(training._distinct_features(model, images).data, 2)
            _fs, fq = re_represent_pair(Tensor(ref_maps), Tensor(smp_maps), model)
            base = smp_maps.mean(axis=(1, 2))
        expected = tmp_path / "expected.csv"
        cio.write_embeddings_csv(expected, [(s.sample_id, s.class_id, s.pool, rep, b)
                                            for s, rep, b in zip(samples, fq.data, base)],
                                 channels=8)
        # 16 KB of first conv output per 16 px image and two 256-byte maps per
        # pair: groups of 1 image and 5 pairs, then of 4 images and 128 pairs
        for budget in (5 * 512, 4 * 16 * 16 * 8 * 8):
            monkeypatch.setattr(evaluate, "_GROUP_BYTES", budget)
            rc = main(["export-embeddings", "--out", str(tmp_path / str(budget)), *TINY_FLAGS,
                       "--checkpoint", str(ckpt), "--pool", pool])
            assert rc == 0
            written = (tmp_path / str(budget) / f"embeddings_{pool}.csv").read_bytes()
            assert written == expected.read_bytes(), budget

    def test_plot_command(self, tmp_path):
        csv = tmp_path / "loss.csv"
        cio.write_loss_csv(csv, [1.0, 0.7])
        rc = main(["plot", "--loss-csv", str(csv), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "loss.svg").exists()

    # a header-only CSV exited 2 but left the output directory behind: plot
    # made it before reading the CSVs; a non-finite or out-of-range value
    # was drawn (as "nan" coordinates or a bar outside the axes) with exit 0
    @pytest.mark.parametrize("flag,text,message", [
        ("--accuracy-csv", "episode,a\n", "no data rows"),
        ("--loss-csv", "epoch,mean_loss\n", "no data rows"),
        ("--accuracy-csv", "episode,a\n0,0.5\n1,nan\n", "a accuracy nan on line 3 of {csv}"),
        ("--accuracy-csv", "episode,a\n0,7.5\n", "a accuracy 7.5 on line 2 of {csv}"),
        ("--accuracy-csv", "episode,a,b\n0,0.5,-2\n", "b accuracy -2.0 on line 2 of {csv}"),
        ("--loss-csv", "epoch,mean_loss\n0,1.0\n1,inf\n", "loss inf on line 3 of {csv}"),
        ("--loss-csv", "epoch,mean_loss\n0,nan\n", "loss nan on line 2 of {csv}"),
        # each was drawn with exit 0: one bar over both "a" columns, an
        # unlabelled bar, and a curve from x = -1550 labelled "epoch 0..0"
        ("--accuracy-csv", "episode,a,a\n0,1.0,0.0\n1,1.0,0.0\n",
         "column 3 of {csv} has the repeated strategy name 'a'"),
        ("--accuracy-csv", "episode,\n0,0.5\n", "column 2 of {csv} has an empty strategy name"),
        ("--loss-csv", "epoch,mean_loss\n5,2.0\n2,1.0\n0,0.5\n",
         "epoch 5 on line 2 of {csv}; the epochs must run 0, 1, 2, ... in order"),
        ("--loss-csv", "epoch,mean_loss\n0,2.0\n2,1.0\n", "epoch 2 on line 3 of {csv}")],
        ids=["accuracy", "loss", "accuracy-nan", "accuracy-above-1", "accuracy-negative",
             "loss-inf", "loss-nan", "accuracy-repeated-name", "accuracy-empty-name",
             "loss-epochs-out-of-order", "loss-epoch-skipped"])
    def test_plot_with_bad_csv_exits_2(self, tmp_path, capsys, flag, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        rc = main(["plot", flag, str(bad), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 2
        assert message.format(csv=bad) in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    # a strategy name with markup characters made an SVG no XML parser read
    def test_plot_escapes_strategy_names(self, tmp_path):
        csv = tmp_path / "acc.csv"
        csv.write_text('episode,a<b&"c\n0,0.5\n')
        rc = main(["plot", "--accuracy-csv", str(csv), "--out", str(tmp_path / "run")])
        assert rc == 0
        root = ET.parse(tmp_path / "run" / "accuracy.svg").getroot()
        assert [el.attrib["data-strategy"] for el in root.iter()
                if "data-strategy" in el.attrib] == ['a<b&"c']
        assert 'a<b&"c' in [el.text for el in root.iter() if el.tag.endswith("text")]

    def test_missing_checkpoint_exits_2(self, tmp_path):
        rc = main(["eval", "--out", str(tmp_path), "--checkpoint",
                   str(tmp_path / "nope.txt"), *TINY_FLAGS])
        assert rc == 2

    def test_truncated_checkpoint_exits_2_without_traceback(self, tmp_path):
        path, lines = saved_checkpoint(tmp_path)
        path.write_text("\n".join(lines[:len(lines) // 2]) + "\n")
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-m", "condrep.cli", "eval", "--out",
                               str(tmp_path / "run"), "--checkpoint", str(path), *TINY_FLAGS],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error: checkpoint:" in proc.stderr

    # it exited 0, evaluating with each "1.5" read as the hex value 1.3125
    def test_decimal_checkpoint_value_exits_2_before_making_the_output_directory(
            self, tmp_path, capsys):
        path, lines = saved_checkpoint(tmp_path)
        lines[tensor_line(lines, "backbone.block0.beta") + 1] = " ".join(["1.5"] * 8)
        path.write_text("\n".join(lines) + "\n")
        rc = main(["eval", "--out", str(tmp_path / "run"), "--checkpoint", str(path),
                   *TINY_FLAGS])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert "malformed or truncated tensor 'backbone.block0.beta'" in err
        assert not (tmp_path / "run").exists()

    # each exited 1 with a TypeError traceback from building the model, after
    # the checkpoint was parsed
    @pytest.mark.parametrize("key,value", [
        ("input_size", "16"), ("blocks", [["a", 2], [8, 2], [8, 2]]),
        ("kernel_shape", [3, "3", 3, 3]), ("feature_side", None), ("feature_channels", 8.0)],
        ids=["str_input_size", "str_block_width", "str_in_kernel_shape", "null_feature_side",
             "float_feature_channels"])
    def test_header_value_of_wrong_type_exits_2_without_traceback(self, tmp_path, capsys,
                                                                  key, value):
        path, lines = saved_checkpoint(tmp_path)
        header = json.loads(lines[1][len("header "):])
        config = header["model_config"]
        (config if key == "kernel_shape" else config["backbone"])[key] = value
        lines[1] = "header " + json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        rc = main(["eval", "--out", str(tmp_path / "run"), "--checkpoint", str(path),
                   *TINY_FLAGS])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert "error: checkpoint:" in err and "header line" in err

    # a block of one or three entries exited 2 with "not enough values to
    # unpack" (or "too many values"), naming neither the key nor the block;
    # the blocks and input channels now follow from the header's sizes, and
    # one that does not names a backbone no config builds
    @pytest.mark.parametrize("key,value,named", [
        ("blocks", [[8, 2], [8], [8, 2]], "backbone.blocks[1]"),
        ("blocks", [[8, 2], [8, 2, 1], [8, 2]], "backbone.blocks[1]"),
        ("blocks", [[8, 2], [16, 2], [8, 2]], "backbone.blocks[1]"),
        ("blocks", [[8, 2], [8, 2]], "backbone.blocks[2]"),
        ("blocks", [[8, 2], [8, 2], [8, 2], [8, 2]], "backbone.blocks[3]"),
        ("channels_in", 2, "backbone.channels_in"),
        ("feature_side", 0, "feature_side must be >= 2, got 0"),
        ("input_size", 8, "image_size must be >= 16, got 8")],
        ids=["one_entry", "three_entries", "wider_block", "missing_block", "extra_block",
             "channels_in_2", "feature_side_0", "input_size_8"])
    def test_header_backbone_not_derived_exits_2_naming_the_key(self, tmp_path, capsys,
                                                                 key, value, named):
        path, lines = saved_checkpoint(tmp_path)
        header = json.loads(lines[1][len("header "):])
        header["model_config"]["backbone"][key] = value
        lines[1] = "header " + json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        rc = main(["eval", "--out", str(tmp_path / "run"), "--checkpoint", str(path),
                   *TINY_FLAGS])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err and named in err
        assert not (tmp_path / "run").exists()

    def test_zero_episodes_exits_2_without_traceback_or_report(self, tmp_path):
        # it exited 0 with a report of mean 0.0 over 0 episodes and a
        # header-only accuracy.csv that `plot` then refused
        path, _lines = saved_checkpoint(tmp_path)
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-m", "condrep.cli", "eval", "--out",
                               str(tmp_path / "run"), "--checkpoint", str(path),
                               "--episodes", "0", *TINY_FLAGS],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error: config: episodes must be >= 1, got 0" in proc.stderr
        assert not (tmp_path / "run" / "report.json").exists()
        assert not (tmp_path / "run" / "accuracy.csv").exists()

    def test_empty_strategy_list_exits_2_without_report(self, tmp_path, capsys):
        path, _lines = saved_checkpoint(tmp_path)
        rc = main(["eval", "--out", str(tmp_path / "run"), "--checkpoint", str(path),
                   "--episodes", "1", "--strategies", ",", *TINY_FLAGS])
        assert rc == 2
        assert "no strategy" in capsys.readouterr().err
        assert not (tmp_path / "run" / "report.json").exists()
        assert not (tmp_path / "run" / "accuracy.csv").exists()

    def test_repeated_strategy_exits_2_without_traceback_or_accuracy_csv(self, tmp_path):
        # it exited 1 with an IndexError traceback from write_accuracy_csv
        path, _lines = saved_checkpoint(tmp_path)
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-m", "condrep.cli", "eval", "--out",
                               str(tmp_path / "run"), "--checkpoint", str(path),
                               "--n-way", "2", "--q-per-class", "2", "--episodes", "3",
                               "--strategies", "weighted_query,weighted_query",
                               "--with-baseline", *TINY_FLAGS],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "strategy 'weighted_query' is requested twice" in proc.stderr
        assert not (tmp_path / "run" / "accuracy.csv").exists()
        assert not (tmp_path / "run" / "report.json").exists()

    # each exited 2 but left the output directory behind: the dataset and
    # train configs were checked only after it was made (augment only at
    # the first batch)
    @pytest.mark.parametrize("command,flag,value,key", [
        ("train", "--augment", "foo", "augment"),
        ("train", "--mix-small", "nan", "mix_small"),
        ("train", "--lr-drop-factor", "0", "lr_drop_factor"),
        ("train", "--margin", "-1", "margin"),
        ("gen-data", "--mix-small", "nan", "mix_small"),
        ("eval", "--mix-small", "nan", "mix_small"),
        ("export-embeddings", "--blur-fraction", "2", "blur_fraction")])
    def test_invalid_config_exits_2_before_making_the_output_directory(
            self, tmp_path, capsys, command, flag, value, key):
        extra = ["--checkpoint", str(tmp_path / "none.txt")] \
            if command in ("eval", "export-embeddings") else []
        rc = main([command, "--out", str(tmp_path / "run"), *TINY_FLAGS, *extra, flag, value])
        err = capsys.readouterr().err
        assert rc == 2
        assert key in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_eval_reads_the_grid_from_the_checkpoint(self, tmp_path, capsys):
        # eval built a model config from the grid keys only to read its image
        # size, so a 28-pixel checkpoint failed with "cannot reach
        # feature_side 4" unless the unused --feature-side 7 was passed too
        cfg = ModelConfig(image_size=28, feature_side=7, feature_channels=8)
        cio.save_checkpoint(tmp_path / "ckpt.txt", Model.init(cfg, seed=0))
        flags = ["--checkpoint", str(tmp_path / "ckpt.txt"), "--n-classes", "3",
                 "--support-per-class", "2", "--query-per-class", "2", "--n-way", "2",
                 "--q-per-class", "2", "--episodes", "1"]
        rc = main(["eval", "--out", str(tmp_path / "run"), "--image-size", "28", *flags])
        assert rc == 0, capsys.readouterr().err
        rc = main(["eval", "--out", str(tmp_path / "run"), "--image-size", "32", *flags])
        assert rc == 2
        assert "checkpoint expects 28-pixel images, config says 32" in capsys.readouterr().err

    # eval compared the sizes only after making the output directory and
    # building the dataset; export-embeddings never compared them and failed
    # in the backbone, naming neither the checkpoint nor image_size
    @pytest.mark.parametrize("command", ["eval", "export-embeddings"])
    def test_checkpoint_of_another_image_size_exits_2_before_making_the_output_directory(
            self, tmp_path, capsys, command):
        ckpt = tmp_path / "ckpt16.txt"
        cio.save_checkpoint(ckpt, tiny_model())
        rc = main([command, "--out", str(tmp_path / "run"), "--checkpoint", str(ckpt),
                   *TINY_FLAGS, "--image-size", "32"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "image_size" in err and str(ckpt) in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    # each exited 2 but left the output directory behind: eval and
    # export-embeddings made it before loading the pools and computing
    @pytest.mark.parametrize("command,flags,message", [
        pytest.param("eval", ["--n-way", "4"],
                     "error: episodes need n_classes >= n_way = 4, the pools hold 3",
                     id="eval-n_way"),
        pytest.param("eval", ["--n-way", "2", "--k-shot", "5"],
                     "error: episodes need support_per_class >= k_shot = 5, the pools "
                     "hold 4", id="eval-k_shot"),
        pytest.param("eval", ["--seed", "-1", "--with-baseline"],
                     "error: config: seed must be >= 0, got -1", id="eval-seed"),
        pytest.param("eval", ["--strategies", ","],
                     "error: config: strategies is empty and --with-baseline is off: no "
                     "strategy and no baseline requested", id="eval-strategies"),
        pytest.param("eval", ["--strategies", "raw_query"], "unknown strategy 'raw_query'",
                     id="eval-raw_query"),
        pytest.param("eval", ["--config", "{tmp}/epsilon.cfg"], "error: config: unknown "
                     "key 'epsilon'", id="eval-epsilon"),
        pytest.param("eval", ["--config", "{tmp}/loss_variant.cfg"], "error: config: unknown "
                     "key 'loss_variant'", id="eval-loss_variant"),
        pytest.param("export-embeddings", ["--seed", "-1"],
                     "error: config: seed must be >= 0, got -1", id="export-embeddings-seed"),
        pytest.param("export-embeddings", ["--data", "{tmp}/empty"],
                     "error: load_pools: no class_* directories", id="export-embeddings-data")])
    def test_refused_run_exits_2_without_making_the_output_directory(
            self, tmp_path, capsys, command, flags, message):
        ckpt = tmp_path / "ckpt.txt"
        cio.save_checkpoint(ckpt, tiny_model())
        (tmp_path / "empty").mkdir()
        (tmp_path / "epsilon.cfg").write_text("epsilon=1e-8\n")
        (tmp_path / "loss_variant.cfg").write_text("loss_variant=standard\n")
        flags = [f.format(tmp=tmp_path) for f in flags]
        rc = main([command, "--out", str(tmp_path / "run"), "--checkpoint", str(ckpt),
                   "--episodes", "1", *TINY_FLAGS, *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    # a query class without a support sample raised KeyError and exited 1
    def test_pool_class_without_support_exits_2_without_making_the_output_directory(
            self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.txt"
        cio.save_checkpoint(ckpt, tiny_model())
        pools = tmp_path / "pools"
        export_pools(build_dataset(DatasetConfig(seed=0, n_classes=3, image_size=16,
                                                 support_per_class=4, query_per_class=6)),
                     pools)
        for path in (pools / "class_0002").glob("support_*"):
            path.unlink()
        rc = main(["export-embeddings", "--out", str(tmp_path / "run"), "--checkpoint",
                   str(ckpt), *TINY_FLAGS, "--data", str(pools)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "class 2 has no support sample" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_plot_without_a_csv_exits_2_before_making_the_output_directory(self, tmp_path,
                                                                            capsys):
        rc = main(["plot", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "--loss-csv and/or --accuracy-csv" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    # 0 divided by zero and a side above the image overflowed in
    # model_config_from; both exited 1 with a traceback
    @pytest.mark.parametrize("side", ["0", "64"])
    def test_feature_side_out_of_range_exits_2(self, tmp_path, capsys, side):
        rc = main(["train", "--out", str(tmp_path), *TINY_FLAGS, "--feature-side", side])
        assert rc == 2
        assert "feature_side" in capsys.readouterr().err

    def test_odd_feature_channels_exits_2_before_making_the_output_directory(self, tmp_path,
                                                                             capsys):
        # it built the dataset and the model and failed only in the first
        # conditional forward, after the output directory was made
        rc = main(["train", "--out", str(tmp_path / "run"), *TINY_FLAGS,
                   "--feature-channels", "9"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "feature_channels" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_non_finite_mix_exits_2_and_writes_no_pools(self, tmp_path, capsys):
        rc = main(["gen-data", "--out", str(tmp_path), *TINY_FLAGS, "--mix-camouflaged", "nan"])
        assert rc == 2
        assert "camouflaged" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_malformed_pool_directory_exits_2_without_traceback(self, tmp_path):
        path, _lines = saved_checkpoint(tmp_path)
        (tmp_path / "data" / "class_0").mkdir(parents=True)
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-m", "condrep.cli", "eval", "--out",
                               str(tmp_path / "run"), "--checkpoint", str(path),
                               "--data", str(tmp_path / "data"), *TINY_FLAGS],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error: load_pools:" in proc.stderr

    @pytest.mark.parametrize("defect", ["no_image_key", "nan_image", "float_mask",
                                        "out_of_range", "seed_pair", "float_seed",
                                        "str_seed", "nan_seed"])
    def test_bad_pool_image_exits_2_without_traceback(self, tmp_path, defect):
        # unchecked, a missing key exits 1 with a KeyError traceback, and an
        # all-NaN pool, a float mask or a 0-255 integer pool exits 0; a seed
        # pair exited 1 with a TypeError, and a 1.5 seed loaded as 1
        path, _lines = saved_checkpoint(tmp_path)
        ds = build_dataset(DatasetConfig(seed=0, n_classes=3, image_size=16,
                                         support_per_class=4, query_per_class=6))
        export_pools(ds, tmp_path / "data")
        for f in sorted((tmp_path / "data").glob("class_*/query_*.npz")):
            with np.load(f) as z:
                arrays = {k: z[k] for k in z.files}
            if defect == "no_image_key":
                del arrays["image"]
            elif defect == "nan_image":
                arrays["image"] = np.full_like(arrays["image"], np.nan)
            elif defect == "out_of_range":
                arrays["image"] = np.round(arrays["image"] * 255).astype(np.uint8)
            elif "seed" in defect:
                arrays["seed"] = {"seed_pair": np.array([1, 2]), "float_seed": np.float64(1.5),
                                  "str_seed": np.array("x"),
                                  "nan_seed": np.float64(np.nan)}[defect]
            else:
                arrays["mask"] = arrays["mask"].astype(np.float64)
            np.savez(f, **arrays)
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-m", "condrep.cli", "eval", "--out",
                               str(tmp_path / "run"), "--checkpoint", str(path),
                               "--data", str(tmp_path / "data"), *TINY_FLAGS],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error: load_pools:" in proc.stderr and "query_" in proc.stderr

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONDREP_OUTDIR", str(tmp_path / "envout"))
        csv = tmp_path / "loss.csv"
        cio.write_loss_csv(csv, [1.0, 0.7])
        rc = main(["plot", "--loss-csv", str(csv)])
        assert rc == 0
        assert (tmp_path / "envout" / "loss.svg").exists()
