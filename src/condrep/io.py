"""Persistence: checkpoints, run configs, CSV tables, and JSON reports.

Checkpoints are line-oriented text. Every value is written with
``float.hex``, eight to a line, so a save/load round trip reproduces each
parameter bit-exactly. Each tensor is formatted from one ``tolist()`` and
parsed back with one ``map(float.fromhex, ...)`` over its tokens; a token
without the ``0x`` prefix that ``float.hex`` writes (``1.5``, ``10``) is
refused rather than read as hex. No artifact carries a timestamp, so
reruns with the same config and seed are byte-identical.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import CONFIG_TABLE, DEFAULT_CONFIG, check_keys, config_values
from .data import DatasetConfig
from .exceptions import ConfigError
from .model import Model, ModelConfig
from .training import TrainConfig

CHECKPOINT_MAGIC = "condrep-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, model: Model, meta: dict | None = None) -> None:
    """Write beside ``path``, then replace it: a failed write keeps the old file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}"]
    header = {"model_config": model.config.to_dict(), "meta": dict(meta or {})}
    lines.append("header " + json.dumps(header, sort_keys=True))
    for name, p in sorted(model.parameters().items()):
        dims = " ".join(str(d) for d in p.data.shape)
        lines.append(f"tensor {name} {p.data.ndim} {dims}".rstrip())
        values = list(map(float.hex, p.data.reshape(-1).tolist()))
        lines.extend(" ".join(values[i:i + 8]) for i in range(0, len(values), 8))
    lines.append("end")
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray], dict]:
    """Parse a checkpoint. Malformed, truncated or non-finite content raises
    ConfigError naming the part of the file at fault."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith(CHECKPOINT_MAGIC):
        raise ConfigError(f"checkpoint: {path} is not a {CHECKPOINT_MAGIC} file")
    if lines[0].split()[1:] != [str(CHECKPOINT_VERSION)]:
        raise ConfigError(f"checkpoint: unsupported version line '{lines[0][:40]}'")
    part, params = "header line", {}
    try:
        if not lines[1].startswith("header "):
            raise ValueError("missing")
        header = json.loads(lines[1][len("header "):])
        config, meta = ModelConfig.from_dict(header["model_config"]), header["meta"]
        i = 2
        while lines[i] != "end":
            part = f"tensor header on line {i + 1}"
            kind, name, ndim, *dims = lines[i].split()
            shape = tuple(int(d) for d in dims)
            if kind != "tensor" or int(ndim) != len(shape) or min(shape, default=0) < 0 \
                    or name in params:
                raise ValueError(lines[i][:60])
            part, j = f"tensor '{name}'", i + 1
            while lines[j] != "end" and not lines[j].startswith("tensor"):
                j += 1
            text = " ".join(lines[i + 1:j])
            tokens = text.split()
            values = np.fromiter(map(float.fromhex, tokens), np.float64, len(tokens))
            params[name] = values.reshape(shape)
            if not np.isfinite(params[name]).all():
                raise ValueError("non-finite values")
            if text.count("0x") != len(tokens):   # fromhex takes "0x" once, as a prefix
                raise ValueError("a value lacks the 0x prefix that float.hex writes")
            i = j
    except (IndexError, KeyError, TypeError, ValueError, OverflowError) as exc:
        # every step above fails only on a malformed or cut-off file
        raise ConfigError(f"checkpoint: {path}: malformed or truncated {part} ({exc})") from None
    return config, params, meta


def model_from_checkpoint(path) -> tuple[Model, dict]:
    config, params, meta = load_checkpoint(path)
    model = Model.init(config, seed=0)
    model.load_parameters(params)
    return model, meta


# ---------------------------------------------------------------------------
# run config: resolved from the config table, then built into dataclasses
# ---------------------------------------------------------------------------

def resolve_config(file_path=None, overrides: dict | None = None) -> dict[str, str]:
    """defaults < config file (``key=value`` lines, each key once) < explicit overrides; the
    table parses and checks every key, and ConfigError names the one at fault."""
    given, line_of = {}, {}
    for lineno, raw in enumerate(Path(file_path).read_text().splitlines() if file_path else [], 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            if "=" not in line:
                raise ConfigError(f"config: line {lineno} is not key=value: '{raw}'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in line_of:
                raise ConfigError(f"config: {key} is given twice in {file_path}, on lines "
                                  f"{line_of[key]} and {lineno}")
            given[key], line_of[key] = value, lineno
    given.update((k, str(v)) for k, v in (overrides or {}).items() if v is not None)
    if unknown := sorted(given.keys() - CONFIG_TABLE.keys()):
        raise ConfigError(f"config: unknown key '{unknown[0]}'")
    cfg = {**DEFAULT_CONFIG, **given}
    check_keys(**config_values(cfg))
    return cfg


def config_hash(cfg: dict[str, str]) -> str:
    canon = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _config_from(cls, cfg: dict[str, str]):
    """``cls`` with each field set to the value of the key it is named for, checked."""
    v = config_values(cfg)
    config = cls(**{f.name: v[f.name] for f in fields(cls)})
    config.validate()
    return config


def dataset_config_from(cfg: dict[str, str]) -> DatasetConfig:
    return _config_from(DatasetConfig, cfg)


def model_config_from(cfg: dict[str, str]) -> ModelConfig:
    return _config_from(ModelConfig, cfg)


def train_config_from(cfg: dict[str, str]) -> TrainConfig:
    return _config_from(TrainConfig, cfg)


# ---------------------------------------------------------------------------
# CSV and report writers
# ---------------------------------------------------------------------------

def write_loss_csv(path, losses) -> None:
    lines = ["epoch,mean_loss"]
    lines.extend(f"{i},{loss!r}" for i, loss in enumerate(losses))
    Path(path).write_text("\n".join(lines) + "\n")


def read_loss_csv(path) -> list[tuple[int, float]]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "epoch,mean_loss":
        raise ConfigError(f"loss csv: bad header in {path}")
    if len(lines) == 1:
        raise ConfigError(f"loss csv: no data rows in {path}")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            epoch, loss = line.split(",")
            epoch, loss = int(epoch), float(loss)
        except ValueError:
            raise ConfigError(f"loss csv: malformed line {lineno}: '{line}'")
        if not np.isfinite(loss):
            raise ConfigError(f"loss csv: non-finite loss {loss!r} on line {lineno} of {path}")
        if epoch != len(out):   # write_loss_csv numbers the epochs from 0
            raise ConfigError(f"loss csv: epoch {epoch} on line {lineno} of {path}; the "
                              f"epochs must run 0, 1, 2, ... in order, so it must be {len(out)}")
        out.append((epoch, loss))
    return out


def write_accuracy_csv(path, reports: dict) -> None:
    """Per-episode accuracies, one column per strategy, shared episode rows."""
    names = sorted(reports)
    lines = ["episode," + ",".join(names)]
    n = max((r.n_episodes for r in reports.values()), default=0)
    for i in range(n):
        row = [str(i)]
        row.extend(repr(reports[s].per_episode_accuracy[i]) for s in names)
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_accuracy_csv(path) -> dict[str, list[float]]:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("episode,"):
        raise ConfigError(f"accuracy csv: bad header in {path}")
    names = lines[0].split(",")[1:]
    for col, name in enumerate(names, start=2):
        if not name or name in names[:col - 2]:
            raise ConfigError(f"accuracy csv: column {col} of {path} has "
                              + (f"the repeated strategy name {name!r}" if name
                                 else "an empty strategy name"))
    if not any(line.strip() for line in lines[1:]):
        raise ConfigError(f"accuracy csv: no data rows in {path}")
    out: dict[str, list[float]] = {name: [] for name in names}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(names) + 1:
            raise ConfigError(f"accuracy csv: malformed line {lineno}: '{line}'")
        try:
            values = [float(val) for val in parts[1:]]
        except ValueError:
            raise ConfigError(f"accuracy csv: malformed line {lineno}: '{line}'")
        for name, val in zip(names, values):
            if not 0.0 <= val <= 1.0:   # also refuses nan
                raise ConfigError(f"accuracy csv: {name} accuracy {val!r} on line {lineno} of "
                                  f"{path} is not in [0, 1]")
            out[name].append(val)
    return out


def write_report_json(path, reports: dict, run_config: dict | None = None) -> None:
    payload = {
        "strategies": {
            name: {
                "mean": r.mean,
                "ci95": r.ci95,
                "n_episodes": r.n_episodes,
                "per_episode_accuracy": r.per_episode_accuracy,
                "config": r.config,
            } for name, r in reports.items()
        },
        "run_config": dict(run_config or {}),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def write_embeddings_csv(path, rows, channels: int) -> None:
    """rows: iterable of (sample_id, class_id, pool, rep_vector, backbone_vector)."""
    header = ["sample_id", "class_id", "pool"]
    header += [f"rep_{i}" for i in range(channels)]
    header += [f"backbone_{i}" for i in range(channels)]
    lines = [",".join(header)]
    for sample_id, class_id, pool, rep, base in rows:
        parts = [str(sample_id), str(class_id), pool]
        parts.extend(repr(float(v)) for v in rep)
        parts.extend(repr(float(v)) for v in base)
        lines.append(",".join(parts))
    Path(path).write_text("\n".join(lines) + "\n")
