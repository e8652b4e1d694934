"""Persistence: checkpoints, run configs, CSV tables, and JSON reports.

Checkpoints are line-oriented text. Every value is written with
``float.hex`` so a save/load round trip reproduces each parameter
bit-exactly. No artifact carries a timestamp, so reruns with the same
config and seed are byte-identical.
"""
from __future__ import annotations

import hashlib
import json
import math
import operator
import os
from dataclasses import fields
from pathlib import Path

import numpy as np

from .backbone import BackboneConfig
from .data import AUGMENT_MODES, DatasetConfig
from .evaluate import STRATEGIES
from .exceptions import ConfigError, DataError
from .model import Model, ModelConfig
from .rerepresent import STRUCTURES
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
        flat = p.data.reshape(-1)
        for i in range(0, flat.size, 8):
            lines.append(" ".join(v.hex() for v in flat[i:i + 8]))
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
            values = [float.fromhex(tok) for tok in " ".join(lines[i + 1:j]).split()]
            params[name] = np.array(values, dtype=np.float64).reshape(shape)
            if not np.isfinite(params[name]).all():
                raise ValueError("non-finite values")
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
# run config: one table that parses and checks every key
# ---------------------------------------------------------------------------

# Each key's kind, default and range. A number's range is terms joined by
# " and ": ">= lo", "> lo", "<= hi", "even" or "odd"; a float must also be
# finite. A named kind takes one of the names in its range, and a list kind
# takes them comma-separated, each once. Defaults follow the reference setup
# where one exists; the 32-pixel toy input replaces its 224. CROSS_RULES
# below are (keys, holds, what must hold), checked once all their keys are given.
CONFIG_TABLE: dict[str, tuple[str, str, str | tuple]] = {
    "n_classes": ("int", "5", ">= 1"),
    "support_per_class": ("int", "20", ">= 1"),
    "query_per_class": ("int", "60", ">= 1"),
    "image_size": ("int", "32", ">= 16"),
    "blur_fraction": ("float", "0.05", ">= 0 and <= 1"),
    "mix_camouflaged": ("float", "0.25", ">= 0"),
    "mix_small": ("float", "0.25", ">= 0"),
    "mix_incomplete": ("float", "0.25", ">= 0"),
    "mix_blurry_noisy": ("float", "0.25", ">= 0"),
    "feature_channels": ("int", "32", ">= 8 and even"),   # the sinusoid encoding pairs them
    "feature_side": ("int", "4", ">= 2"),
    "kernel_shape": ("4 ints", "3,3,3,3", ">= 1 and odd"),
    "structure": ("structure", "siamese", STRUCTURES),
    "epochs": ("int", "50", ">= 1"),
    "batch_size": ("int", "80", ">= 1"),
    "batches_per_epoch": ("int", "12", ">= 0"),           # 0: from the support pool's size
    "learning_rate": ("float", "0.001", ">= 0"),
    "weight_decay": ("float", "0.05", ">= 0"),
    "lr_drop_every": ("int", "20", ">= 0"),               # 0: never
    "lr_drop_factor": ("float", "0.5", "> 0 and <= 1"),
    "margin": ("float", "1.0", "> 0"),
    "augment": ("augment mode", "randaugment", AUGMENT_MODES),
    "n_way": ("int", "5", ">= 1"),
    "k_shot": ("int", "1", ">= 1"),
    "q_per_class": ("int", "15", ">= 1"),
    "episodes": ("int", "600", ">= 1"),
    "strategies": ("strategy list", "weighted_query", STRATEGIES),
    "checkpoint_every": ("int", "10", ">= 0"),            # 0: the final checkpoint only
    "seed": ("int", "0", ">= 0"),
}
DEFAULT_CONFIG: dict[str, str] = {key: row[1] for key, row in CONFIG_TABLE.items()}
_MIX = ("mix_camouflaged", "mix_small", "mix_incomplete", "mix_blurry_noisy")
CROSS_RULES = ((_MIX, lambda *mix: abs(sum(mix) - 1.0) <= 1e-9, "the mix_* shares must sum to 1"),
               (("mix_blurry_noisy", "blur_fraction"), lambda mix, blur: mix == 0 or blur >= 0.05,
                "blur_fraction must be >= 0.05 while mix_blurry_noisy > 0"))
# what each use draws from the pools: (key or count, the pool count it may
# not exceed), over the classes that hold both support and query samples
POOL_RULES = {"pair batches": ((2, "n_classes"),),
              "episodes": (("n_way", "n_classes"), ("k_shot", "support_per_class"),
                           ("q_per_class", "query_per_class"))}
_CMP = {">=": operator.ge, ">": operator.gt, "<=": operator.le}
_PARSE = {"int": int, "float": float, "4 ints": lambda t: tuple(int(x) for x in t.split(",")),
          "strategy list": lambda t: tuple(s.strip() for s in t.split(",") if s.strip())}


def _in_range(value, rng: str) -> bool:
    return all(value % 2 == (term == "odd") if term in ("even", "odd")
               else _CMP[term[:2].strip()](value, float(term[2:])) for term in rng.split(" and "))


def config_values(cfg: dict[str, str]) -> dict:
    """Each key of ``cfg`` as its table type; ConfigError names one that does not parse."""
    out = {}
    for key, text in cfg.items():
        try:
            out[key] = _PARSE.get(CONFIG_TABLE[key][0], str)(text)
        except ValueError:
            raise ConfigError(f"config: {key} = {text!r} does not parse as "
                              f"{CONFIG_TABLE[key][0]}") from None
    return out


def check_keys(**values) -> None:
    """Check typed values by the table: each key's range, then each cross
    rule whose keys are all given. ConfigError names the key and its value."""
    for key, value in values.items():
        kind, _default, rng = CONFIG_TABLE[key]
        if isinstance(rng, tuple):
            names = list(value) if kind.endswith(" list") else [value]
            for i, name in enumerate(names):
                noun = f"{kind.removesuffix(' list')} {name!r}"
                if name not in rng:
                    raise ConfigError(f"config: {key}: unknown {noun} (choose {'/'.join(rng)})")
                if name in names[:i]:
                    raise ConfigError(f"config: {key}: {noun} is requested twice")
            continue
        items = value if kind == "4 ints" else [value]
        if (kind == "4 ints" and len(items) != 4) or not all(
                _in_range(v, rng) and (kind != "float" or math.isfinite(v)) for v in items):
            must = {"float": "finite and ", "4 ints": "4 ints "}.get(kind, "")
            raise ConfigError(f"config: {key} must be {must}{rng}, got {value!r}")
    for keys, holds, what in CROSS_RULES:
        if values.keys() >= set(keys) and not holds(*(values[k] for k in keys)):
            raise ConfigError(f"config: {what}, got "
                              + ", ".join(f"{key} = {values[key]!r}" for key in keys))


def check_pools(use: str, dataset, **values) -> None:
    """DataError if ``use`` (a POOL_RULES key) would draw more than ``dataset`` holds."""
    sup, qry = dataset.by_class("support"), dataset.by_class("query")
    classes = sorted(set(sup) & set(qry))
    have = {"n_classes": [(len(classes), "")],
            "support_per_class": [(len(sup[c]), f" for class {c}") for c in classes],
            "query_per_class": [(len(qry[c]), f" for class {c}") for c in classes]}
    for need, limit in POOL_RULES[use]:
        for count, where in have[limit]:
            if values.get(need, need) > count:
                named = f"{need} = {values[need]}" if need in values else need
                raise DataError(f"{use} need {limit} >= {named}, the pools hold {count}{where}")


def resolve_config(file_path=None, overrides: dict | None = None) -> dict[str, str]:
    """defaults < config file (``key=value`` lines) < explicit overrides; the
    table parses and checks every key, and ConfigError names the one at fault."""
    given = {}
    for lineno, raw in enumerate(Path(file_path).read_text().splitlines() if file_path else [], 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            if "=" not in line:
                raise ConfigError(f"config: line {lineno} is not key=value: '{raw}'")
            key, value = line.split("=", 1)
            given[key.strip()] = value.strip()
    given.update((k, str(v)) for k, v in (overrides or {}).items() if v is not None)
    if unknown := sorted(given.keys() - CONFIG_TABLE.keys()):
        raise ConfigError(f"config: unknown key '{unknown[0]}'")
    cfg = {**DEFAULT_CONFIG, **given}
    check_keys(**config_values(cfg))
    return cfg


def config_hash(cfg: dict[str, str]) -> str:
    canon = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def dataset_config_from(cfg: dict[str, str]):
    v = config_values(cfg)   # a field named for a key takes its value
    return DatasetConfig(**{f.name: v[f.name] for f in fields(DatasetConfig) if f.name in v},
                         transform_mix={key.removeprefix("mix_"): v[key] for key in _MIX})


def model_config_from(cfg: dict[str, str]) -> ModelConfig:
    v = config_values(cfg)
    size, side, channels = v["image_size"], v["feature_side"], v["feature_channels"]
    check_keys(image_size=size, feature_side=side)
    ratio, rest = divmod(size, side)
    if rest or ratio < 2 or ratio & (ratio - 1):
        raise ConfigError(f"config: image_size / feature_side must be a power of two >= 2 "
                          f"for stride-2 blocks, got {size} / {side}")
    n_blocks = ratio.bit_length() - 1
    widths = [max(8, channels // 2 ** (n_blocks - 1 - i)) for i in range(n_blocks)]
    widths[-1] = channels
    backbone = BackboneConfig(input_size=size, channels_in=1,
                              blocks=tuple((w, 2) for w in widths),
                              feature_channels=channels, feature_side=side)
    return ModelConfig(backbone=backbone, kernel_shape=v["kernel_shape"],
                       structure=v["structure"])


def train_config_from(cfg: dict[str, str]):
    v = config_values(cfg)   # a field named for a key takes its value
    return TrainConfig(**{f.name: v[f.name] for f in fields(TrainConfig) if f.name in v})


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
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            epoch, loss = line.split(",")
            out.append((int(epoch), float(loss)))
        except ValueError:
            raise ConfigError(f"loss csv: malformed line {lineno}: '{line}'")
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
    if not names or len([l for l in lines[1:] if l.strip()]) == 0:
        raise ConfigError(f"accuracy csv: no data rows in {path}")
    out: dict[str, list[float]] = {name: [] for name in names}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(names) + 1:
            raise ConfigError(f"accuracy csv: malformed line {lineno}: '{line}'")
        try:
            for name, val in zip(names, parts[1:]):
                out[name].append(float(val))
        except ValueError:
            raise ConfigError(f"accuracy csv: malformed line {lineno}: '{line}'")
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
