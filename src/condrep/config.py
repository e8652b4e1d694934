"""The run config contract: one table that parses and checks every key.

Every model module and the CLI read their rules from here, and this module
imports nothing from the model, so any of them can import it at load time.
"""
from __future__ import annotations

import math
import operator

from .exceptions import ConfigError, DataError

STRUCTURES = ("siamese", "non_siamese", "non_residual")
STRATEGIES = ("individual_similarity", "class_similarity", "classifier", "weighted_query")
AUGMENT_MODES = ("none", "randcrop", "noise", "randaugment")
DIFFICULTY_TAGS = ("camouflaged", "small", "incomplete", "blurry_noisy")

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
_MIX = tuple(f"mix_{tag}" for tag in DIFFICULTY_TAGS)
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
