"""Assembled model: backbone + conditional kernel + re-representation params."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .autodiff import Tensor
from .backbone import block_widths, extract_features, init_backbone
from .conditional import ConvKernel4D, init_conv_kernel
from .config import check_keys
from .exceptions import ConfigError, DimensionError
from .rerepresent import init_rerep_params


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 32
    feature_side: int = 4
    feature_channels: int = 32
    kernel_shape: tuple = (3, 3, 3, 3)
    structure: str = "siamese"

    @property
    def blocks(self) -> tuple[int, ...]:
        """Each stride-2 backbone block's output channels."""
        return block_widths(self.image_size, self.feature_side, self.feature_channels)

    def validate(self):
        check_keys(image_size=self.image_size, feature_channels=self.feature_channels,
                   feature_side=self.feature_side, kernel_shape=tuple(self.kernel_shape),
                   structure=self.structure)
        block_widths(self.image_size, self.feature_side, self.feature_channels)

    def to_dict(self) -> dict:
        """The checkpoint header: the backbone as sizes and (channels, stride) blocks."""
        return {
            "backbone": {
                "input_size": self.image_size,
                "channels_in": 1,
                "blocks": [[width, 2] for width in self.blocks],
                "feature_channels": self.feature_channels,
                "feature_side": self.feature_side,
            },
            "kernel_shape": list(self.kernel_shape),
            "structure": self.structure,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The config of a checkpoint header, whose blocks and input channels
        must be the ones its sizes derive."""
        bb = d["backbone"]
        # older checkpoints carry "pool": "avg"; any other value names a model
        # this backbone cannot run
        if bb.get("pool", "avg") != "avg":
            raise ConfigError(f"model: backbone key 'pool' = {bb['pool']!r} is not supported; "
                              f"the backbone only average-pools")
        sizes = [bb[k] for k in ("input_size", "channels_in", "feature_channels", "feature_side")]
        if any(type(v) is not int for v in sizes + [n for b in bb["blocks"] for n in b]
               + list(d["kernel_shape"])):
            raise TypeError("model: every size and shape entry must be an integer")
        config = cls(image_size=bb["input_size"], feature_side=bb["feature_side"],
                     feature_channels=bb["feature_channels"],
                     kernel_shape=tuple(d["kernel_shape"]), structure=d["structure"])
        config.validate()
        if bb["channels_in"] != 1:
            raise ConfigError(f"model: backbone.channels_in = {bb['channels_in']}, but the "
                              f"backbone reads one-channel images")
        derived = config.to_dict()["backbone"]["blocks"]
        for i, (got, want) in enumerate(zip_longest(bb["blocks"], derived, fillvalue="absent")):
            if got != want:
                raise ConfigError(f"model: backbone.blocks[{i}] is {got}, but input_size "
                                  f"{config.image_size}, feature_side {config.feature_side} "
                                  f"and feature_channels {config.feature_channels} derive "
                                  f"blocks {derived}")
        return config


class Model:
    """Holds the named trainable tensors and the config they were built for."""

    def __init__(self, config: ModelConfig, backbone: dict[str, Tensor],
                 kernel: ConvKernel4D, rerep: dict[str, Tensor]):
        self.config = config
        self.backbone = backbone
        self.kernel = kernel
        self.rerep = rerep

    @property
    def structure(self) -> str:
        return self.config.structure

    @classmethod
    def init(cls, config: ModelConfig | None = None, seed: int = 0) -> "Model":
        config = config or ModelConfig()
        config.validate()
        channels = config.feature_channels
        return cls(
            config=config,
            backbone=init_backbone(config, seed),
            kernel=init_conv_kernel(config.kernel_shape, seed,
                                    reduction_size=config.feature_side ** 2 * channels),
            rerep=init_rerep_params(channels, config.structure, seed),
        )

    def parameters(self) -> dict[str, Tensor]:
        out = {f"backbone.{k}": v for k, v in self.backbone.items()}
        out["conditional.kernel"] = self.kernel.weights
        out["conditional.bias"] = self.kernel.bias
        out.update({f"rerep.{k}": v for k, v in self.rerep.items()})
        return out

    def features(self, images) -> Tensor:
        """Backbone forward: images -> (B, W, H, C) prototype maps."""
        return extract_features(images, self.backbone, self.config)

    def load_parameters(self, values: dict[str, np.ndarray]):
        """Overwrite every named parameter; shapes must match exactly."""
        params = self.parameters()
        missing = sorted(set(params) - set(values))
        extra = sorted(set(values) - set(params))
        if missing or extra:
            raise DimensionError(f"model: parameter names do not match checkpoint "
                                 f"(missing {missing}, unexpected {extra})")
        for name, p in params.items():
            arr = np.asarray(values[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise DimensionError(f"model: parameter '{name}' has shape {p.data.shape}, "
                                     f"checkpoint holds {arr.shape}")
            p.data = arr.copy()
