"""Small convolutional feature extractor trained from scratch.

Maps a grayscale image to a W x H x C prototype feature map. Each block is
conv3x3 (stride 1, pad 1) -> norm over channels -> relu -> average
pooling with the block's stride. The toy default turns a 32x32 input into
a 4x4x32 map.

The backbone runs channel-major: the (B, C, H, W) input is permuted once
to (C, B, H, W), each block's two ops take and return that layout, and the
last block's output is permuted once to the batch of prototype maps the
conditional learner reads, stored rows first as (B, H, W, C). The conv
multiplies the kernel into each image's im2col columns with no transpose,
building them a cache-sized chunk of images at a time; it keeps no column
matrix for backward, and its kernel gradient rebuilds the matrix instead.
``norm_relu_pool`` runs the norm over axis 0, the relu and the pooling as
one op over chunks of whole images, and keeps for backward the normalized
input, a per-position inverse deviation and a 1-byte relu mask, not the
norm or relu outputs, nor the conv output it normalizes: that array dies
with the forward, since the autodiff graph keeps nodes, not tensors. No
op mixes images, so a map's bits do not depend on the batch it was
computed in. Kernels keep the (C_out, C_in, kh, kw) shape.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import check_keys
from .exceptions import ConfigError, DimensionError


@dataclass(frozen=True)
class BackboneConfig:
    input_size: int = 32
    channels_in: int = 1
    blocks: tuple = ((8, 2), (16, 2), (32, 2))   # (out_channels, pool stride) per block
    feature_channels: int = 32
    feature_side: int = 4

    def validate(self):
        check_keys(feature_channels=self.feature_channels, feature_side=self.feature_side)
        if not self.blocks:
            raise ConfigError("backbone: at least one block is required")
        side = self.input_size
        for i, block in enumerate(self.blocks):
            if not isinstance(block, (tuple, list)) or len(block) != 2 \
                    or any(type(n) is not int for n in block):
                raise ConfigError(f"backbone.blocks[{i}] must be a pair of ints "
                                  f"(out_channels, pool stride), got {block!r}")
            out_ch, stride = block
            if out_ch < 1 or stride < 1:
                raise ConfigError(f"backbone: block {i} has invalid (channels, stride) "
                                  f"({out_ch}, {stride})")
            if side % stride != 0:
                raise ConfigError(f"backbone: block {i} stride {stride} does not divide "
                                  f"spatial side {side}")
            side //= stride
        if side != self.feature_side:
            raise ConfigError(f"backbone: blocks map input {self.input_size} to side {side}, "
                              f"expected feature_side {self.feature_side}")
        if self.blocks[-1][0] != self.feature_channels:
            raise ConfigError(f"backbone: last block emits {self.blocks[-1][0]} channels, "
                              f"expected feature_channels {self.feature_channels}")


def init_backbone(config: BackboneConfig, seed: int) -> dict[str, Tensor]:
    """Kaiming-style fan-in scaled init, deterministic under ``seed``."""
    config.validate()
    rng = np.random.default_rng(np.random.SeedSequence([0x6B61, seed]))
    params: dict[str, Tensor] = {}
    cin = config.channels_in
    for i, (cout, _stride) in enumerate(config.blocks):
        fan_in = cin * 9
        params[f"block{i}.kernel"] = Tensor(
            rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(cout, cin, 3, 3)), requires_grad=True)
        params[f"block{i}.gamma"] = Tensor(np.ones(cout), requires_grad=True)
        params[f"block{i}.beta"] = Tensor(np.zeros(cout), requires_grad=True)
        cin = cout
    return params


def extract_features(images, params: dict[str, Tensor], config: BackboneConfig) -> Tensor:
    """Run the backbone; returns the batch of prototype maps (B, W, H, C)."""
    x = ad.as_tensor(images)
    if x.ndim != 4 or x.shape[1] != config.channels_in or \
            x.shape[2] != config.input_size or x.shape[3] != config.input_size:
        raise DimensionError(f"backbone: expected images (B,{config.channels_in},"
                             f"{config.input_size},{config.input_size}), got {x.shape}")
    x = ad.permute(x, (1, 0, 2, 3))
    for i, (cout, stride) in enumerate(config.blocks):
        x = ad.conv2d(x, params[f"block{i}.kernel"], padding=1)
        x = ad.norm_relu_pool(x, params[f"block{i}.gamma"], params[f"block{i}.beta"], stride)
    return ad.permute(x, (1, 2, 3, 0))

