"""Small convolutional feature extractor trained from scratch.

Maps a grayscale image to a W x H x C prototype feature map. Each block is
conv3x3 (stride 1, pad 1) -> norm over channels -> relu -> 2x2 average
pooling, so it halves the side. ``block_widths`` derives the blocks from
image_size, feature_side and feature_channels: the toy default turns a
32x32 input into a 4x4x32 map through blocks of 8, 16 and 32 channels.

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

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exceptions import ConfigError, DimensionError


def block_widths(image_size: int, feature_side: int, feature_channels: int) -> tuple[int, ...]:
    """Output channels of each stride-2 block that takes ``image_size`` to
    ``feature_side``: n blocks for a ratio of 2**n, block i emitting
    max(8, C // 2**(n-1-i)) channels and the last exactly C. ConfigError
    unless the ratio is a power of two >= 2."""
    ratio, rest = divmod(image_size, feature_side)
    if rest or ratio < 2 or ratio & (ratio - 1):
        raise ConfigError(f"config: image_size / feature_side must be a power of two >= 2 "
                          f"for stride-2 blocks, got {image_size} / {feature_side}")
    n = ratio.bit_length() - 1
    return tuple(max(8, feature_channels // 2 ** (n - 1 - i)) for i in range(n - 1)) \
        + (feature_channels,)


def init_backbone(config, seed: int) -> dict[str, Tensor]:
    """Kaiming-style fan-in scaled init of the blocks of ``config`` (a
    ``ModelConfig``), deterministic under ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([0x6B61, seed]))
    params: dict[str, Tensor] = {}
    cin = 1
    for i, cout in enumerate(config.blocks):
        fan_in = cin * 9
        params[f"block{i}.kernel"] = Tensor(
            rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(cout, cin, 3, 3)), requires_grad=True)
        params[f"block{i}.gamma"] = Tensor(np.ones(cout), requires_grad=True)
        params[f"block{i}.beta"] = Tensor(np.zeros(cout), requires_grad=True)
        cin = cout
    return params


def extract_features(images, params: dict[str, Tensor], config) -> Tensor:
    """Run the backbone of ``config`` (a ``ModelConfig``); returns the batch
    of prototype maps (B, W, H, C)."""
    x = ad.as_tensor(images)
    size = config.image_size
    if x.shape[1:] != (1, size, size):
        raise DimensionError(f"backbone: expected images (B,1,{size},{size}), got {x.shape}")
    x = ad.permute(x, (1, 0, 2, 3))
    for i in range(len(config.blocks)):
        x = ad.conv2d(x, params[f"block{i}.kernel"], padding=1)
        x = ad.norm_relu_pool(x, params[f"block{i}.gamma"], params[f"block{i}.beta"], 2)
    return ad.permute(x, (1, 2, 3, 0))

