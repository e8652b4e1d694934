"""Backbone feature extractor: shapes, determinism, gradient flow."""
from collections import Counter

import numpy as np
import pytest

from condrep import autodiff as ad
from condrep.autodiff import Tensor, backward
from condrep.backbone import extract_features, init_backbone
from condrep.exceptions import ConfigError, DimensionError
from condrep.io import model_config_from, resolve_config
from condrep.model import ModelConfig


def test_same_seed_gives_identical_parameters():
    cfg = ModelConfig()
    a = init_backbone(cfg, seed=3)
    b = init_backbone(cfg, seed=3)
    for name in a:
        assert np.array_equal(a[name].data, b[name].data)


def test_toy_default_spatial_arithmetic():
    # 32x32x1 input through 3 stride-2 blocks lands on a 4x4x32 map
    cfg = ModelConfig()
    cfg.validate()
    params = init_backbone(cfg, seed=0)
    img = np.random.default_rng(0).uniform(size=(2, 1, 32, 32))
    feats = extract_features(img, params, cfg)
    assert feats.shape == (2, 4, 4, 32)


@pytest.mark.parametrize("size,side,channels,blocks", [
    (32, 4, 32, (8, 16, 32)), (28, 7, 64, (32, 64)), (16, 2, 8, (8, 8, 8)),
    (16, 4, 16, (8, 16)), (64, 2, 16, (8, 8, 8, 8, 16))])
def test_blocks_derive_from_the_three_grid_keys(size, side, channels, blocks):
    # one stride-2 block per halving; widths double up to feature_channels,
    # never below 8
    cfg = ModelConfig(image_size=size, feature_side=side, feature_channels=channels)
    assert cfg.blocks == blocks
    assert [p.shape[0] for name, p in init_backbone(cfg, seed=0).items()
            if name.endswith(".kernel")] == list(blocks)


def test_inconsistent_spatial_arithmetic_rejected():
    with pytest.raises(ConfigError, match="power of two >= 2 for stride-2 blocks, got 30 / 4"):
        ModelConfig(image_size=30).validate()


def test_odd_feature_channels_rejected():
    # the conditional learner's sinusoid encoding pairs channels
    with pytest.raises(ConfigError, match="feature_channels"):
        ModelConfig(feature_channels=33).validate()


def test_zero_image_yields_finite_features():
    cfg = ModelConfig()
    params = init_backbone(cfg, seed=1)
    feats = extract_features(np.zeros((1, 1, 32, 32)), params, cfg)
    assert np.all(np.isfinite(feats.data))


def test_identical_images_give_identical_maps():
    cfg = ModelConfig()
    params = init_backbone(cfg, seed=2)
    img = np.random.default_rng(1).uniform(size=(1, 32, 32))
    feats = extract_features(np.stack([img, img]), params, cfg)
    assert np.array_equal(feats.data[0], feats.data[1])


@pytest.mark.parametrize("cfg", [
    ModelConfig(),
    model_config_from(resolve_config(None, {"image_size": "28", "feature_side": "7",
                                            "feature_channels": "64"})),
    ModelConfig(image_size=16, feature_side=2, feature_channels=8),
], ids=["32px_default", "28px_side7_c64", "16px_test"])
def test_map_does_not_depend_on_its_batch_at_shipped_configs(cfg):
    # training maps each distinct image once per batch and evaluation memoizes
    # maps of image subsets across episodes; both are bit-exact, and evaluation
    # inductive, because batch composition changes no bit of a map: the conv
    # runs one gemm per image and the axis-0 norm adds whole rows
    params = init_backbone(cfg, seed=0)
    images = np.random.default_rng(3).uniform(size=(80, 1, cfg.image_size, cfg.image_size))
    with ad.no_grad():
        batch = extract_features(images, params, cfg).data
        for i in range(len(images)):
            alone = extract_features(images[i:i + 1], params, cfg).data
            assert np.array_equal(alone[0], batch[i]), i
        subset = [3, 11, 12, 40, 57, 66, 79]
        assert np.array_equal(extract_features(images[subset], params, cfg).data, batch[subset])


def test_wrong_image_shape_rejected():
    cfg = ModelConfig()
    params = init_backbone(cfg, seed=0)
    with pytest.raises(DimensionError):
        extract_features(np.zeros((1, 1, 16, 16)), params, cfg)
    with pytest.raises(DimensionError):
        extract_features(np.zeros((1, 3, 32, 32)), params, cfg)


def test_extraction_is_pure_and_deterministic():
    cfg = ModelConfig()
    params = init_backbone(cfg, seed=4)
    img = np.random.default_rng(2).uniform(size=(3, 1, 32, 32))
    a = extract_features(img, params, cfg).data
    b = extract_features(img, params, cfg).data
    assert np.array_equal(a, b)


def test_gradients_reach_every_backbone_parameter():
    cfg = ModelConfig()
    params = init_backbone(cfg, seed=5)
    img = np.random.default_rng(3).uniform(size=(2, 1, 32, 32))
    feats = extract_features(img, params, cfg)
    loss = ad.sum_along(ad.mul(feats, feats))
    backward(loss)
    for name, p in params.items():
        assert p.grad is not None and np.any(p.grad != 0.0), name


def test_graph_is_channel_major_between_two_permutes():
    # the backbone permutes its input to (C, B, H, W) once and its output to
    # (B, H, W, C) once, and each block is one conv2d and one norm_relu_pool;
    # a per-block transpose, a pooling mean, or a separate norm, relu or pool
    # showing up means the layout or the fused block regressed
    cfg = ModelConfig()
    params = init_backbone(cfg, seed=0)
    img = Tensor(np.random.default_rng(5).uniform(size=(2, 1, 32, 32)), requires_grad=True)
    counts, seen, stack = Counter(), set(), [extract_features(img, params, cfg)._node]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node._edges:
            continue
        seen.add(id(node))
        counts[node._edges[0][1].__qualname__.split(".")[0]] += 1
        stack.extend(parent for parent, _ in node._edges)
    assert counts["permute"] == 2
    assert counts["max_pool2"] == 0 and counts["mean"] == 0
    assert counts["conv2d"] == counts["norm_relu_pool"] == len(cfg.blocks)
    assert sum(counts.values()) == 2 + 2 * len(cfg.blocks)

