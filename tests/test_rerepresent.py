"""Re-representation learner: fusion, compression, self-attention, pooling,
the three structure variants, and the pair head's batch invariance and
recorded graph."""
import sys
from collections import Counter

import numpy as np
import pytest

from condrep import autodiff as ad
from condrep import io as cio
from condrep.autodiff import Tensor, backward, no_grad
from condrep.exceptions import ConfigError, DimensionError
from condrep.model import Model, ModelConfig
from condrep.conditional import conditional_forward
from condrep.config import DEFAULT_CONFIG
from condrep.rerepresent import (finalize_vector, fuse_conditional, init_rerep_params,
                                 mlp_compress, re_represent_pair, self_attend)
from referees import fd_gradient_oracle, max_relative_error

C = 8


@pytest.fixture()
def params():
    return init_rerep_params(C, "siamese", seed=0)


def tiny_model(structure="siamese", seed=0):
    cfg = ModelConfig(image_size=8, feature_side=2, feature_channels=8,
                      kernel_shape=(3, 3, 3, 3), structure=structure)
    return Model.init(cfg, seed=seed)


class TestFuse:
    # feature rows (..., T, C) and the conditional column (..., T, 1)
    def test_zero_matrix_keeps_feature_channels(self):
        f = np.random.default_rng(0).normal(size=(4, C))
        fused = fuse_conditional(Tensor(f), Tensor(np.zeros((4, 1))))
        np.testing.assert_array_equal(fused.data[..., :C], f)
        np.testing.assert_array_equal(fused.data[..., C], np.zeros(4))

    def test_shape(self):
        fused = fuse_conditional(Tensor(np.zeros((16, 32))), Tensor(np.zeros((16, 1))))
        assert fused.shape == (16, 33)

    def test_round_trip_slice(self):
        w = np.random.default_rng(1).normal(size=(9, 1))
        fused = fuse_conditional(Tensor(np.zeros((9, C))), Tensor(w))
        np.testing.assert_array_equal(fused.data[..., C:], w)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            fuse_conditional(Tensor(np.zeros((4, C))), Tensor(np.zeros((9, 1))))
        with pytest.raises(DimensionError):
            fuse_conditional(Tensor(np.zeros((4, C))), Tensor(np.zeros((4, 2))))


class TestMlpCompress:
    def test_constructed_identity(self, params):
        params = dict(params)
        params["compress.weight"] = Tensor(np.vstack([np.eye(C), np.zeros((1, C))]))
        params["compress.bias"] = Tensor(np.zeros(C))
        f = np.abs(np.random.default_rng(2).normal(size=(4, C)))
        fused = fuse_conditional(Tensor(f), Tensor(np.zeros((4, 1))))
        out = mlp_compress(fused, params)
        np.testing.assert_array_equal(out.data, f)

    def test_zero_params_give_zero_output(self, params):
        params = dict(params)
        params["compress.weight"] = Tensor(np.zeros((C + 1, C)))
        params["compress.bias"] = Tensor(np.zeros(C))
        out = mlp_compress(Tensor(np.random.default_rng(3).normal(size=(4, C + 1))), params)
        np.testing.assert_array_equal(out.data, np.zeros((4, C)))

    def test_matches_per_position_oracle(self, params):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, C + 1))
        out = mlp_compress(Tensor(x), params)
        w, b = params["compress.weight"].data, params["compress.bias"].data
        expected = np.maximum(x @ w + b, 0.0)
        np.testing.assert_allclose(out.data, expected, atol=1e-9)

    def test_param_shape_mismatch_rejected(self, params):
        with pytest.raises(DimensionError):
            mlp_compress(Tensor(np.zeros((4, C + 2))), params)


class TestSelfAttend:
    def test_single_position_with_identity_value(self, params):
        params = dict(params)
        params["attn.wv"] = Tensor(np.eye(C))
        x = np.random.default_rng(5).normal(size=(1, C))
        out = self_attend(Tensor(x), params)
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_zero_logits_average_value_rows(self, params):
        params = dict(params)
        params["attn.wq"] = Tensor(np.zeros((C, C)))
        params["attn.wk"] = Tensor(np.zeros((C, C)))
        x = np.random.default_rng(6).normal(size=(5, C))
        out = self_attend(Tensor(x), params)
        expected = np.broadcast_to((x @ params["attn.wv"].data).mean(axis=0), (5, C))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_matches_naive_oracle(self, params):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, C))
        out = self_attend(Tensor(x), params)
        q = x @ params["attn.wq"].data
        k = x @ params["attn.wk"].data
        v = x @ params["attn.wv"].data
        s = q @ k.T / np.sqrt(C)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        expected = (e / e.sum(axis=-1, keepdims=True)) @ v
        np.testing.assert_allclose(out.data, expected, atol=1e-9)

    def test_param_shape_mismatch_rejected(self, params):
        params = dict(params)
        params["attn.wq"] = Tensor(np.zeros((C, C + 1)))
        with pytest.raises(DimensionError):
            self_attend(Tensor(np.zeros((4, C))), params)


class TestFinalizeVector:
    def test_zero_attention_reduces_to_mlp_ln_pooled(self, params):
        rng = np.random.default_rng(8)
        fp = rng.normal(size=(4, C))
        out = finalize_vector(Tensor(fp), Tensor(np.zeros((4, C))), params)
        mu = fp.mean(axis=-1, keepdims=True)
        var = fp.var(axis=-1, keepdims=True)
        xhat = (fp - mu) / np.sqrt(var + 1e-5)
        x = params["final.gamma"].data * xhat + params["final.beta"].data
        h = np.maximum(x @ params["final.w1"].data + params["final.b1"].data, 0.0)
        y = h @ params["final.w2"].data
        np.testing.assert_allclose(out.data, y.mean(axis=0), atol=1e-9)

    def test_constant_positions_pool_to_per_position_output(self, params):
        row = np.random.default_rng(9).normal(size=C)
        fp = np.tile(row, (6, 1))
        pooled = finalize_vector(Tensor(fp), Tensor(np.zeros((6, C))), params)
        single = finalize_vector(Tensor(row[None]), Tensor(np.zeros((1, C))), params)
        np.testing.assert_allclose(pooled.data, single.data, atol=1e-12)

    def test_permutation_invariance_of_pooled_output(self, params):
        rng = np.random.default_rng(10)
        fp = rng.normal(size=(5, C))
        perm = rng.permutation(5)
        out = finalize_vector(Tensor(fp), self_attend(Tensor(fp), params), params)
        out_p = finalize_vector(Tensor(fp[perm]), self_attend(Tensor(fp[perm]), params), params)
        np.testing.assert_allclose(out.data, out_p.data, atol=1e-12)

    def test_shape_mismatch_rejected(self, params):
        with pytest.raises(DimensionError):
            finalize_vector(Tensor(np.zeros((4, C))), Tensor(np.zeros((3, C))), params)


class TestRepresentPair:
    def test_siamese_swap_symmetry_bit_exact(self):
        model = tiny_model()
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(2, 2, 8)))
        b = Tensor(rng.normal(size=(2, 2, 8)))
        fa, fb = re_represent_pair(a, b, model)
        gb, ga = re_represent_pair(b, a, model)
        assert np.array_equal(fa.data, ga.data)
        assert np.array_equal(fb.data, gb.data)

    def test_equal_inputs_give_equal_vectors(self):
        model = tiny_model()
        f = Tensor(np.random.default_rng(12).normal(size=(2, 2, 8)))
        fs, fq = re_represent_pair(f, f, model)
        assert np.array_equal(fs.data, fq.data)

    def test_non_residual_output_dimensionality(self):
        model = tiny_model("non_residual")
        rng = np.random.default_rng(13)
        fs, fq = re_represent_pair(Tensor(rng.normal(size=(2, 2, 8))),
                                   Tensor(rng.normal(size=(2, 2, 8))), model)
        assert fs.shape == (8,) and fq.shape == (8,)

    def test_non_siamese_runs_and_breaks_symmetry(self):
        model = tiny_model("non_siamese")
        rng = np.random.default_rng(14)
        a = Tensor(rng.normal(size=(2, 2, 8)))
        b = Tensor(rng.normal(size=(2, 2, 8)))
        fa, fb = re_represent_pair(a, b, model)
        gb, ga = re_represent_pair(b, a, model)
        assert not np.array_equal(fa.data, ga.data)

    def test_unknown_structure_rejected(self):
        with pytest.raises(ConfigError, match="unknown structure"):
            Model.init(ModelConfig(structure="double"))

    def test_batched_matches_single(self):
        model = tiny_model()
        rng = np.random.default_rng(15)
        fs = rng.normal(size=(3, 2, 2, 8))
        fq = rng.normal(size=(3, 2, 2, 8))
        bs, bq = re_represent_pair(Tensor(fs), Tensor(fq), model)
        for i in range(3):
            ss, sq = re_represent_pair(Tensor(fs[i]), Tensor(fq[i]), model)
            assert np.array_equal(bs.data[i], ss.data)
            assert np.array_equal(bq.data[i], sq.data)

    def test_full_graph_stays_finite(self):
        # forward + backward over the complete pair pipeline on random inputs
        model = tiny_model(seed=2)
        rng = np.random.default_rng(17)
        for _ in range(3):
            images = rng.uniform(size=(4, 1, 8, 8))
            feats = model.features(Tensor(images, requires_grad=True))
            fs, fq = re_represent_pair(ad.index_axis(feats, 0, 0),
                                       ad.index_axis(feats, 0, 1), model)
            diff = ad.sub(fs, fq)
            loss = ad.sum_along(ad.mul(diff, diff))
            assert np.isfinite(loss.item())
            backward(loss)
            for name, p in model.parameters().items():
                assert p.grad is None or np.all(np.isfinite(p.grad)), name

    @pytest.mark.parametrize("param_name", [
        "rerep.compress.weight", "rerep.attn.wq", "rerep.final.w1", "rerep.final.b1",
        "conditional.kernel", "conditional.bias", "backbone.block0.kernel",
    ])
    def test_pair_distance_gradients_match_fd(self, param_name):
        # end-to-end gradient of ||Fs - Fq||^2 through the full pair pipeline;
        # the kernel is bumped to a trained-like scale first, because the
        # near-flat init is ~1e-5 and a 1e-3 fd step there is pure truncation
        model = tiny_model(seed=1)
        rng = np.random.default_rng(16)
        model.kernel.weights.data[:, :, 1, 1] = rng.normal(0, 0.05, size=(3, 3))
        images = rng.uniform(size=(2, 1, 8, 8))

        def loss_from(model):
            feats = model.features(Tensor(images))
            fs_map = ad.index_axis(feats, 0, 0)
            fq_map = ad.index_axis(feats, 0, 1)
            fs, fq = re_represent_pair(fs_map, fq_map, model)
            diff = ad.sub(fs, fq)
            return ad.sum_along(ad.mul(diff, diff))

        target = model.parameters()[param_name]
        backward(loss_from(model))
        analytic = target.grad.copy()

        def f(t):
            saved = target.data
            target.data = np.asarray(t.data, dtype=np.float64)
            try:
                return loss_from(model)
            finally:
                target.data = saved

        fd = fd_gradient_oracle(f, target)
        assert max_relative_error(analytic, fd) < 1e-4, param_name


# the shipped default (32 px, 4x4x32), the 7x7x64 grid at 28 px, and the
# 16 px test model
HEAD_CONFIGS = {"32px": {}, "28px-7x7x64": {"image_size": "28", "feature_side": "7",
                                            "feature_channels": "64"},
                "16px": {"image_size": "16", "feature_channels": "8", "feature_side": "2"}}


@pytest.mark.parametrize("structure", ["siamese", "non_siamese", "non_residual"])
@pytest.mark.parametrize("config", HEAD_CONFIGS)
def test_pairs_do_not_depend_on_their_batch(config, structure):
    # every contraction of the head runs per pair and every norm per row, so a
    # pair's vectors are the same bits alone, in any sub-batch and in any order
    cfg = cio.model_config_from(dict(DEFAULT_CONFIG, structure=structure,
                                     **HEAD_CONFIGS[config]))
    model = Model.init(cfg, seed=3)
    k = model.kernel.weights.data
    k[:, :, 1, 1] = np.random.default_rng(1).normal(0, 0.05, size=k.shape[:2])
    side, c = cfg.feature_side, cfg.feature_channels
    rng = np.random.default_rng(2)
    fs, fq = (rng.normal(size=(40, side, side, c)) for _ in range(2))
    with no_grad():
        full = [f.data for f in re_represent_pair(Tensor(fs), Tensor(fq), model)]
        for rows in ([0], [39], list(range(5, 12)), [30, 2, 17], list(range(39, 14, -1))):
            part = re_represent_pair(Tensor(fs[rows]), Tensor(fq[rows]), model)
            for got, want in zip(part, full):
                np.testing.assert_array_equal(got.data, want[rows])


def recorded_ops(monkeypatch, fn, *args):
    """Counter of the autodiff ops that record a graph node while ``fn(*args)``
    runs, by the name of the op function that made each node."""
    made, real = Counter(), ad._make

    def spy(out_data, edges):
        out = real(out_data, edges)
        if out._edges:
            made[sys._getframe(1).f_code.co_name] += 1
        return out

    monkeypatch.setattr(ad, "_make", spy)
    fn(*args)
    return made


@pytest.mark.parametrize("structure", ["siamese", "non_siamese", "non_residual"])
def test_pair_head_graph(monkeypatch, structure):
    # the conditional learner records 31 nodes, 5 of them reshapes (each
    # side's rows, the fold weights, and each direction's pooled column);
    # each side fuses its column with the rows the learner built, so the
    # head reshapes no map a second time; non_residual feeds the column
    # straight into the compression. No attention permutes its keys: the
    # score product reads them transposed
    nodes, reshapes = {"siamese": (67, 5), "non_siamese": (67, 5),
                       "non_residual": (65, 5)}[structure]
    model = tiny_model(structure)
    rng = np.random.default_rng(18)
    fs, fq = (Tensor(rng.normal(size=(3, 2, 2, 8)), requires_grad=True) for _ in range(2))
    cond = recorded_ops(monkeypatch, conditional_forward, fs, fq, model.kernel)
    assert sum(cond.values()) == 31 and cond["reshape"] == 5, cond
    head = recorded_ops(monkeypatch, re_represent_pair, fs, fq, model)
    assert sum(head.values()) == nodes and head["reshape"] == reshapes, head
    assert head["permute"] == 0, head
