"""Re-representation learner: one side's head against its referee and at
its special cases, the three structure variants, and the pair head's batch
invariance and recorded graph."""
import inspect
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
from condrep.rerepresent import init_rerep_params, re_represent_pair, represent_side
from referees import fd_gradient_oracle, max_relative_error, side_head_referee

C = 8


def tiny_model(structure="siamese", seed=0):
    cfg = ModelConfig(image_size=16, feature_side=2, feature_channels=8,
                      kernel_shape=(3, 3, 3, 3), structure=structure)
    return Model.init(cfg, seed=seed)


STRUCTURES = ("siamese", "non_siamese", "non_residual")


def pick_side(params, structure, side):
    """The ``side`` ("support" or "query") parameter set of ``params``."""
    prefix = f"{side}." if structure == "non_siamese" else ""
    return {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}


def side_params(structure, side="support", **edits):
    """One side's parameter set of ``structure`` at C channels, with ``edits``
    (name -> array) swapped in."""
    params = pick_side(init_rerep_params(C, structure, seed=0), structure, side)
    params.update({k: Tensor(v) for k, v in edits.items()})
    return params


def side_inputs(positions, seed, lead=(3,)):
    """(..., T, C) rows and the (..., T, 1) non-negative column of one side."""
    rng = np.random.default_rng(seed)
    return (rng.normal(size=lead + (positions, C)),
            np.abs(rng.normal(size=lead + (positions, 1))))


def head(rows, column, params, structure):
    return represent_side(Tensor(rows), Tensor(column), params,
                          structure != "non_residual").data


# parameter edits (by the compression's input width) that each reach a
# step's special case: the compression as the identity or as zero, zero
# attention logits (every position averages the value rows), and zero value
# weights (the vector is the pooled MLP of the normalized compressed rows)
EDITS = {"init": lambda d: {},
         "identity_compress": lambda d: {"compress.weight": np.eye(d, C),
                                         "compress.bias": np.zeros(C)},
         "zero_compress": lambda d: {"compress.weight": np.zeros((d, C)),
                                     "compress.bias": np.zeros(C)},
         "zero_logits": lambda d: {"attn.wq": np.zeros((C, C)), "attn.wk": np.zeros((C, C))},
         "zero_values": lambda d: {"attn.wv": np.zeros((C, C))}}


class TestRepresentSide:
    @pytest.mark.parametrize("edit", EDITS)
    @pytest.mark.parametrize("positions", [1, 5])
    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_matches_referee(self, structure, positions, edit):
        residual = structure != "non_residual"
        for side in ("support", "query"):
            params = side_params(structure, side, **EDITS[edit](C + 1 if residual else 1))
            rows, column = side_inputs(positions, seed=positions)
            out = head(rows, column, params, structure)
            assert out.shape == (3, C)
            np.testing.assert_allclose(out, side_head_referee(rows, column, params, residual),
                                       atol=1e-9)

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_zero_value_weights_drop_the_attention(self, structure):
        # the self-attention then adds exactly zero, whatever its logits
        rows, column = side_inputs(4, seed=8)
        params = side_params(structure, **EDITS["zero_values"](None))
        rng = np.random.default_rng(9)
        other = dict(params, **{f"attn.{w}": Tensor(rng.normal(size=(C, C)))
                                for w in ("wq", "wk")})
        np.testing.assert_array_equal(head(rows, column, other, structure),
                                      head(rows, column, params, structure))

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_constant_positions_pool_to_one_position(self, structure):
        rows, column = side_inputs(1, seed=10)
        params = side_params(structure)
        single = head(rows, column, params, structure)
        tiled = head(np.repeat(rows, 6, -2), np.repeat(column, 6, -2), params, structure)
        np.testing.assert_allclose(tiled, single, atol=1e-12)

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_permuted_positions_pool_to_the_same_vector(self, structure):
        rows, column = side_inputs(5, seed=11)
        perm = np.random.default_rng(12).permutation(5)
        params = side_params(structure)
        np.testing.assert_allclose(head(rows[:, perm], column[:, perm], params, structure),
                                   head(rows, column, params, structure), atol=1e-12)

    @pytest.mark.parametrize("structure, rows, column, edits", [
        ("siamese", (4, C), (9, 1), {}),                          # positions differ
        ("siamese", (4, C), (4, 2), {}),                          # a two-channel column
        ("siamese", (4, C + 1), (4, 1), {}),                      # rows wider than C
        ("non_residual", (4, C), (4, 2), {}),
        ("siamese", (4, C), (4, 1), {"attn.wq": np.zeros((C, C + 1))}),
        ("siamese", (4, C), (4, 1), {"attn.wv": np.zeros((C, C + 1))}),   # residual add
        ("siamese", (4, C), (4, 1), {"final.gamma": np.ones(C + 1)}),
    ])
    def test_wrong_shapes_rejected(self, structure, rows, column, edits):
        with pytest.raises(DimensionError):
            head(np.zeros(rows), np.zeros(column), side_params(structure, **edits), structure)


def test_public_functions_are_the_head():
    from condrep import rerepresent
    public = sorted(name for name, fn in vars(rerepresent).items()
                    if inspect.isfunction(fn) and fn.__module__ == rerepresent.__name__
                    and not name.startswith("_"))
    assert public == ["init_rerep_params", "re_represent_pair", "represent_side"]


class TestRepresentPair:
    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_each_side_runs_the_head_on_its_own_parameters(self, structure):
        model = tiny_model(structure)
        rng = np.random.default_rng(19)
        fs, fq = (Tensor(rng.normal(size=(3, 2, 2, 8))) for _ in range(2))
        cond = conditional_forward(fs, fq, model.kernel)
        got = re_represent_pair(fs, fq, model)
        for vec, rows, column, side in ((got[0], cond.support_rows, cond.support_matrix, "support"),
                                        (got[1], cond.query_rows, cond.query_matrix, "query")):
            params = pick_side(model.rerep, structure, side)
            np.testing.assert_allclose(vec.data, side_head_referee(
                rows.data, column.data, params, structure != "non_residual"), atol=1e-9)

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
            images = rng.uniform(size=(4, 1, 16, 16))
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
        images = rng.uniform(size=(2, 1, 16, 16))

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
