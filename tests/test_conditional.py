"""Conditional learner: positional table, attention, relation tensor, and
the factored bidirectional 4D convolution against its nested-loop oracle on
the dense relation tensor."""
import math
import tracemalloc

import numpy as np
import pytest

from condrep import autodiff as ad
from condrep import conditional
from condrep.autodiff import Tensor, backward
from condrep.conditional import (ConvKernel4D, attend, conditional_forward, init_conv_kernel,
                                 _sinusoid_table)
from condrep.exceptions import ConfigError, DimensionError
from referees import (build_relation_tensor, conditional_matrices, conv4d_oracle,
                      fd_gradient_oracle, max_relative_error)


def delta_kernel(shape=(3, 3, 3, 3), bias=0.0) -> ConvKernel4D:
    w = np.zeros(shape)
    w[shape[0] // 2, shape[1] // 2, shape[2] // 2, shape[3] // 2] = 1.0
    return ConvKernel4D(weights=Tensor(w), bias=Tensor(np.float64(bias)))


def attend_calls(monkeypatch, fs, fq):
    """(query rows, view) of each cross-attention ``conditional_forward(fs, fq)``
    makes, support side first; the view is the (..., 2T, C) pair view."""
    calls = []

    def spy(q, k, v):
        assert k is v
        calls.append((q.data, k.data))
        return attend(q, k, v)

    monkeypatch.setattr(conditional, "attend", spy)
    conditional_forward(Tensor(fs), Tensor(fq), init_conv_kernel())
    assert len(calls) == 2
    return calls


class TestPositionalEncoding:
    def test_position_zero_adds_sin0_cos0_pattern(self):
        np.testing.assert_array_equal(_sinusoid_table(1, 6)[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_encoding_is_purely_additive(self, monkeypatch):
        rng = np.random.default_rng(0)
        fs, fq = rng.normal(size=(2, 3, 8)), rng.normal(size=(2, 3, 8))
        (q_s, view_s), (q_q, view_q) = attend_calls(monkeypatch, fs, fq)
        rows_s, rows_q = fs.reshape(6, 8), fq.reshape(6, 8)
        np.testing.assert_array_equal(q_s, rows_s + _sinusoid_table(6, 8))
        np.testing.assert_array_equal(q_q, rows_q + _sinusoid_table(6, 8))
        np.testing.assert_array_equal(view_s, np.concatenate([rows_s, rows_q]) + _sinusoid_table(12, 8))
        np.testing.assert_array_equal(view_q, np.concatenate([rows_q, rows_s]) + _sinusoid_table(12, 8))

    def test_positions_are_pairwise_distinct(self):
        table = _sinusoid_table(512, 16)
        # no two rows identical
        assert len({row.tobytes() for row in table}) == 512

    def test_leading_rows_of_the_pair_table_equal_the_image_table(self):
        # conditional_forward encodes an image's own rows with the pair table's first T rows
        for c in range(2, 65, 2):
            for t in range(1, 70):
                np.testing.assert_array_equal(_sinusoid_table(2 * t, c)[:t], _sinusoid_table(t, c))

    def test_odd_channel_count_rejected(self):
        f = Tensor(np.zeros((2, 2, 5)))
        with pytest.raises(ConfigError):
            conditional_forward(f, f, init_conv_kernel())


class TestAggregate:
    """The pair view ``concat(flat(self), flat(other)) + table(2T)`` each side attends against."""

    def test_output_shape(self, monkeypatch):
        fs = np.random.default_rng(0).normal(size=(2, 2, 4))
        for _, view in attend_calls(monkeypatch, fs, fs):
            assert view.shape == (8, 4)

    def test_equal_inputs_have_identical_halves_before_encoding(self, monkeypatch):
        f = np.random.default_rng(1).normal(size=(2, 2, 4))
        table = _sinusoid_table(8, 4)
        for _, view in attend_calls(monkeypatch, f, f):
            np.testing.assert_array_equal(view[:4], f.reshape(4, 4) + table[:4])
            np.testing.assert_array_equal(view[4:], f.reshape(4, 4) + table[4:])

    def test_row_zero_is_first_cell_plus_pe0(self, monkeypatch):
        f = np.random.default_rng(2).normal(size=(2, 2, 4))
        (_, view_s), _ = attend_calls(monkeypatch, f, np.zeros((2, 2, 4)))
        np.testing.assert_array_equal(view_s[0], f[0, 0, :] + _sinusoid_table(8, 4)[0])


class TestCrossCorrelate:
    """The conditional learner's cross-attention is ``attend(q, view, view)``."""

    def test_identical_rows_collapse_to_that_row(self):
        v = np.array([1.0, -2.0, 0.5, 3.0])
        fm = Tensor(np.tile(v, (6, 1)))
        out = attend(Tensor(np.random.default_rng(0).normal(size=(4, 4))), fm, fm)
        np.testing.assert_allclose(out.data, np.broadcast_to(v, (4, 4)), atol=1e-12)

    def test_single_row_aggregate(self):
        fm = Tensor(np.array([[2.0, 4.0, -1.0, 0.0]]))
        out = attend(Tensor(np.array([[9.0, 9.0, 9.0, 9.0]])), fm, fm)
        np.testing.assert_array_equal(out.data.reshape(4), fm.data[0])

    def test_matches_naive_softmax_matmul(self):
        rng = np.random.default_rng(3)
        f, fm = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
        out = attend(Tensor(f), Tensor(fm), Tensor(fm))
        scores = f @ fm.T / np.sqrt(8)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        expected = (e / e.sum(axis=-1, keepdims=True)) @ fm
        np.testing.assert_allclose(out.data, expected, atol=1e-9)

    def test_outputs_stay_in_row_convex_hull(self):
        rng = np.random.default_rng(4)
        f, fm = rng.normal(size=(9, 6)), rng.normal(size=(5, 6))
        out = attend(Tensor(f), Tensor(fm), Tensor(fm)).data
        assert np.all(out >= fm.min(axis=0) - 1e-9)
        assert np.all(out <= fm.max(axis=0) + 1e-9)

    def test_channel_mismatch_rejected(self):
        fm = Tensor(np.zeros((4, 5)))
        with pytest.raises(DimensionError):
            attend(Tensor(np.zeros((4, 3))), fm, fm)

    def test_graph_keeps_the_shared_rows_once(self):
        # the score product reads the keys transposed, so the graph keeps no
        # (..., C, Tk) copy of the view: beside the view itself it keeps the
        # attention weights and the output, nothing of the view's size
        rng = np.random.default_rng(5)
        q = Tensor(rng.normal(size=(16, 16, 32)), requires_grad=True)
        view = Tensor(rng.normal(size=(16, 32, 32)), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = attend(q, view, view)
            live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        weights = 16 * 16 * 32 * 8
        assert live < weights + out.data.nbytes + view.data.nbytes // 2, live


class TestRelationTensor:
    def test_all_ones(self):
        ones = Tensor(np.ones((2, 2, 3)))
        rel = build_relation_tensor(ones, ones)
        np.testing.assert_array_equal(rel.data, np.ones((2, 2, 2, 2, 3)))

    def test_zero_support(self):
        rel = build_relation_tensor(Tensor(np.zeros((2, 2, 3))),
                                    Tensor(np.ones((2, 2, 3))))
        np.testing.assert_array_equal(rel.data, np.zeros((2, 2, 2, 2, 3)))

    def test_one_by_one_grid_is_channel_product(self):
        rng = np.random.default_rng(5)
        s, q = rng.normal(size=(1, 1, 4)), rng.normal(size=(1, 1, 4))
        rel = build_relation_tensor(Tensor(s), Tensor(q))
        np.testing.assert_array_equal(rel.data[0, 0, 0, 0], s[0, 0] * q[0, 0])

    def test_bilinearity_in_support(self):
        rng = np.random.default_rng(6)
        s, q = rng.normal(size=(2, 2, 3)), rng.normal(size=(2, 2, 3))
        rel = build_relation_tensor(Tensor(s), Tensor(q)).data
        rel_scaled = build_relation_tensor(Tensor(2.5 * s), Tensor(q)).data
        np.testing.assert_allclose(rel_scaled, 2.5 * rel, rtol=1e-15)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            build_relation_tensor(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((2, 2, 4))))


class TestConv4d:
    def test_zero_tensor_gives_bias_through_relu(self):
        kern = init_conv_kernel((3, 3, 3, 3), seed=0)
        kern.bias.data = np.float64(0.7)
        s = Tensor(np.zeros((3, 3, 2)))
        q = Tensor(np.random.default_rng(14).normal(size=(3, 3, 2)))
        for out in conditional_matrices(s, q, kern):
            np.testing.assert_allclose(out.data, np.full((3, 3), 0.7), atol=1e-15)
        kern.bias.data = np.float64(-0.7)
        for out in conditional_matrices(s, q, kern):
            np.testing.assert_array_equal(out.data, np.zeros((3, 3)))

    def test_delta_kernel_closed_form(self):
        rng = np.random.default_rng(7)
        s, q = rng.normal(size=(3, 3, 2)), rng.normal(size=(4, 4, 2))
        rel = build_relation_tensor(Tensor(s), Tensor(q)).data
        out, _ = conditional_matrices(Tensor(s), Tensor(q), delta_kernel())
        expected = np.maximum(rel.sum(axis=(2, 3, 4)), 0.0)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_zero_kernel_bias_only(self):
        kern = ConvKernel4D(weights=Tensor(np.zeros((3, 3, 1, 1))),
                            bias=Tensor(np.float64(0.3)))
        rng = np.random.default_rng(8)
        s, q = Tensor(rng.normal(size=(2, 2, 3))), Tensor(rng.normal(size=(2, 2, 3)))
        _, out = conditional_matrices(s, q, kern)
        np.testing.assert_allclose(out.data, np.full((2, 2), 0.3), atol=1e-15)

    def test_symmetric_relation_gives_equal_matrices(self):
        # s == q makes the relation tensor symmetric under swapping its two grids
        f = Tensor(np.random.default_rng(9).normal(size=(3, 3, 2)))
        kern = init_conv_kernel((3, 3, 3, 3), seed=1)
        ws, wq = conditional_matrices(f, f, kern)
        np.testing.assert_array_equal(ws.data, wq.data)

    @pytest.mark.parametrize("seed", range(20))
    def test_oracle_agreement(self, seed):
        rng = np.random.default_rng(1000 + seed)
        ws_, hs_, wq_, hq_ = (int(g) for g in rng.integers(1, 7, size=4))
        c = int(rng.integers(1, 4))
        kshape = tuple(int(rng.choice([1, 3])) for _ in range(4))
        s, q = rng.normal(size=(ws_, hs_, c)), rng.normal(size=(wq_, hq_, c))
        kern = ConvKernel4D(weights=Tensor(rng.normal(size=kshape)),
                            bias=Tensor(rng.normal()))
        rel = build_relation_tensor(Tensor(s), Tensor(q))
        support, query = conditional_matrices(Tensor(s), Tensor(q), kern)
        np.testing.assert_allclose(support.data, conv4d_oracle(rel, kern, "support"), atol=1e-9)
        np.testing.assert_allclose(query.data, conv4d_oracle(rel, kern, "query"), atol=1e-9)

    @pytest.mark.parametrize("s_shape,q_shape", [((2, 2, 3), (2, 2, 4)),
                                                 ((2, 3, 3, 4), (3, 3, 3, 4)),
                                                 ((3, 3, 4), (9, 4))])
    def test_mismatched_factors_rejected(self, s_shape, q_shape):
        with pytest.raises(DimensionError):
            conditional_matrices(Tensor(np.zeros(s_shape)), Tensor(np.zeros(q_shape)),
                                 init_conv_kernel())

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            ConvKernel4D(weights=Tensor(np.zeros((2, 3, 3, 3))), bias=Tensor(0.0))


class TestConditionalForward:
    @pytest.fixture()
    def kernel(self):
        return init_conv_kernel((3, 3, 3, 3), seed=2)

    def test_equal_inputs_give_equal_matrices(self, kernel):
        f = Tensor(np.random.default_rng(10).normal(size=(3, 3, 4)))
        out = conditional_forward(f, f, kernel)
        assert np.array_equal(out.support_matrix.data, out.query_matrix.data)

    def test_shape_mismatch_rejected(self, kernel):
        with pytest.raises(DimensionError):
            conditional_forward(Tensor(np.zeros((2, 2, 4))), Tensor(np.zeros((2, 2, 6))), kernel)

    def test_output_spatial_shapes(self, kernel, monkeypatch):
        # each matrix comes back as a (W*H, 1) column in the map's row order:
        # reshaped to its grid, it is conditional_matrices of the attended maps
        rng = np.random.default_rng(11)
        fs, fq = Tensor(rng.normal(size=(3, 3, 4))), Tensor(rng.normal(size=(3, 3, 4)))
        attended = []

        def spy(q, k, v):
            out = attend(q, k, v)
            attended.append(Tensor(out.data.reshape(3, 3, 4)))
            return out

        monkeypatch.setattr(conditional, "attend", spy)
        out = conditional_forward(fs, fq, kernel)
        assert out.support_matrix.shape == (9, 1)
        assert out.query_matrix.shape == (9, 1)
        support, query = conditional_matrices(*attended, kernel)
        np.testing.assert_array_equal(out.support_matrix.data.reshape(3, 3), support.data)
        np.testing.assert_array_equal(out.query_matrix.data.reshape(3, 3), query.data)

    @pytest.mark.parametrize("seed", range(10))
    def test_swap_symmetry_is_bit_exact(self, kernel, seed):
        rng = np.random.default_rng(2000 + seed)
        a, b = Tensor(rng.normal(size=(3, 3, 4))), Tensor(rng.normal(size=(3, 3, 4)))
        ab = conditional_forward(a, b, kernel)
        ba = conditional_forward(b, a, kernel)
        assert np.array_equal(ab.support_matrix.data, ba.query_matrix.data)
        assert np.array_equal(ab.query_matrix.data, ba.support_matrix.data)

    def test_batched_matches_single(self, kernel):
        rng = np.random.default_rng(12)
        fs = rng.normal(size=(3, 2, 2, 4))
        fq = rng.normal(size=(3, 2, 2, 4))
        batched = conditional_forward(Tensor(fs), Tensor(fq), kernel)
        for i in range(3):
            single = conditional_forward(Tensor(fs[i]), Tensor(fq[i]), kernel)
            assert np.array_equal(batched.support_matrix.data[i], single.support_matrix.data)

    # at 2x2 the 3-tap fold matrix is degenerate; 4x4 reads every tap pattern
    @pytest.mark.parametrize("seed,grid", [pytest.param(seed, grid, id=f"{seed}{suffix}")
                                           for grid, suffix in ((2, ""), (4, "-4x4"))
                                           for seed in range(3)])
    def test_gradients_wrt_both_prototypes(self, kernel, seed, grid):
        rng = np.random.default_rng(3000 + seed)
        fs = Tensor(rng.normal(size=(grid, grid, 4)), requires_grad=True)
        fq = Tensor(rng.normal(size=(grid, grid, 4)), requires_grad=True)

        def loss_of(t, which):
            args = (t, fq) if which == "s" else (fs, t)
            out = conditional_forward(args[0], args[1], kernel)
            return ad.sum_along(ad.mul(out.support_matrix, out.support_matrix))

        out = conditional_forward(fs, fq, kernel)
        backward(ad.sum_along(ad.mul(out.support_matrix, out.support_matrix)))
        fd_s = fd_gradient_oracle(lambda t: loss_of(t, "s"), fs)
        fd_q = fd_gradient_oracle(lambda t: loss_of(t, "q"), fq)
        assert max_relative_error(fs.grad, fd_s) < 1e-4
        assert max_relative_error(fq.grad, fd_q) < 1e-4

    @pytest.mark.parametrize("grid", [2, 4], ids=["2x2", "4x4"])
    def test_kernel_gradient(self, kernel, grid):
        rng = np.random.default_rng(13)
        fs = Tensor(rng.normal(size=(grid, grid, 4)))
        fq = Tensor(rng.normal(size=(grid, grid, 4)))

        def f(t):
            k = ConvKernel4D(weights=t, bias=kernel.bias)
            out = conditional_forward(fs, fq, k)
            return ad.sum_along(ad.mul(out.support_matrix, out.query_matrix))

        out = f(kernel.weights)
        backward(out)
        fd = fd_gradient_oracle(f, kernel.weights)
        assert max_relative_error(kernel.weights.grad, fd) < 1e-4

    def test_graph_holds_no_relation_sized_node(self):
        """The factored reduction never materialises the dense
        (pairs, W, H, W, H, C) relation tensor, nor anything as large."""
        pairs, w, c = 2, 7, 64
        rng = np.random.default_rng(15)
        fs = Tensor(rng.normal(size=(pairs, w, w, c)), requires_grad=True)
        fq = Tensor(rng.normal(size=(pairs, w, w, c)), requires_grad=True)
        out = conditional_forward(fs, fq, init_conv_kernel((3, 3, 3, 3), seed=3))
        relation_size = pairs * (w * w) ** 2 * c
        # graph nodes hold no data, so each op output is judged by its node's shape
        seen, stack = set(), [out.support_matrix._node, out.query_matrix._node]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            assert len(node.shape) < 5 and math.prod(node.shape) < relation_size, node.shape
            stack.extend(parent for parent, _vjp in node._edges)
        assert len(seen) > 10
