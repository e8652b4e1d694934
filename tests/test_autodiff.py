"""Tensor ops, backward, and optimizer against hand values and the
finite-difference oracle."""
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from condrep import autodiff as ad
from condrep.autodiff import Tensor, backward
from condrep.exceptions import ConfigError, ContractError, DimensionError, StateError
from condrep.optim import AdamW
from referees import fd_gradient_oracle, max_relative_error

FD_TOL = 1e-4


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestMatmul:
    def test_identity(self):
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = ad.matmul(Tensor(np.eye(2)), Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_hand_case_matches_triple_loop(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = ad.matmul(Tensor(a), Tensor(b))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])
        np.testing.assert_allclose(out.data, naive_matmul(a, b), rtol=0, atol=0)

    def test_zero_case(self):
        out = ad.matmul(Tensor(np.zeros((2, 2))), Tensor(np.full((2, 2), 7.0)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 4\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(3, 4\).*transposed"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), transpose_b=True)

    # attention's score shapes (queries, keys): at these, numpy's product with a
    # strided b^T view gives other bits than with a contiguous copy of it
    @pytest.mark.parametrize("sa,sb", [((80, 16, 32), (80, 32, 32)),
                                       ((80, 16, 32), (80, 16, 32)),
                                       ((375, 16, 32), (375, 32, 32)),
                                       ((80, 4, 32), (80, 8, 32))])
    def test_transpose_b_is_bit_identical_to_a_permuted_operand(self, sa, sb):
        rng = np.random.default_rng(61)
        a0, b0 = rng.normal(size=sa), rng.normal(size=sb)
        g = Tensor(rng.normal(size=sa[:-1] + sb[-2:-1]))
        swap = (0, 2, 1)
        outs, grads = [], []
        for transposed in (False, True):
            a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
            out = ad.matmul(a, b, transpose_b=True) if transposed \
                else ad.matmul(a, ad.permute(b, swap))
            backward(ad.sum_along(ad.mul(out, g)))
            outs.append(out.data)
            grads.append((a.grad, b.grad))
        assert np.array_equal(outs[0], outs[1])
        for want, got in zip(*grads):
            assert np.array_equal(want, got)


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax_lastdim(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_overflow_safe(self):
        out = ad.softmax_lastdim(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_exact_exponentials(self):
        out = ad.softmax_lastdim(Tensor([math.log(2.0), 0.0]))
        np.testing.assert_allclose(out.data, [2 / 3, 1 / 3], atol=1e-15)

    def test_slices_sum_to_one_and_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=(3, 5, 7)) * rng.uniform(0.1, 50)
            y = ad.softmax_lastdim(Tensor(x)).data
            assert np.all(y >= 0)
            np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-9)

    def test_empty_last_dim(self):
        with pytest.raises(DimensionError):
            ad.softmax_lastdim(Tensor(np.zeros((2, 0))))

    def test_forward_peak_is_one_output_array(self):
        # the shift, its exponential and the quotient share one array, so the
        # forward's peak is its output plus two (64, 64, 1) row statistics
        x = Tensor(np.random.default_rng(4).normal(size=(64, 64, 64)), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y = ad.softmax_lastdim(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < y.data.nbytes + y.data.nbytes // 8, peak


class TestLayerNorm:
    def test_constant_slice_goes_to_zero(self):
        out = ad.layer_norm(Tensor([4.0, 4.0, 4.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, np.zeros(3))

    def test_closed_form(self):
        x = np.array([1.0, 2.0, 3.0])
        out = ad.layer_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        expected = (x - x.mean()) / np.sqrt(x.var() + 1e-5)
        np.testing.assert_allclose(out.data, expected, atol=1e-15)
        assert abs(out.data.mean()) < 1e-12

    def test_unit_variance_when_spread_is_large(self):
        rng = np.random.default_rng(3)
        x = rng.normal(scale=50.0, size=(4, 64))
        out = ad.layer_norm(Tensor(x), Tensor(np.ones(64)), Tensor(np.zeros(64))).data
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-6)

    def test_zero_gamma_broadcasts_beta(self):
        beta = np.array([1.0, -2.0, 0.5])
        out = ad.layer_norm(Tensor(np.random.default_rng(1).normal(size=(5, 3))),
                            Tensor(np.zeros(3)), Tensor(beta))
        np.testing.assert_array_equal(out.data, np.broadcast_to(beta, (5, 3)))

    def test_zero_axis_rejected(self):
        with pytest.raises(DimensionError):
            ad.layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))

    def test_rows_do_not_depend_on_their_batch(self):
        # each statistic reduces one row, so a row normalizes to the same bits
        # alone as in any batch
        rng = np.random.default_rng(4)
        x, gamma, beta = rng.normal(size=(5, 7, 64)), rng.normal(size=64), rng.normal(size=64)
        batch = ad.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        for i, j in ((0, 0), (4, 6), (2, 3)):
            alone = ad.layer_norm(Tensor(x[i, j]), Tensor(gamma), Tensor(beta)).data
            np.testing.assert_array_equal(alone, batch[i, j])

    def test_gamma_beta_of_wrong_length_rejected(self):
        with pytest.raises(DimensionError, match="layer_norm"):
            ad.layer_norm(Tensor(np.zeros((3, 2))), Tensor(np.ones(3)), Tensor(np.zeros(3)))


class TestRelu:
    def test_values(self):
        out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_all_negative(self):
        out = ad.relu(Tensor([-5.0, -0.1]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0])

    def test_gradient_gate(self):
        for value, expected in ((3.0, 1.0), (-3.0, 0.0), (0.0, 0.0)):
            x = Tensor([value], requires_grad=True)
            backward(ad.sum_along(ad.relu(x)))
            assert x.grad[0] == expected


def padded_window_conv(x, kernel, padding, g):
    """Referee for conv2d: im2col by np.pad and sliding_window_view over the
    whole batch, then the op's per-image gemm and its two vjps. Returns the
    output and the x and kernel gradients for output gradient ``g``."""
    cin, b, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    ho, wo = h + 2 * padding - kh + 1, w + 2 * padding - kw + 1
    k, n = cin * kh * kw, b * ho * wo
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = windows.transpose(0, 4, 5, 1, 2, 3).reshape(k, n)
    w2 = kernel.reshape(cout, k)
    out = np.matmul(w2, cols.reshape(k, b, ho * wo).transpose(1, 0, 2)).transpose(1, 0, 2)
    dk = (g.reshape(cout, n) @ cols.T).reshape(kernel.shape)
    gt = g.reshape(cout, b, ho * wo).transpose(0, 2, 1).reshape(cout, n)
    dcols = (w2.T @ gt).reshape(cin, kh, kw, ho, wo, b)
    dxp = np.zeros((cin, h + 2 * padding, w + 2 * padding, b))
    for i in range(kh):
        for j in range(kw):
            dxp[:, i:i + ho, j:j + wo] += dcols[:, i, j]
    dx = dxp[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2)
    return out.reshape(cout, b, ho, wo), dx, dk


class TestConv2d:
    # images are channel-major: (C, B, H, W)
    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(1, 2, 5, 5))
        out = ad.conv2d(Tensor(x), Tensor(np.ones((1, 1, 1, 1))), padding=0)
        np.testing.assert_array_equal(out.data, x)

    def test_hand_sum(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        k = Tensor(np.ones((1, 1, 2, 2)))
        out = ad.conv2d(x, k, padding=0)
        np.testing.assert_array_equal(out.data, [[[[10.0]]]])

    def test_zero_input(self):
        out = ad.conv2d(Tensor(np.zeros((2, 1, 4, 4))),
                        Tensor(np.ones((3, 2, 3, 3))), padding=1)
        np.testing.assert_array_equal(out.data, np.zeros((3, 1, 4, 4)))

    def test_each_image_is_its_own_batch(self):
        # one gemm per image: a map's bits do not depend on its batch
        rng = np.random.default_rng(8)
        x, k = rng.normal(size=(3, 7, 6, 6)), Tensor(rng.normal(size=(5, 3, 3, 3)))
        batch = ad.conv2d(Tensor(x), k, padding=1).data
        for i in range(7):
            alone = ad.conv2d(Tensor(x[:, i:i + 1]), k, padding=1).data
            assert np.array_equal(alone[:, 0], batch[:, i]), i

    def test_keeps_no_column_matrix(self):
        # the forward builds its im2col columns a chunk of images at a time and
        # the kernel vjp rebuilds them, so the graph keeps the output, not the
        # (72, 4096) matrix of this batch (2.4 MB)
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(8, 16, 16, 16)), requires_grad=True)
        k = Tensor(rng.normal(size=(16, 8, 3, 3)), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = ad.conv2d(x, k, padding=1)
            live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert live < out.data.nbytes + 72 * 4096 * 8 // 4, live

    # (C_in, B, H, W), (C_out, kh, kw), padding and chunk bytes: padding 0 and
    # 1, kh != kw, one image, chunks that leave a shorter last one, and the
    # default constant over a backbone-sized batch
    @pytest.mark.parametrize("shape,kernel,padding,chunk", [
        ((3, 4, 6, 7), (5, 3, 3), 0, None), ((3, 4, 6, 7), (5, 3, 3), 1, None),
        ((2, 5, 5, 6), (4, 2, 3), 1, 2 * 8 * 12 * 42), ((4, 3, 6, 5), (3, 3, 1), 0, 1),
        ((1, 1, 4, 4), (2, 3, 3), 1, None), ((2, 7, 3, 3), (3, 3, 2), 1, 3 * 8 * 12 * 12),
        ((2, 2, 1, 2), (2, 3, 3), 1, None), ((8, 24, 16, 16), (16, 3, 3), 1, None)])
    def test_is_bit_identical_to_the_padded_window_referee(self, shape, kernel, padding,
                                                           chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(ad, "_CHUNK_BYTES", chunk)
        rng = np.random.default_rng(sum(shape) + sum(kernel) + padding)
        x = rng.normal(size=shape)
        k = rng.normal(size=(kernel[0], shape[0], *kernel[1:]))
        tx, tk = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
        out = ad.conv2d(tx, tk, padding=padding)
        g = rng.normal(size=out.shape)
        backward(ad.sum_along(ad.mul(out, g)))
        for got, ref in zip((out.data, tx.grad, tk.grad), padded_window_conv(x, k, padding, g)):
            np.testing.assert_array_equal(got, ref)

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError, match="larger than padded input"):
            ad.conv2d(Tensor(np.zeros((1, 1, 3, 3))),
                      Tensor(np.ones((1, 1, 6, 6))), padding=1)


def unfused_block(x, gamma, beta, stride, g):
    """The block as three ops, in numpy: layer_norm over axis 0, np.maximum
    and the strided pool adds, then the three ops' vjps in reverse (pool by
    np.repeat, relu by its mask, layer_norm as it writes them). Returns the
    output and the x, gamma and beta gradients for output gradient ``g``."""
    c, n = x.shape[0], stride * stride
    x2 = x.reshape(c, -1)
    xhat = x2 - x2.mean(axis=0)
    inv = 1.0 / np.sqrt(np.einsum("ij,ij->j", xhat, xhat) / c + ad.NORM_EPS)
    xhat *= inv
    y = gamma[:, None] * xhat
    y += beta[:, None]
    y = y.reshape(x.shape)
    r = np.maximum(y, 0.0)
    cols = r[..., ::stride]
    for j in range(1, stride):
        cols = cols + r[..., j::stride]
    rows = cols[:, :, ::stride]
    for i in range(1, stride):
        rows = rows + cols[:, :, i::stride]
    if stride > 1:
        out = rows / n
        g = np.repeat(np.repeat(g * (1.0 / n), stride, axis=3), stride, axis=2)
    else:
        out = r
    gy = (g * (y > 0.0)).reshape(c, -1)
    dx = gy * gamma[:, None]
    m2 = np.einsum("ij,ij->j", dx, xhat) / c
    dx -= dx.mean(axis=0)
    dx -= xhat * m2
    dx *= inv
    return out, dx.reshape(x.shape), np.einsum("ij,ij->i", gy, xhat), gy.sum(axis=1)


class TestAvgPool:
    # the pooling stage of norm_relu_pool; images are channel-major (C, B, H, W)
    def test_matches_window_mean(self):
        rng = np.random.default_rng(3)
        x, gamma, beta = rng.normal(size=(3, 2, 4, 6)), rng.normal(size=3), rng.normal(size=3)
        out = ad.norm_relu_pool(Tensor(x), Tensor(gamma), Tensor(beta), 2)
        normed = ad.layer_norm(Tensor(np.moveaxis(x, 0, -1)), Tensor(gamma), Tensor(beta)).data
        act = np.maximum(np.moveaxis(normed, -1, 0), 0)
        ref = act.reshape(3, 2, 2, 2, 3, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-15)

    def test_constant_input_is_fixed_point(self):
        # a constant image normalizes to 0 everywhere, so each channel is
        # relu(beta) before pooling, and the pool keeps it exactly
        beta = np.array([0.75, -0.5])
        out = ad.norm_relu_pool(Tensor(np.full((2, 1, 6, 6), 0.75)), Tensor([3.0, 2.0]),
                                Tensor(beta), 3)
        np.testing.assert_array_equal(out.data[0], np.full((1, 2, 2), 0.75))
        np.testing.assert_array_equal(out.data[1], np.zeros((1, 2, 2)))

    def test_indivisible_side_rejected(self):
        ones, zeros = Tensor(np.ones(2)), Tensor(np.zeros(2))
        with pytest.raises(DimensionError, match="norm_relu_pool"):
            ad.norm_relu_pool(Tensor(np.zeros((2, 1, 5, 4))), ones, zeros, 2)
        with pytest.raises(DimensionError, match="norm_relu_pool"):
            ad.norm_relu_pool(Tensor(np.zeros((2, 4, 4))), ones, zeros, 2)
        with pytest.raises(DimensionError, match="norm_relu_pool"):
            ad.norm_relu_pool(Tensor(np.zeros((3, 1, 4, 4))), ones, zeros, 2)


# (C, B, H, W), stride and chunk bytes: strides 1 to 3, chunks of one image and
# of several that leave a shorter last chunk, the default constant over a
# backbone-sized batch (64 images per chunk, then 16), and 1x1 images
@pytest.mark.parametrize("shape,stride,chunk", [
    ((4, 3, 5, 5), 1, 1), ((8, 5, 4, 4), 2, 2 * 8 * 8 * 16), ((3, 4, 6, 6), 3, 1),
    ((16, 80, 16, 16), 2, None), ((8, 5, 1, 1), 1, 1), ((2, 7, 6, 4), 2, 3 * 8 * 2 * 24)])
def test_norm_relu_pool_is_bit_identical_to_the_unfused_block(shape, stride, chunk,
                                                               monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(ad, "_CHUNK_BYTES", chunk)
    rng = np.random.default_rng(sum(shape) + stride)
    c = shape[0]
    x, gamma, beta = rng.normal(size=shape), rng.normal(size=c), rng.normal(size=c)
    ts = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
    out = ad.norm_relu_pool(*ts, stride)
    g = rng.normal(size=out.shape)
    backward(ad.sum_along(ad.mul(out, g)))
    for got, ref in zip([out.data] + [t.grad for t in ts], unfused_block(x, gamma, beta, stride, g)):
        np.testing.assert_array_equal(got, ref)


def test_norm_relu_pool_keeps_nothing_without_a_graph():
    x = Tensor(np.random.default_rng(4).normal(size=(2, 3, 4, 4)), requires_grad=True)
    gamma, beta = Tensor(np.ones(2), requires_grad=True), Tensor(np.zeros(2))
    with ad.no_grad():
        out = ad.norm_relu_pool(x, gamma, beta, 2)
    assert not out.requires_grad and out._edges == ()
    np.testing.assert_array_equal(out.data, ad.norm_relu_pool(x, gamma, beta, 2).data)


class TestShapeOps:
    def test_flatten_preserves_row_major_order(self):
        x = np.arange(12.0).reshape(2, 2, 3)
        out = ad.reshape(Tensor(x), (4, 3))
        np.testing.assert_array_equal(out.data, x.reshape(4, 3))

    def test_concat_rows(self):
        a, b = np.ones((4, 3)), np.zeros((4, 3))
        out = ad.concat([Tensor(a), Tensor(b)], axis=0)
        assert out.shape == (8, 3)
        np.testing.assert_array_equal(out.data[:4], a)

    def test_mean(self):
        assert ad.mean(Tensor([2.0, 4.0]), axis=0).item() == 3.0

    def test_incompatible_shapes_name_the_op(self):
        with pytest.raises(DimensionError, match="concat"):
            ad.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))], axis=0)
        with pytest.raises(DimensionError, match="reshape"):
            ad.reshape(Tensor(np.zeros((2, 3))), (4, 4))

    def test_index_axis_gathers_rows_in_index_order(self):
        x = np.arange(12.0).reshape(4, 3)
        out = ad.index_axis(Tensor(x), 0, [2, 0, 2, 3])
        np.testing.assert_array_equal(out.data, x[[2, 0, 2, 3]])

    def test_index_axis_sums_gradients_of_repeated_rows(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        backward(ad.sum_along(ad.index_axis(x, 0, [1, 1, 0, 1])))
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [3.0, 3.0], [0.0, 0.0]])

    @pytest.mark.parametrize("index", [[3], [-1], [[0]], [0.5], 1.0, 3, -1, [True]])
    def test_index_axis_rejects_bad_index(self, index):
        with pytest.raises(DimensionError, match="index_axis"):
            ad.index_axis(Tensor(np.zeros((3, 2))), 0, index)

    def test_index_axis_rejects_bad_axis(self):
        with pytest.raises(DimensionError, match="index_axis"):
            ad.index_axis(Tensor(np.zeros((3, 2))), 2, 0)


class TestBackward:
    def test_product_rule(self):
        x, y = Tensor([3.0], requires_grad=True), Tensor([5.0], requires_grad=True)
        backward(ad.sum_along(ad.mul(x, y)))
        assert x.grad[0] == 5.0 and y.grad[0] == 3.0

    def test_softmax_sum_has_zero_gradient(self):
        v = Tensor(np.random.default_rng(2).normal(size=5), requires_grad=True)
        backward(ad.sum_along(ad.softmax_lastdim(v)))
        np.testing.assert_allclose(v.grad, np.zeros(5), atol=1e-12)

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(4, 4))

        def f(t):
            h = ad.relu(ad.matmul(t, Tensor(w)))
            return ad.sum_along(ad.mul(ad.softmax_lastdim(h), h))

        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        backward(f(x))
        fd = fd_gradient_oracle(f, x, step=1e-3)
        assert max_relative_error(x.grad, fd) < FD_TOL

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            backward(ad.mul(x, 2.0))

    def test_second_backward_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        loss = ad.sum_along(ad.mul(x, x))
        backward(loss)
        with pytest.raises(StateError):
            backward(loss)

    def test_second_backward_through_a_consumed_node_rejected(self):
        # y's gradient from the first walk was once added in again by the
        # second, which left 16 in x.grad where 12 is right
        x = Tensor([2.0], requires_grad=True)
        y = ad.mul(x, x)
        backward(ad.sum_along(y))
        x.grad = None
        with pytest.raises(StateError, match="consumed"):
            backward(ad.sum_along(ad.mul(y, 3.0)))
        assert x.grad is None

    def test_walk_releases_intermediates_and_leaves_keep_their_gradients(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        w = Tensor([0.5, 3.0], requires_grad=True)
        h = ad.mul(x, w)
        r = ad.relu(h)
        loss = ad.sum_along(ad.add(r, h))
        backward(loss)
        for t in (h, r, loss):
            assert t._edges == () and t._consumed
        assert h.grad is None and r.grad is None
        assert np.array_equal(loss.grad, 1.0)
        assert np.array_equal(x.grad, [1.0, 3.0]) and np.array_equal(w.grad, [2.0, -2.0])
        assert not x._consumed and not w._consumed

    def test_intermediate_activation_dies_with_the_walk(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        h = ad.relu(ad.matmul(x, Tensor(np.ones((3, 4)))))
        ref = weakref.ref(h.data)
        loss = ad.sum_along(ad.mul(h, h))
        del h
        assert ref() is not None
        backward(loss)
        assert ref() is None
        assert loss.item() == 4 * (3.0 ** 2 + 12.0 ** 2)

    @pytest.mark.parametrize("add_first", [True, False])
    def test_aliased_contributions_stay_apart(self, add_first):
        # add hands one gradient array to both x and z; x then takes a second
        # contribution, which must not be written into z's gradient. Which
        # edge reaches x first depends on the order of the summands.
        x = Tensor([1.0, -2.0], requires_grad=True)
        z = Tensor([0.5, 3.0], requires_grad=True)
        terms = [ad.sum_along(ad.add(x, z)), ad.sum_along(ad.mul(x, 3.0))]
        if not add_first:
            terms.reverse()
        backward(ad.add(*terms))
        assert np.array_equal(z.grad, [1.0, 1.0])
        assert np.array_equal(x.grad, [4.0, 4.0])
        assert not np.shares_memory(x.grad, z.grad)

    @pytest.mark.parametrize("add_first", [True, False])
    def test_aliased_intermediate_gradients_stay_apart(self, add_first):
        # the same with op outputs, which store a first contribution without
        # a copy: when add runs first, a and b hold one array, and neither's
        # second contribution (from a * b) may be written into the other's
        x = Tensor([1.0, -2.0], requires_grad=True)
        a, b = ad.mul(x, 2.0), ad.mul(x, 3.0)
        terms = [ad.sum_along(ad.add(a, b)), ad.sum_along(ad.mul(a, b))]
        if not add_first:
            terms.reverse()
        backward(ad.add(*terms))
        assert np.array_equal(x.grad, 5.0 + 12.0 * x.data)   # d/dx of 5x + 6x^2

    def test_single_contribution_leaves_own_their_gradients(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        z = Tensor([0.5, 3.0], requires_grad=True)
        backward(ad.sum_along(ad.add(x, z)))
        assert np.array_equal(x.grad, [1.0, 1.0]) and np.array_equal(z.grad, [1.0, 1.0])
        assert not np.shares_memory(x.grad, z.grad)

    def test_unreachable_tensor_keeps_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        other = Tensor([2.0], requires_grad=True)
        backward(ad.sum_along(ad.mul(x, 3.0)))
        assert other.grad is None


class TestFdOracle:
    def test_quadratic_is_exact(self):
        fd = fd_gradient_oracle(lambda t: ad.sum_along(ad.mul(t, t)), Tensor([1.0, 2.0]))
        np.testing.assert_allclose(fd.data, [2.0, 4.0], atol=1e-9)

    def test_constant_function(self):
        fd = fd_gradient_oracle(lambda t: 7.0, Tensor(np.ones((2, 2))))
        np.testing.assert_array_equal(fd.data, np.zeros((2, 2)))


class TestAdamW:
    def test_decay_only_step(self):
        p = Tensor(np.array([2.0, -4.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.5)
        opt.step()
        np.testing.assert_allclose(p.data, [2.0 * 0.95, -4.0 * 0.95], atol=1e-15)

    def test_first_step_closed_form(self):
        rng = np.random.default_rng(5)
        w0 = rng.normal(size=4)
        g = rng.normal(size=4)
        p = Tensor(w0.copy(), requires_grad=True)
        p.grad = g.copy()
        opt = AdamW({"p": p}, lr=0.01, weight_decay=0.0)
        opt.step()
        expected = w0 - 0.01 * g / (np.abs(g) + opt.eps)
        np.testing.assert_allclose(p.data, expected, atol=1e-12)

    def test_step_counter(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.zeros(1)
        opt = AdamW({"p": p}, lr=0.1)
        assert opt.step_count == 0
        opt.step()
        assert opt.step_count == 1

    # `lr < 0` and `weight_decay < 0` let a NaN through
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("arg,name", [("lr", "learning rate"),
                                          ("weight_decay", "weight decay"), ("eps", "eps")])
    def test_non_finite_hyperparameter_rejected(self, arg, name, value):
        with pytest.raises(ConfigError, match=name):
            AdamW({"p": Tensor([1.0], requires_grad=True)}, **{arg: value})

    def test_missing_grad_names_parameter(self):
        p = Tensor([1.0], requires_grad=True)
        opt = AdamW({"theta": p})
        with pytest.raises(ContractError, match="theta"):
            opt.step()


def _random_tensor(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


# every differentiable op, checked on >= 5 seeded random shapes
OP_CASES = {
    "add": lambda t, rng: ad.add(t, Tensor(rng.normal(size=t.shape))),
    "add_broadcast": lambda t, rng: ad.add(t, Tensor(rng.normal(size=(t.shape[-1],)))),
    "sub": lambda t, rng: ad.sub(Tensor(rng.normal(size=t.shape)), t),
    "mul": lambda t, rng: ad.mul(t, Tensor(rng.normal(size=t.shape))),
    "mul_broadcast": lambda t, rng: ad.mul(t, Tensor(rng.normal(size=(t.shape[-1],)))),
    "relu": lambda t, rng: ad.relu(t),
    "softmax": lambda t, rng: ad.softmax_lastdim(t),
    "reshape": lambda t, rng: ad.reshape(t, (t.size,)),
    "permute": lambda t, rng: ad.permute(t, tuple(reversed(range(t.ndim)))),
    "concat": lambda t, rng: ad.concat([t, Tensor(rng.normal(size=t.shape))], axis=0),
    "mean": lambda t, rng: ad.mean(t, axis=0),
    "sqrt": lambda t, rng: ad.sqrt(ad.add(ad.mul(t, t), 0.5)),
    "sum_along": lambda t, rng: ad.sum_along(t, axis=-1),
    # one more index than rows, so at least one row is gathered twice
    "index_axis": lambda t, rng: ad.index_axis(
        t, 0, rng.integers(0, t.shape[0], size=t.shape[0] + 1)),
    "layer_norm": lambda t, rng: ad.layer_norm(
        t, Tensor(rng.normal(size=t.shape[-1])), Tensor(rng.normal(size=t.shape[-1]))),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
@pytest.mark.parametrize("seed", range(5))
def test_op_gradients_match_oracle(name, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(2, 5, size=rng.integers(2, 4)))
    op = OP_CASES[name]

    def f(t):
        out = op(t, np.random.default_rng(seed))
        return ad.sum_along(ad.mul(out, out))

    x = _random_tensor(rng, shape)
    backward(f(x))
    fd = fd_gradient_oracle(f, x, step=1e-3)
    assert max_relative_error(x.grad, fd) < FD_TOL, name


@pytest.mark.parametrize("seed", range(5))
def test_matmul_gradients_match_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    m, k, n = rng.integers(2, 5, size=3)
    b = Tensor(rng.normal(size=(k, n)))

    def f(t):
        out = ad.matmul(t, b)
        return ad.sum_along(ad.mul(out, out))

    x = _random_tensor(rng, (m, k))
    backward(f(x))
    fd = fd_gradient_oracle(f, x)
    assert max_relative_error(x.grad, fd) < FD_TOL


@pytest.mark.parametrize("seed", range(5))
def test_batched_matmul_gradients_match_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    b = Tensor(rng.normal(size=(4, 3)))

    def f(t):
        out = ad.matmul(t, b)
        return ad.sum_along(ad.mul(out, out))

    x = _random_tensor(rng, (3, 2, 4))
    backward(f(x))
    fd = fd_gradient_oracle(f, x)
    assert max_relative_error(x.grad, fd) < FD_TOL

    # gradient w.r.t. the shared right operand of a batched product
    a = rng.normal(size=(3, 2, 4))

    def g(t):
        out = ad.matmul(Tensor(a), t)
        return ad.sum_along(ad.mul(out, out))

    y = _random_tensor(rng, (4, 3))
    backward(g(y))
    fd = fd_gradient_oracle(g, y)
    assert max_relative_error(y.grad, fd) < FD_TOL


# a @ b^T: plain, batched, and with a 2-D b shared by (broadcast over) a batch
@pytest.mark.parametrize("sa,sb", [((3, 4), (5, 4)), ((3, 2, 4), (3, 5, 4)),
                                   ((3, 2, 4), (5, 4))])
@pytest.mark.parametrize("seed", range(3))
def test_transpose_b_matmul_gradients_match_oracle(sa, sb, seed):
    rng = np.random.default_rng(250 + seed)
    a, b = _random_tensor(rng, sa), _random_tensor(rng, sb)

    def f(x, y):
        out = ad.matmul(x, y, transpose_b=True)
        return ad.sum_along(ad.mul(out, out))

    backward(f(a, b))
    for leaf, fn in ((a, lambda t: f(t, Tensor(b.data))), (b, lambda t: f(Tensor(a.data), t))):
        assert max_relative_error(leaf.grad, fd_gradient_oracle(fn, leaf)) < FD_TOL


# the head's norm on (3, 4) rows, and on a batch of rows made by permuting the
# feature axis 0 of a channel-major (4, 2, 3) array last; its gradient flows
# back through the permute
@pytest.mark.parametrize("moved,seed", [
    *(pytest.param(False, 300 + s, id=str(s)) for s in range(5)),
    *(pytest.param(True, 500 + s, id=f"axis0-{s}") for s in range(5))])
def test_layer_norm_gradients_match_oracle(moved, seed):
    rng = np.random.default_rng(seed)
    gamma = Tensor(rng.normal(size=4), requires_grad=True)
    beta = Tensor(rng.normal(size=4), requires_grad=True)
    x = _random_tensor(rng, (4, 2, 3) if moved else (3, 4))

    def norm(t, g, b):
        return ad.layer_norm(ad.permute(t, (1, 2, 0)) if moved else t, g, b)

    def f_x(t):
        out = norm(t, gamma, beta)
        return ad.sum_along(ad.mul(out, out))

    backward(f_x(x))
    assert max_relative_error(x.grad, fd_gradient_oracle(f_x, x)) < FD_TOL

    def f_gamma(t):
        out = norm(x, t, beta)
        return ad.sum_along(ad.mul(out, out))

    assert max_relative_error(gamma.grad, fd_gradient_oracle(f_gamma, gamma)) < FD_TOL

    def f_beta(t):
        out = norm(x, gamma, t)
        return ad.sum_along(ad.mul(out, out))

    assert max_relative_error(beta.grad, fd_gradient_oracle(f_beta, beta)) < FD_TOL


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("batch,padding", [(1, 0), (1, 1), (3, 1)])
def test_conv2d_gradients_match_oracle(seed, batch, padding):
    rng = np.random.default_rng(400 + seed)
    x = Tensor(rng.normal(size=(2, batch, 5, 5)), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)

    def f_x(t):
        out = ad.conv2d(t, k, padding=padding)
        return ad.sum_along(ad.mul(out, out))

    backward(f_x(x))
    assert max_relative_error(x.grad, fd_gradient_oracle(f_x, x)) < FD_TOL

    def f_k(t):
        out = ad.conv2d(x, t, padding=padding)
        return ad.sum_along(ad.mul(out, out))

    assert max_relative_error(k.grad, fd_gradient_oracle(f_k, k)) < FD_TOL


@pytest.mark.parametrize("seed", range(5))
def test_avg_pool_gradients_match_oracle(seed):
    # norm_relu_pool, whose last stage is the average pool, at strides 1 to 3;
    # a 1e-3 step moves some normalized entries across the relu's kink
    rng, step = np.random.default_rng(600 + seed), 1e-5
    stride = 1 + seed % 3
    x = _random_tensor(rng, (3, 2, 2 * stride, 3 * stride))
    gamma, beta = _random_tensor(rng, (3,)), _random_tensor(rng, (3,))

    def loss(x, gamma, beta):
        out = ad.norm_relu_pool(x, gamma, beta, stride)
        return ad.sum_along(ad.mul(out, out))

    backward(loss(x, gamma, beta))
    for leaf, f in ((x, lambda t: loss(t, gamma, beta)), (gamma, lambda t: loss(x, t, beta)),
                    (beta, lambda t: loss(x, gamma, t))):
        assert max_relative_error(leaf.grad, fd_gradient_oracle(f, leaf, step)) < FD_TOL


@pytest.mark.parametrize("seed", range(5))
def test_index_axis_gather_gradients_match_oracle(seed):
    # repeated and unordered rows, and a row never taken (zero gradient)
    rng = np.random.default_rng(700 + seed)
    x = _random_tensor(rng, (5, 2, 3))
    index = rng.permutation(np.array([0, 3, 3, 1, 4, 3, 1]))
    weights = Tensor(rng.normal(size=(len(index), 2, 3)))

    def f(t):
        out = ad.index_axis(t, 0, index)
        return ad.sum_along(ad.mul(ad.mul(out, out), weights))

    backward(f(x))
    assert max_relative_error(x.grad, fd_gradient_oracle(f, x)) < FD_TOL
    assert np.all(x.grad[2] == 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_index_axis_gradients_match_oracle(seed):
    rng = np.random.default_rng(500 + seed)

    def f(t):
        out = ad.index_axis(t, 1, 1)
        return ad.sum_along(ad.mul(out, out))

    x = _random_tensor(rng, (3, 3, 2))
    backward(f(x))
    assert max_relative_error(x.grad, fd_gradient_oracle(f, x)) < FD_TOL


def test_forward_determinism_is_bit_exact():
    def run():
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        out = ad.softmax_lastdim(ad.matmul(ad.relu(x), w))
        loss = ad.sum_along(ad.mul(out, out))
        backward(loss)
        return loss.data.copy(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2) and np.array_equal(g1, g2)


def test_no_grad_suppresses_recording():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with ad.no_grad():
        out = ad.mul(x, x)
    assert not out.requires_grad and out._edges == ()
