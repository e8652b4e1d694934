"""Property-based checks of the backbone ops (conv2d, norm_relu_pool), of
the head's last-axis layer_norm and of index_axis: random shapes against
nested-loop and numpy oracles, and their vjps against the finite-difference
oracle. Random small graphs check that backward, which frees the graph as it
walks it, still adds every path's gradient into the leaves. The conditional learner
on position rows is checked bit for bit against its grid-level composition.

Examples are derandomized and few, so the suite runs the same cases in
about a second every time.
"""
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condrep import autodiff as ad
from condrep.autodiff import Tensor, backward
from condrep.conditional import ConvKernel4D, _sinusoid_table, conditional_forward
from referees import conditional_matrices, fd_gradient_oracle, max_relative_error

FD_TOL = 1e-4
ORACLE = settings(max_examples=30, deadline=None, derandomize=True, database=None)
GRADCHECK = settings(max_examples=8, deadline=None, derandomize=True, database=None)


def conv_oracle(x, k, padding):
    cin, b, h, w = x.shape
    cout, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho, wo = h + 2 * padding - kh + 1, w + 2 * padding - kw + 1
    out = np.zeros((cout, b, ho, wo))
    for o in range(cout):
        for n in range(b):
            for r in range(ho):
                for q in range(wo):
                    for c in range(cin):
                        for i in range(kh):
                            for j in range(kw):
                                out[o, n, r, q] += xp[c, n, r + i, q + j] * k[o, c, i, j]
    return out


def conv_x_grad_oracle(g, k, x_shape, padding):
    cin, b, h, w = x_shape
    cout, _, kh, kw = k.shape
    dxp = np.zeros((cin, b, h + 2 * padding, w + 2 * padding))
    for o, n, r, q in np.ndindex(g.shape):
        for c in range(cin):
            for i in range(kh):
                for j in range(kw):
                    dxp[c, n, r + i, q + j] += g[o, n, r, q] * k[o, c, i, j]
    return dxp[:, :, padding:padding + h, padding:padding + w]


def pool_oracle(x, stride):
    c, b, h, w = x.shape
    out = np.zeros((c, b, h // stride, w // stride))
    for ch in range(c):
        for n in range(b):
            for r in range(h // stride):
                for q in range(w // stride):
                    window = [x[ch, n, r * stride + i, q * stride + j]
                              for i in range(stride) for j in range(stride)]
                    out[ch, n, r, q] = sum(window) / len(window)
    return out


def norm_oracle(x, gamma, beta, eps=1e-5):
    out = np.zeros_like(x)
    for idx in np.ndindex(x.shape[1:]):
        col = [x[(c,) + idx] for c in range(x.shape[0])]
        mu = sum(col) / len(col)
        var = sum((v - mu) ** 2 for v in col) / len(col)
        for c, v in enumerate(col):
            out[(c,) + idx] = gamma[c] * (v - mu) / np.sqrt(var + eps) + beta[c]
    return out


@st.composite
def conv_cases(draw, max_side=6, max_batch=3):
    # the chunk size makes conv2d build its columns one image at a time, two
    # at a time with a shorter last chunk, or for the whole batch at once
    padding = draw(st.integers(0, 1))
    kh, kw = draw(st.sampled_from([1, 3])), draw(st.sampled_from([1, 3]))
    h = draw(st.integers(max(1, kh - 2 * padding), max_side))
    w = draw(st.integers(max(1, kw - 2 * padding), max_side))
    b, cin, cout = (draw(st.integers(1, n)) for n in (max_batch, 3, 3))
    ho, wo = h + 2 * padding - kh + 1, w + 2 * padding - kw + 1
    chunk = draw(st.sampled_from([1, 2 * 8 * cin * kh * kw * ho * wo, 1 << 20]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (rng.normal(size=(cin, b, h, w)), rng.normal(size=(cout, cin, kh, kw)), padding,
            chunk)


@st.composite
def pool_cases(draw, max_cells=3, max_batch=4):
    # the chunk size makes norm_relu_pool split the batch into one-image
    # chunks, into chunks of two with a shorter last one, or not at all
    stride = draw(st.integers(1, 3))
    c, b = draw(st.integers(1, 3)), draw(st.integers(1, max_batch))
    h, w = (stride * draw(st.integers(1, max_cells)) for _ in range(2))
    chunk = draw(st.sampled_from([1, 2 * 8 * c * h * w, 1 << 20]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.normal(size=(c, b, h, w)), rng.normal(size=c), rng.normal(size=c), stride, chunk


@st.composite
def norm_cases(draw, max_side=4, scales=(1e-3, 1.0, 50.0)):
    shape = tuple(draw(st.lists(st.integers(1, max_side), min_size=1, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from(scales))
    n = shape[-1]
    return rng.normal(scale=scale, size=shape), rng.normal(size=n), rng.normal(size=n)


@st.composite
def gather_cases(draw, max_side=4):
    # repeats, any order, and some slices never taken
    shape = tuple(draw(st.lists(st.integers(1, max_side), min_size=1, max_size=3)))
    axis = draw(st.integers(0, len(shape) - 1))
    index = np.array(draw(st.lists(st.integers(0, shape[axis] - 1), min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.normal(size=shape), axis, index


def _sq(t):
    return ad.sum_along(ad.mul(t, t))


def _grad_error(f, x, step=1e-3):
    x = Tensor(x, requires_grad=True)
    backward(f(x))
    return max_relative_error(x.grad, fd_gradient_oracle(f, x, step))


# several non-square images: the x-gradient orders its columns (H', W', B),
# which a single or square image would not tell apart from (B, H', W'); the
# chunk sizes cut the 3 images into one-image chunks and into 2 + 1
_WIDE_BATCH = tuple(np.random.default_rng(7).normal(size=s) for s in [(2, 3, 3, 4), (3, 2, 3, 3)])


def _conv_and_vjps(x, k, padding, g, chunk):
    tx, tk = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
    with mock.patch.object(ad, "_CHUNK_BYTES", chunk):
        out = ad.conv2d(tx, tk, padding=padding)
        backward(ad.sum_along(ad.mul(out, g)))
    return out.data, tx.grad, tk.grad


@ORACLE
@given(conv_cases())
@example((*_WIDE_BATCH, 1, 1))
@example((*_WIDE_BATCH, 0, 2 * 8 * 18 * 1 * 2))
def test_conv2d_matches_nested_loops(case):
    # at the drawn chunk size: within the oracles, and bit-equal to the
    # output and vjps at the shipped chunk size
    x, k, padding, chunk = case
    ref = conv_oracle(x, k, padding)
    g = np.random.default_rng(3).normal(size=ref.shape)
    out, dx, dk = got = _conv_and_vjps(x, k, padding, g, chunk)
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(dx, conv_x_grad_oracle(g, k, x.shape, padding),
                               rtol=1e-12, atol=1e-12)
    for a, b in zip(got, _conv_and_vjps(x, k, padding, g, ad._CHUNK_BYTES)):
        np.testing.assert_array_equal(a, b)


@ORACLE
@given(pool_cases())
def test_avg_pool_matches_nested_loops(case):
    # norm_relu_pool against the norm oracle, relu and the pool oracle
    x, gamma, beta, stride, chunk = case
    with mock.patch.object(ad, "_CHUNK_BYTES", chunk):
        out = ad.norm_relu_pool(Tensor(x), Tensor(gamma), Tensor(beta), stride).data
    ref = pool_oracle(np.maximum(norm_oracle(x, gamma, beta), 0.0), stride)
    np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9)


@ORACLE
@given(norm_cases())
def test_layer_norm_matches_nested_loops(case):
    x, gamma, beta = case
    out = ad.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
    ref = np.moveaxis(norm_oracle(np.moveaxis(x, -1, 0), gamma, beta), 0, -1)
    np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9)


@ORACLE
@given(gather_cases())
def test_index_axis_gather_matches_np_take(case):
    x, axis, index = case
    np.testing.assert_array_equal(ad.index_axis(Tensor(x), axis, index).data,
                                  np.take(x, index, axis=axis))


@ORACLE
@given(gather_cases())
def test_index_axis_vjp_matches_add_at(case):
    x, axis, index = case
    t = Tensor(x, requires_grad=True)
    out = ad.index_axis(t, axis, index)
    weights = np.random.default_rng(1).normal(size=out.shape)
    backward(ad.sum_along(ad.mul(out, weights)))
    ref = np.zeros_like(x)
    np.add.at(np.moveaxis(ref, axis, 0), index, np.moveaxis(weights, axis, 0))
    np.testing.assert_array_equal(t.grad, ref)


@ORACLE
@given(gather_cases())
def test_int_index_equals_the_squeezed_one_element_gather(case):
    x, axis, index = case
    i = int(index[0])

    def run(idx):
        t = Tensor(x, requires_grad=True)
        out = ad.reshape(ad.index_axis(t, axis, idx), x.shape[:axis] + x.shape[axis + 1:])
        weights = np.random.default_rng(2).normal(size=out.shape)
        backward(ad.sum_along(ad.mul(out, weights)))
        return out.data, t.grad

    (a, da), (b, db) = run(i), run(np.array([i]))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(da, db)


@GRADCHECK
@given(conv_cases(max_side=4, max_batch=2))
@example((*_WIDE_BATCH, 1, 1))
def test_conv2d_vjps_match_finite_differences(case):
    x, k, padding, chunk = case
    with mock.patch.object(ad, "_CHUNK_BYTES", chunk):
        assert _grad_error(lambda t: _sq(ad.conv2d(t, Tensor(k), padding=padding)), x) < FD_TOL
        assert _grad_error(lambda t: _sq(ad.conv2d(Tensor(x), t, padding=padding)), k) < FD_TOL


@GRADCHECK
@given(pool_cases(max_cells=2, max_batch=3))
def test_avg_pool_vjp_matches_finite_differences(case):
    # norm_relu_pool's three vjps; the step is the norm's (see below), which
    # also keeps the differences off the relu's kink
    x, gamma, beta, stride, chunk = case
    g, b, step = Tensor(gamma), Tensor(beta), 1e-5
    with mock.patch.object(ad, "_CHUNK_BYTES", chunk):
        assert _grad_error(lambda t: _sq(ad.norm_relu_pool(t, g, b, stride)), x, step) < FD_TOL
        assert _grad_error(lambda t: _sq(ad.norm_relu_pool(Tensor(x), t, b, stride)), gamma,
                           step) < FD_TOL
        assert _grad_error(lambda t: _sq(ad.norm_relu_pool(Tensor(x), g, t, stride)), beta,
                           step) < FD_TOL


@GRADCHECK
@given(norm_cases(max_side=3, scales=(1.0,)))
def test_layer_norm_vjps_match_finite_differences(case):
    # where a length-2 axis holds two entries ~1e-2 apart, a 1e-3 step measures
    # the central difference's truncation, not the vjp; 1e-5 lies well below
    # sqrt(eps) ~ 3e-3, the narrowest scale on which the norm bends
    x, gamma, beta = case
    g, b, step = Tensor(gamma), Tensor(beta), 1e-5
    assert _grad_error(lambda t: _sq(ad.layer_norm(t, g, b)), x, step) < FD_TOL
    assert _grad_error(lambda t: _sq(ad.layer_norm(Tensor(x), t, b)), gamma, step) < FD_TOL
    assert _grad_error(lambda t: _sq(ad.layer_norm(Tensor(x), g, t)), beta, step) < FD_TOL


@GRADCHECK
@given(gather_cases())
def test_index_axis_vjp_matches_finite_differences(case):
    x, axis, index = case
    assert _grad_error(lambda t: _sq(ad.index_axis(t, axis, index)), x) < FD_TOL


@st.composite
def dag_cases(draw):
    # a straight-line program over leaves x (3,) and z (1,), which broadcasts
    # against x; operands are drawn from the last three nodes, so a node feeds
    # several others, and "alias" adds a node to itself (add hands one
    # gradient array to both of its edges)
    ops = st.sampled_from(("add", "sub", "mul", "alias"))
    steps = draw(st.lists(st.tuples(ops, st.integers(0, 99), st.integers(0, 99)),
                          min_size=2, max_size=8))
    outputs = draw(st.lists(st.integers(0, 99), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.uniform(-1.0, 1.0, size=3), rng.uniform(-1.0, 1.0, size=1), steps, outputs


def _run_dag(x, z, steps, outputs):
    nodes = [x, z]
    for op, i, j in steps:
        a, b = nodes[-1 - i % min(3, len(nodes))], nodes[-1 - j % min(3, len(nodes))]
        nodes.append(ad.add(a, a) if op == "alias" else getattr(ad, op)(a, b))
    loss = ad.sum_along(nodes[-1])
    for k in outputs:
        loss = ad.add(loss, ad.sum_along(nodes[k % len(nodes)]))
    return loss


@ORACLE
@given(dag_cases())
def test_random_graph_leaf_gradients_match_finite_differences(case):
    x0, z0, steps, outputs = case
    x, z = Tensor(x0, requires_grad=True), Tensor(z0, requires_grad=True)
    backward(_run_dag(x, z, steps, outputs))
    fd_x = fd_gradient_oracle(lambda t: _run_dag(t, Tensor(z0), steps, outputs), x0, step=1e-4)
    fd_z = fd_gradient_oracle(lambda t: _run_dag(Tensor(x0), t, steps, outputs), z0, step=1e-4)
    for leaf, fd in ((x, fd_x), (z, fd_z)):   # a leaf the loss never reaches keeps None
        grad = np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad
        assert max_relative_error(grad, fd) < FD_TOL


@st.composite
def pair_cases(draw):
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    w, h, c = draw(st.integers(1, 5)), draw(st.integers(1, 5)), 2 * draw(st.integers(1, 4))
    kshape = tuple(draw(st.sampled_from([1, 3])) for _ in range(4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kernel = ConvKernel4D(weights=Tensor(rng.normal(size=kshape)), bias=Tensor(rng.normal()))
    return rng.normal(size=batch + (w, h, c)), rng.normal(size=batch + (w, h, c)), kernel


def _grid_level_corr(a, b):
    """Cross-attention of ``a`` against its view ``[a; b]``, in plain numpy:
    flatten both maps, encode the view over 2*W*H positions and the query
    over W*H, and attend."""
    *lead, w, h, c = a.shape
    t = w * h
    flat_a, flat_b = a.reshape(*lead, t, c), b.reshape(*lead, t, c)
    view = np.concatenate([flat_a, flat_b], axis=-2) + _sinusoid_table(2 * t, c)
    q = flat_a + _sinusoid_table(t, c)
    scores = q @ np.ascontiguousarray(np.swapaxes(view, -1, -2)) * c ** -0.5
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return (e / e.sum(axis=-1, keepdims=True) @ view).reshape(a.shape)


@ORACLE
@given(pair_cases())
def test_conditional_forward_equals_the_grid_level_composition(case):
    a, b, kernel = case
    out = conditional_forward(Tensor(a), Tensor(b), kernel)
    ref = conditional_matrices(Tensor(_grid_level_corr(a, b)), Tensor(_grid_level_corr(b, a)),
                               kernel)
    np.testing.assert_array_equal(out.support_matrix.data.reshape(ref[0].shape), ref[0].data)
    np.testing.assert_array_equal(out.query_matrix.data.reshape(ref[1].shape), ref[1].data)
    swapped = conditional_forward(Tensor(b), Tensor(a), kernel)
    np.testing.assert_array_equal(swapped.support_matrix.data, out.query_matrix.data)
    np.testing.assert_array_equal(swapped.query_matrix.data, out.support_matrix.data)
