"""Property-based checks of the channel-major backbone ops (conv2d,
channel_norm, avg_pool): random shapes against nested-loop oracles, and
their vjps against the finite-difference oracle.

Examples are derandomized and few, so the suite runs the same cases in
about a second every time.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from condrep import autodiff as ad
from condrep.autodiff import Tensor, backward
from condrep.gradcheck import fd_gradient_oracle, max_relative_error

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
    padding = draw(st.integers(0, 1))
    kh, kw = draw(st.sampled_from([1, 3])), draw(st.sampled_from([1, 3]))
    h = draw(st.integers(max(1, kh - 2 * padding), max_side))
    w = draw(st.integers(max(1, kw - 2 * padding), max_side))
    b, cin, cout = (draw(st.integers(1, n)) for n in (max_batch, 3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.normal(size=(cin, b, h, w)), rng.normal(size=(cout, cin, kh, kw)), padding


@st.composite
def pool_cases(draw, max_cells=3):
    stride = draw(st.integers(1, 3))
    c, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = (stride * draw(st.integers(1, max_cells)) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.normal(size=(c, b, h, w)), stride


@st.composite
def norm_cases(draw, max_rest=4, scales=(1e-3, 1.0, 50.0)):
    c = draw(st.integers(1, 5))
    rest = tuple(draw(st.lists(st.integers(1, max_rest), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from(scales))
    return rng.normal(scale=scale, size=(c,) + rest), rng.normal(size=c), rng.normal(size=c)


def _sq(t):
    return ad.sum_along(ad.mul(t, t))


def _grad_error(f, x):
    x = Tensor(x, requires_grad=True)
    backward(f(x))
    return max_relative_error(x.grad, fd_gradient_oracle(f, x))


@ORACLE
@given(conv_cases())
def test_conv2d_matches_nested_loops(case):
    x, k, padding = case
    out = ad.conv2d(Tensor(x), Tensor(k), padding=padding).data
    np.testing.assert_allclose(out, conv_oracle(x, k, padding), rtol=1e-12, atol=1e-12)


@ORACLE
@given(pool_cases())
def test_avg_pool_matches_nested_loops(case):
    x, stride = case
    np.testing.assert_allclose(ad.avg_pool(Tensor(x), stride).data, pool_oracle(x, stride),
                               rtol=1e-13, atol=1e-14)


@ORACLE
@given(norm_cases())
def test_channel_norm_matches_nested_loops(case):
    x, gamma, beta = case
    out = ad.channel_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
    np.testing.assert_allclose(out, norm_oracle(x, gamma, beta), rtol=1e-9, atol=1e-9)


@GRADCHECK
@given(conv_cases(max_side=4, max_batch=2))
def test_conv2d_vjps_match_finite_differences(case):
    x, k, padding = case
    assert _grad_error(lambda t: _sq(ad.conv2d(t, Tensor(k), padding=padding)), x) < FD_TOL
    assert _grad_error(lambda t: _sq(ad.conv2d(Tensor(x), t, padding=padding)), k) < FD_TOL


@GRADCHECK
@given(pool_cases(max_cells=2))
def test_avg_pool_vjp_matches_finite_differences(case):
    x, stride = case
    assert _grad_error(lambda t: _sq(ad.avg_pool(t, stride)), x) < FD_TOL


@GRADCHECK
@given(norm_cases(max_rest=3, scales=(1.0,)))
def test_channel_norm_vjps_match_finite_differences(case):
    x, gamma, beta = case
    g, b = Tensor(gamma), Tensor(beta)
    assert _grad_error(lambda t: _sq(ad.channel_norm(t, g, b)), x) < FD_TOL
    assert _grad_error(lambda t: _sq(ad.channel_norm(Tensor(x), t, b)), gamma) < FD_TOL
    assert _grad_error(lambda t: _sq(ad.channel_norm(Tensor(x), g, t)), beta) < FD_TOL
