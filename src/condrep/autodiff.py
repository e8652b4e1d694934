"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is kept apart from the data. Every operation made under grad
mode gives its output :class:`Tensor`, which owns the array, a small
:class:`_Node` that records the (parent, vjp) edges needed to route the
output gradient back to its inputs, plus its gradient slot, a consumed
flag and its shape; an edge points at the parent's node, or at the parent
itself if it is a leaf. The set of nodes reachable from a loss, visited in
reverse topological order, replays the forward pass backwards exactly once.
No node and no vjp holds a Tensor, so an intermediate's array lives only
as long as the caller holds its tensor or a vjp reads it (the saved-tensor
discipline of Paszke et al., *PyTorch*, arXiv 1912.01703). Each vjp keeps
arrays and shapes only:

* add, sub, reshape, permute, concat, mean, sum_along and index_axis keep
  shapes;
* mul and matmul keep the other operand's array, on each edge to a parent
  that needs a gradient only; matmul with ``transpose_b`` keeps ``b``
  itself and rebuilds the transient ``b^T`` copy its a-gradient multiplies
  by, so attention whose keys are its values keeps those rows once; relu
  keeps a 1-byte mask; sqrt and softmax keep their output (softmax builds
  it in the one array that held the shift and its exponential),
  layer_norm the normalized rows, their inverse deviations and gamma's
  array;
* conv2d keeps its input array for the kernel gradient and the flattened
  kernel for the input gradient; norm_relu_pool keeps shapes and the
  arrays named below, so no conv output outlives the forward.

:func:`backward` fills ``grad`` on the leaves (parameters and
``requires_grad`` inputs) and on the loss only, and consumes the graph as
it walks it: each node's gradient, closures and the arrays they kept are
freed once its vjps have run, so a backward pass holds little more than
the forward left alive. A second walk that reaches a consumed node raises.

Operations accept arbitrary leading batch dimensions where the math
allows it (matmul, softmax, layer_norm of the last axis, elementwise ops),
and index_axis selects or gathers along any one axis. The backbone ops are
channel-major and take (C, B, H, W): conv2d, which builds its im2col
columns over cache-sized chunks of images, copying the kernel windows of
each zero-padded chunk in one pass, and rebuilds them for the kernel
gradient rather than keep them, and norm_relu_pool, which
runs the rest of a block (channel norm, relu, average pooling) as one op
over cache-sized chunks, keeping only the normalized input, a per-position
inverse deviation and a 1-byte relu mask for backward.
The batched forms are exercised by the same finite-difference gradient
suite as the plain ones.

Graph construction is single-writer: do not build or backward one graph
from several threads. Grad mode is one process-wide flag, which
``no_grad`` saves and restores, so it is not thread-safe: when two threads'
``no_grad`` blocks overlap, the first exit turns recording back on inside
the other block, and the second exit leaves it off for good.

Importing this module sets the process's glibc malloc policy (see
:func:`_keep_freed_pages`).
"""
from __future__ import annotations

import ctypes
import sys
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import ContractError, DimensionError, StateError

_grad_enabled = True

NORM_EPS = 1e-5   # variance floor of layer_norm and norm_relu_pool
# norm_relu_pool's input bytes per chunk, and conv2d's im2col column bytes
# per chunk. On backbone block shapes, with one BLAS thread on a core with
# 2 MB of L2, 2-4 MB chunks ran norm_relu_pool's forward and backward
# fastest: 1 MB chunks cut each channel row into runs too short to stream (a
# 64-channel 14x14 block took 25% longer), whole batches spill every pass
# out of cache (a 32-channel 28x28 block, 20% longer). conv2d's forward on
# 2 MB column chunks took 44 ms on a 32->64-channel 14x14 block of 136
# images, against 57 ms for one whole-batch matrix
_CHUNK_BYTES = 2 << 20

_M_TRIM_THRESHOLD = -1   # glibc <malloc.h>
_M_MMAP_THRESHOLD = -3


def _keep_freed_pages():
    """Keep freed heap pages in the process; returns the two ``mallopt``
    results, or None where glibc's ``mallopt`` is not available.

    A training step frees every activation and gradient at once when its
    graph goes. By default glibc then trims the heap top and returns those
    pages to the OS, and the next step page-faults them in again: on a
    2-vCPU machine with one BLAS thread a default step (80 pairs at 32 px)
    made 23k minor faults and spent 54 ms of its 213 ms in the kernel, a
    7x7x64-grid step 46k faults and 148 ms of 641 ms. A 1 GiB trim
    threshold keeps the pages, and a 32 MB mmap threshold (glibc's 64-bit
    maximum) serves arrays up to that size from the reused heap rather than
    from fresh ``mmap`` calls. Steps then make under 100 faults and 1-2 ms
    of system time, peak RSS is unchanged, and no arithmetic changes.
    """
    if not sys.platform.startswith("linux"):
        return None
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_TRIM_THRESHOLD, 1 << 30), mallopt(_M_MMAP_THRESHOLD, 32 << 20))


_MALLOPT_RESULTS = _keep_freed_pages()


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """n-dimensional float64 array with optional gradient tracking.

    ``data`` is always a contiguous float64 ndarray; on a leaf, ``grad`` is
    filled by :func:`backward` and has the same shape as ``data``. An op
    output made under grad mode carries its graph :class:`_Node` in
    ``_node``; ``_edges`` and ``_consumed`` read (and ``_edges`` sets) that
    node's fields, and read ``()`` and False on a leaf.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    @property
    def _edges(self):
        return self._node._edges if self._node is not None else ()

    @_edges.setter
    def _edges(self, edges):
        self._node._edges = edges

    @property
    def _consumed(self):
        return self._node is not None and self._node._consumed

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    """The graph record of one op output: its (parent, vjp) edges, the
    gradient :func:`backward` accumulates for it, whether a walk consumed it,
    and the output's shape. It holds no data, so the output's array lives
    only as long as the caller's :class:`Tensor` or a vjp that reads it. A
    parent is the node of an op output, or the leaf tensor itself."""

    __slots__ = ("_edges", "grad", "_consumed", "shape")

    def __init__(self, edges, shape):
        self._edges, self.grad, self._consumed, self.shape = edges, None, False, shape


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _records(*tensors) -> bool:
    """Whether an op on ``tensors`` records a graph node."""
    return _grad_enabled and any(t.requires_grad for t in tensors)


def _make(out_data, edges) -> Tensor:
    """Wrap op output; under grad mode, give it a node of the edges to
    grad-requiring parents, each edge pointing at the parent's node (or at
    the parent itself if it is a leaf)."""
    out = Tensor(out_data)
    if _grad_enabled:
        kept = tuple((p._node or p, vjp) for p, vjp in edges if p.requires_grad)
        if kept:
            out.requires_grad = True
            out._node = _Node(kept, out.data.shape)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def _elementwise(name: str, op, a, b, grad_a, grad_b) -> Tensor:
    """``op`` of two operands' arrays, which must broadcast (else DimensionError
    naming the op); each operand's vjp sums ``grad(g)`` back to its shape."""
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = op(a.data, b.data)
    except ValueError:
        raise DimensionError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast")
    sa, sb = a.shape, b.shape
    return _make(out, [(a, lambda g: _unbroadcast(grad_a(g), sa)),
                       (b, lambda g: _unbroadcast(grad_b(g), sb))])


def add(a, b) -> Tensor:
    return _elementwise("add", np.add, a, b, lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    return _elementwise("sub", np.subtract, a, b, lambda g: g, np.negative)


def mul(a, b) -> Tensor:
    # each vjp reads the other operand's array; _make drops the vjps of
    # parents that need no gradient, and with them the arrays they read
    a, b = as_tensor(a), as_tensor(b)
    da, db = a.data, b.data
    return _elementwise("mul", np.multiply, a, b, lambda g: g * db, lambda g: g * da)


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = np.maximum(x.data, 0.0)
    # subgradient at exactly 0 is 0; backward keeps the 1-byte mask, not x
    mask = x.data > 0.0 if _records(x) else None
    return _make(out, [(x, lambda g: g * mask)])


def sqrt(x) -> Tensor:
    x = as_tensor(x)
    out = np.sqrt(x.data)
    # subgradient 0 where x == 0 keeps composite graphs finite
    def vjp(g, out=out):
        return g * np.where(out > 0.0, 0.5 / np.where(out > 0.0, out, 1.0), 0.0)
    return _make(out, [(x, vjp)])


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b, *, transpose_b: bool = False) -> Tensor:
    """Matrix product ``a @ b``, or ``a @ b^T`` with ``transpose_b``; either
    operand may carry leading batch dimensions.

    With ``transpose_b`` the vjps keep ``b``'s own array, not a transposed
    copy, and each product runs on a transient contiguous copy of ``b^T``,
    so the bits equal ``matmul(a, permute(b, ...))``'s: numpy's gemm on the
    strided view gives other bits (at (80, 16, 32) rows, for one)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul: operands must be >=2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-1 if transpose_b else -2]:
        raise DimensionError(f"matmul: inner dimensions disagree for shapes {a.shape} and "
                             f"{b.shape}{' (b transposed)' if transpose_b else ''}")
    da, db, sa, sb = a.data, b.data, a.shape, b.shape

    def rhs():
        return np.ascontiguousarray(db.swapaxes(-1, -2)) if transpose_b else db

    def vjp_a(g):
        return _unbroadcast(g @ rhs().swapaxes(-1, -2), sa)

    def vjp_b(g):
        gb = da.swapaxes(-1, -2) @ g
        return _unbroadcast(gb.swapaxes(-1, -2) if transpose_b else gb, sb)

    return _make(da @ rhs(), [(a, vjp_a), (b, vjp_b)])


def softmax_lastdim(x) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction in one
    array: the shift, its exponential and the normalized output share it."""
    x = as_tensor(x)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise DimensionError(f"softmax_lastdim: empty last dimension in shape {x.shape}")
    y = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def vjp(g):
        return y * (g - (g * y).sum(axis=-1, keepdims=True))

    return _make(y, [(x, vjp)])


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize every row of the last axis to zero mean / unit variance,
    then scale and shift its entries by ``gamma`` and ``beta`` (Ba et al.,
    *Layer Normalization*, arXiv 1607.06450).

    Each statistic is a numpy reduction of one row, so a row's bits never
    depend on the other rows of its batch."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    n = x.shape[-1] if x.ndim else 0
    if n == 0 or gamma.shape != (n,) or beta.shape != (n,):
        raise DimensionError(f"layer_norm: last axis of {x.shape} empty or not matched by "
                             f"gamma/beta shapes {gamma.shape}/{beta.shape}")
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.einsum("...i,...i->...", xhat, xhat)[..., None] / n + NORM_EPS)
    xhat *= inv
    gd = gamma.data
    out = gd * xhat + beta.data

    def vjp_x(g):
        dx = g * gd
        m2 = np.einsum("...i,...i->...", dx, xhat)[..., None] / n
        dx -= dx.mean(axis=-1, keepdims=True)
        dx -= xhat * m2
        dx *= inv
        return dx

    return _make(out, [
        (x, vjp_x),
        (gamma, lambda g: np.einsum("ij,ij->j", g.reshape(-1, n), xhat.reshape(-1, n))),
        (beta, lambda g: g.reshape(-1, n).sum(axis=0)),
    ])


# ---------------------------------------------------------------------------
# channel-major backbone ops: (C, B, H, W)
# ---------------------------------------------------------------------------

def conv2d(x, kernel, padding: int = 0) -> Tensor:
    """Stride-1 cross-correlation of channel-major (C_in,B,H,W) images with a
    (C_out,C_in,kh,kw) kernel; returns (C_out,B,H',W').

    The forward builds the (C_in*kh*kw, H'*W') im2col columns of a chunk
    of whole images at a time, about ``_CHUNK_BYTES`` of them, so each copy
    stays in cache. im2col is data movement only (Chellapilla et al., *High
    Performance Convolutional Neural Networks for Document Processing*,
    2006): the chunk is copied once into a zero-padded buffer, and its
    kh x kw windows are copied into the column buffer in one pass. The
    flattened kernel is multiplied into each image's columns straight into
    the output. Each image's columns are contiguous, so every image's gemm
    has the same shape and strides whatever the batch or chunk, and no
    output bit depends on the other images or the chunk size (a BLAS dot or
    gemv sums a strided operand in another order). No column matrix
    outlives the call: the kernel gradient rebuilds the batch's
    (C_in*kh*kw, B*H'*W') matrix from the input and drops it after its one
    gemm, trading one im2col in backward for the memory (Chen et al.,
    *Training Deep Nets with Sublinear Memory Cost*, arXiv 1604.06174)."""
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim != 4 or kernel.ndim != 4:
        raise DimensionError(f"conv2d: expected images (C,B,H,W) and kernel "
                             f"(C_out,C_in,kh,kw), got {x.shape} and {kernel.shape}")
    cin, b, h, w = x.shape
    cout, kcin, kh, kw = kernel.shape
    if kcin != cin:
        raise DimensionError(f"conv2d: input channels {cin} != kernel channels {kcin}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise DimensionError(f"conv2d: kernel {kh}x{kw} larger than padded input "
                             f"{h + 2 * padding}x{w + 2 * padding}")

    ho, wo = h + 2 * padding - kh + 1, w + 2 * padding - kw + 1
    k, n = cin * kh * kw, b * ho * wo

    xd = x.data

    def im2col(lo, hi, batch_first):
        # columns of images lo..hi, (C_in,kh,kw,B,H',W') or, batch_first,
        # (B,C_in,kh,kw,H',W') in memory, copied in one pass from the kh x kw
        # windows of the chunk, zero-padded
        xs = xd[:, lo:hi]
        if padding:
            xs = np.zeros((cin, hi - lo, h + 2 * padding, w + 2 * padding))
            xs[:, :, padding:padding + h, padding:padding + w] = xd[:, lo:hi]
        win = sliding_window_view(xs, (kh, kw), axis=(2, 3))  # (C_in,B,H',W',kh,kw)
        return np.ascontiguousarray(
            win.transpose((1, 0, 4, 5, 2, 3) if batch_first else (0, 4, 5, 1, 2, 3)))

    w2 = kernel.data.reshape(cout, k)
    out = np.empty((cout, b, ho * wo))
    step = max(1, _CHUNK_BYTES // max(1, 8 * k * ho * wo))
    for lo in range(0, b, step):
        hi = min(b, lo + step)
        cols = im2col(lo, hi, True).reshape(hi - lo, k, ho * wo)
        np.matmul(w2, cols, out=out[:, lo:hi].transpose(1, 0, 2))

    def vjp_kernel(g):
        cols = im2col(0, b, False).reshape(k, n)
        return (g.reshape(cout, n) @ cols.T).reshape(cout, cin, kh, kw)

    def vjp_x(g):
        # columns in (H', W', B) order and a (C_in, H, W, B) buffer: each
        # shifted add below runs over W'*B contiguous entries, not W'
        gt = g.reshape(cout, b, ho * wo).transpose(0, 2, 1).reshape(cout, n)
        dcols = (w2.T @ gt).reshape(cin, kh, kw, ho, wo, b)
        dxp = np.zeros((cin, h + 2 * padding, w + 2 * padding, b))
        for i in range(kh):
            for j in range(kw):
                dxp[:, i:i + ho, j:j + wo] += dcols[:, i, j]
        return dxp[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2)

    return _make(out.reshape(cout, b, ho, wo), [(x, vjp_x), (kernel, vjp_kernel)])


def norm_relu_pool(x, gamma, beta, stride: int) -> Tensor:
    """One backbone block after its conv, on channel-major (C,B,H,W) input:
    each position's C channels normalized to zero mean / unit variance,
    scaled by ``gamma`` and shifted by ``beta``, relu, then the average over
    non-overlapping stride x stride windows (column neighbours added first,
    then row neighbours); returns (C,B,H/stride,W/stride).

    Each statistic adds one position's C channel rows in turn. The forward
    runs over chunks of whole images of about ``_CHUNK_BYTES``, so
    each elementwise pass stays in cache, and keeps for backward only the
    normalised input, the per-position inverse deviation and a 1-byte relu
    mask, not the norm or relu outputs (Rota Bulo et al., *In-Place
    Activated BatchNorm*, CVPR 2018). Without a graph to record it keeps
    nothing. The vjps share one masked, upsampled gradient; the x-gradient
    runs chunk by chunk, and gamma and beta reduce whole channel rows."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim != 4 or 0 in (x.shape[0], x.shape[2], x.shape[3]):
        raise DimensionError(f"norm_relu_pool: expected (C,B,H,W) with C, H, W >= 1, "
                             f"got {x.shape}")
    c, b, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(f"norm_relu_pool: gamma/beta shapes {gamma.shape}/{beta.shape} "
                             f"do not match {c} channels")
    if stride < 1 or h % stride or w % stride:
        raise DimensionError(f"norm_relu_pool: stride {stride} does not divide {h}x{w}")
    s, hw = stride, h * w
    ho, wo, n = h // s, w // s, s * s
    # numpy reduces a lone column pairwise, not row by row as it does a wider
    # block: 1x1 images therefore go in one chunk, so no bit depends on chunking
    step = max(1, b) if hw == 1 else max(1, _CHUNK_BYTES // (8 * c * hw))
    chunks = [(lo, min(b, lo + step)) for lo in range(0, b, step)]
    keep = _records(x, gamma, beta)
    if keep:
        xhat, inv, mask = np.empty((c, b * hw)), np.empty(b * hw), np.empty((c, b * hw), bool)
    gd = gamma.data
    x2, out = x.data.reshape(c, b * hw), np.empty((c, b, ho, wo))
    for lo, hi in chunks:
        cols = slice(lo * hw, hi * hw)
        xc = x2[:, cols]
        xh = np.subtract(xc, xc.mean(axis=0), out=xhat[:, cols] if keep else None)
        iv = np.divide(1.0, np.sqrt(np.einsum("ij,ij->j", xh, xh) / c + NORM_EPS),
                       out=inv[cols] if keep else None)
        xh *= iv
        y = np.multiply(gd[:, None], xh, out=None if keep else xh)   # xhat is kept
        y += beta.data[:, None]
        if keep:
            np.greater(y, 0.0, out=mask[:, cols])
        np.maximum(y, 0.0, out=y)
        y = y.reshape(c, hi - lo, h, w)
        pooled = y[..., ::s]
        for j in range(1, s):
            pooled = pooled + y[..., j::s]
        rows, o = pooled[:, :, ::s], out[:, lo:hi]
        for i in range(1, s):
            rows = np.add(rows, pooled[:, :, i::s], out=o)
        np.divide(rows, n, out=o)
    if not keep:
        return _make(out, ())

    shared = [None, None]   # (g, masked upsampled g as (C, B*H*W) rows)

    def rows_of(g):
        # g / n repeated along W once, then broadcast over each window's s
        # rows, so the masked product runs over whole image rows
        if shared[0] is not g:
            g_w = np.repeat(g * (1.0 / n), s, axis=3)
            up = np.multiply(mask.reshape(c, b, ho, s, w), g_w[:, :, :, None, :])
            shared[:] = g, up.reshape(c, b * hw)
        return shared[1]

    def vjp_x(g):
        gy, dx = rows_of(g), np.empty((c, b * hw))
        for lo, hi in chunks:
            cols = slice(lo * hw, hi * hw)
            d = np.multiply(gy[:, cols], gd[:, None], out=dx[:, cols])
            m2 = np.einsum("ij,ij->j", d, xhat[:, cols]) / c
            d -= d.mean(axis=0)
            d -= xhat[:, cols] * m2
            d *= inv[cols]
        return dx.reshape(c, b, h, w)

    return _make(out, [
        (x, vjp_x),
        (gamma, lambda g: np.einsum("ij,ij->i", rows_of(g), xhat)),
        (beta, lambda g: rows_of(g).sum(axis=1)),
    ])


# ---------------------------------------------------------------------------
# shape / reduction ops
# ---------------------------------------------------------------------------

def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"reshape: cannot view shape {x.shape} as {tuple(shape)}")
    in_shape = x.shape
    return _make(out, [(x, lambda g: g.reshape(in_shape))])


def permute(x, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise DimensionError(f"permute: axes {axes} are not a permutation for shape {x.shape}")
    inv = tuple(np.argsort(axes))
    out = x.data.transpose(axes)
    return _make(out, [(x, lambda g: g.transpose(inv))])


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concat: need at least one tensor")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise DimensionError(
            f"concat: shapes {[t.shape for t in tensors]} incompatible along axis {axis}")
    ax = axis if axis >= 0 else out.ndim + axis
    offsets = np.cumsum([0] + [t.shape[ax] for t in tensors])

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g):
            sl = [slice(None)] * g.ndim
            sl[ax] = slice(lo, hi)
            return g[tuple(sl)]
        return vjp

    return _make(out, [(t, make_vjp(i)) for i, t in enumerate(tensors)])


def _reduced(name: str, x, axis):
    """``x`` as a tensor, the axes that ``axis`` (None for all, an int or a
    tuple) names, and its shape with them kept as 1; DimensionError names the op."""
    x = as_tensor(x)
    axes = range(x.ndim) if axis is None else (axis,) if isinstance(axis, int) else axis
    axes = tuple(a + x.ndim if a < 0 else a for a in axes)
    if any(not 0 <= a < x.ndim for a in axes):
        raise DimensionError(f"{name}: axis {axis} out of range for shape {x.shape}")
    return x, axes, tuple(1 if i in axes else s for i, s in enumerate(x.shape))


def mean(x, axis=None) -> Tensor:
    x, axes, keep_shape = _reduced("mean", x, axis)
    out, shape, n = x.data.mean(axis=axes), x.shape, int(np.prod([x.shape[a] for a in axes]))

    def vjp(g):
        return np.broadcast_to(g.reshape(keep_shape), shape) * (1.0 / n)

    return _make(out, [(x, vjp)])


def sum_along(x, axis=None) -> Tensor:
    x, axes, keep_shape = _reduced("sum_along", x, axis)
    out, shape = x.data.sum(axis=axes), x.shape

    def vjp(g):
        return np.broadcast_to(g.reshape(keep_shape), shape).copy()

    return _make(out, [(x, vjp)])


def index_axis(x, axis: int, index) -> Tensor:
    """Select along ``axis``: an int index removes the axis, a 1-D int array
    gathers those slices in its order. Indices may repeat, and the vjp adds
    the gradients of repeated slices together."""
    x = as_tensor(x)
    if isinstance(index, (int, np.integer)) and not isinstance(index, bool):
        sel = int(index)   # plain int checks: the conditional kernel slices this way
        rows = (sel,)
        valid = 0 <= axis < x.ndim and 0 <= sel < x.shape[axis]
    else:
        sel = np.asarray(index)
        rows = sel.reshape(-1)
        valid = (0 <= axis < x.ndim and sel.ndim <= 1 and sel.dtype.kind in "iu"
                 and bool(np.all((sel >= 0) & (sel < x.shape[axis]))))
    if not valid:
        raise DimensionError(f"index_axis: (axis={axis}, index={index}) invalid for shape {x.shape}")

    shape = x.shape

    def vjp(g):
        z = np.zeros(shape)
        kept = shape[:axis] + (len(rows),) + shape[axis + 1:]
        zs, gs = np.moveaxis(z, axis, 0), np.moveaxis(g.reshape(kept), axis, 0)
        for i, row in enumerate(rows):   # ~10x faster than np.add.at on (80, 7, 7, 64)
            zs[row] += gs[i]
        return z

    return _make(x.data[(slice(None),) * axis + (sel,)], [(x, vjp)])


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Fill ``grad`` on the leaves reachable from the scalar ``loss``.

    The walk runs over graph nodes, not tensors: an op output's node holds
    its edges, its gradient and its shape, while its array lives on the
    :class:`Tensor` the op returned and is gone once the caller dropped that
    tensor, unless a vjp reads it. Leaves are the tensors no op made
    (parameters and ``requires_grad`` inputs); they are their own graph
    vertices and keep their gradients, and so does ``loss``. The graph is
    consumed on the way: each node drops its edges and its gradient once
    its vjps have been taken, so the arrays and closures they kept are
    freed as soon as the walk no longer needs them. A later walk that
    reaches a consumed node raises ``StateError``."""
    if not isinstance(loss, Tensor):
        raise ContractError("backward: loss must be a Tensor")
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    root = loss._node or loss

    # iterative topological sort (graphs can exceed the recursion limit)
    topo = []
    state = {}  # id -> 0 visiting, 1 done
    stack = [root]
    while stack:
        node = stack[-1]
        nid = id(node)
        if state.get(nid) == 1:
            stack.pop()
            continue
        if state.get(nid) == 0:
            state[nid] = 1
            topo.append(node)
            stack.pop()
            continue
        if node._consumed:
            raise StateError("backward: graph already consumed by a previous backward call")
        state[nid] = 0
        for parent, _ in node._edges:
            if state.get(id(parent)) is None:
                stack.append(parent)

    # a vjp may return a view of g, or g itself (``_unbroadcast``), so a stored
    # first contribution can be shared with a sibling: the second allocates a
    # sum, only a sum allocated here is added into in place, and leaves copy.
    # ``owned`` holds ids of unprocessed nodes only, each still alive in topo.
    loss.grad = root.grad = np.ones_like(loss.data)
    owned = set()
    while topo:
        node = topo.pop()
        owned.discard(id(node))
        edges, g = node._edges, node.grad
        if not edges:
            continue
        node._edges, node._consumed, node.grad = (), True, None
        for parent, vjp in edges:
            contrib = vjp(g)
            if parent.grad is None:
                parent.grad = contrib if parent._edges else contrib.copy()
            elif id(parent) in owned:
                parent.grad += contrib
            else:
                parent.grad = parent.grad + contrib
                owned.add(id(parent))
