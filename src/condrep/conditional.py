"""Conditional learner on (..., W*H, C) position rows: each image attends
against its pair view, then a bidirectional 4D convolution reduces the
relation tensor ``rel[ws, hs, wq, hq, c] = s[ws, hs, c] * q[wq, hq, c]`` of
the two attended maps to one (..., W*H, 1) column per side.

Each image's rows plus the first W*H rows of the 2*W*H sinusoid table are
both its attending query and the first half of its self-first view
``[self; other]``; its rows plus the table's last W*H rows are the second
half of its partner's view.

The support direction slides the kernel's centre cross-slice K over rel's
query axes and sums all windows and channels, which weights query cell
(wq, hq) by ``coef = F_W . K . F_H^T`` (see :func:`_fold_matrix`). That is
linear in rel, and rel is an outer product, so it factors exactly into
``relu(sum_c s[ws, hs, c] * pooled[c] + bias)`` with
``pooled[c] = sum_{wq, hq} coef[wq, hq] * q[wq, hq, c]``; the query direction
mirrors it. That costs O(W*H*C), not rel's O((W*H)^2 * C), so the model never
builds rel. The dense form and its nested-loop 4D convolution live in
``tests/referees.py``, which referees :func:`_fold_weights` and
:func:`_directional_reduce` against them, on unequal grids as well.

Symmetry contract: for any inputs a, b and any parameter values,
``conditional_forward(a, b).support_matrix`` is bit-identical to
``conditional_forward(b, a).query_matrix``. Two implementation choices
make that hold exactly rather than only up to rounding:

* each side attends against its own self-first view, so a given image's
  attention computation is the same float program in either role;
* both directions are one helper on rows, ``_directional_reduce``, called as
  ``(s, q)`` and as ``(q, s)`` with the same fold weights, built once from
  the shared 4D kernel's centre cross-slice ``weights[:, :, M//2, N//2]``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import check_keys
from .exceptions import ConfigError, DimensionError


# ---------------------------------------------------------------------------
# positional encoding and attention
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _sinusoid_table(length: int, channels: int) -> np.ndarray:
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(channels // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / channels)
    table = np.empty((length, channels))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    table.setflags(write=False)
    return table


def attend(q, k, v) -> Tensor:
    """Scaled dot-product attention ``softmax(q . k^T / sqrt(C)) . v`` of
    (..., Tq, C) query rows against (..., Tk, C) key and value rows. The
    score product reads ``k`` transposed, so when ``k`` is ``v`` the graph
    keeps their rows once."""
    k = ad.as_tensor(k)
    scores = ad.mul(ad.matmul(q, k, transpose_b=True), k.shape[-1] ** -0.5)
    return ad.matmul(ad.softmax_lastdim(scores), v)


# ---------------------------------------------------------------------------
# bidirectional 4D convolution
# ---------------------------------------------------------------------------

@dataclass
class ConvKernel4D:
    """Shared K x L x M x N kernel plus a scalar bias.

    Both directional reductions slide the centre cross-slice
    ``weights[:, :, M//2, N//2]``; the other index pair stays at its centre
    ("m and n set to 1" for the support direction, "k and l set to 1" for
    the query direction).
    """
    weights: Tensor
    bias: Tensor

    def __post_init__(self):
        check_keys(kernel_shape=self.weights.shape)
        if self.bias.size != 1:
            raise ConfigError(f"conv4d: bias must be scalar, got shape {self.bias.shape}")

    def sliding_slice(self) -> Tensor:
        _, _, m, n = self.weights.shape
        return ad.index_axis(ad.index_axis(self.weights, 3, n // 2), 2, m // 2)


def init_conv_kernel(shape=(3, 3, 3, 3), seed: int = 0,
                     reduction_size: int = 512) -> ConvKernel4D:
    """Near-flat start: tiny random centre cross-slice, zeros elsewhere.

    The directional reduction sums ``reduction_size`` (= W*H*C) relation
    terms of roughly unit mean, so the sliding weights are scaled by its
    inverse; an unscaled draw starts the conditional matrices at a huge,
    sign-random level where the relu frequently dies outright, and a large
    scaled draw injects meaningless conditioning that measurably slows the
    backbone's early learning. The draw is small but nonzero because an
    exactly flat start makes both conditional matrices identical, which
    freezes the non_residual structure at zero pair distance (no gradient
    through the hinge at d = 0). Off-slice entries never enter either
    directional reduction, so they start (and stay) at zero.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x6B34, seed]))
    k, l, m, n = shape
    weights = np.zeros(shape)
    scale = 0.02 / (np.sqrt(k * l) * max(reduction_size, 1))
    weights[:, :, m // 2, n // 2] = rng.normal(0.0, scale, size=(k, l))
    return ConvKernel4D(weights=Tensor(weights, requires_grad=True),
                        bias=Tensor(np.float64(0.1), requires_grad=True))


@lru_cache(maxsize=64)
def _fold_matrix(grid: int, k: int) -> np.ndarray:
    """0/1 matrix F (grid x k); F[j, t] = 1 when tap t of some stride-1,
    pad-k//2 window reads cell j. Summing a full sliding correlation over
    all window positions equals folding with these per-cell tap sums."""
    pad = k // 2
    fold = np.zeros((grid, k))
    for j in range(grid):
        for t in range(k):
            if 0 <= j + pad - t < grid:
                fold[j, t] = 1.0
    fold.setflags(write=False)
    return fold


def _fold_weights(kern: Tensor, w: int, h: int) -> Tensor:
    """(1, W*H) fold weights ``F_W . K . F_H^T`` of a W x H grid under slice ``kern``."""
    k, l = kern.shape
    coef = ad.matmul(ad.matmul(Tensor(_fold_matrix(w, k)), kern), Tensor(_fold_matrix(h, l).T))
    return ad.reshape(coef, (1, w * h))


def _directional_reduce(own: Tensor, other: Tensor, coef: Tensor, bias: Tensor) -> Tensor:
    """(..., T, 1) column ``relu(own . pooled + bias)`` of ``own``'s (..., T, C) rows, with
    ``pooled`` (..., 1, C) the (1, T') fold weights ``coef`` applied to ``other``'s rows."""
    pooled = ad.matmul(coef, other)
    return ad.relu(ad.add(ad.matmul(own, ad.reshape(pooled, pooled.shape[:-2] + (-1, 1))), bias))


# ---------------------------------------------------------------------------
# full conditional forward
# ---------------------------------------------------------------------------

class ConditionalOutput(NamedTuple):
    support_matrix: Tensor   # (..., W*H, 1) column, one entry per position row
    query_matrix: Tensor     # (..., W*H, 1)
    support_rows: Tensor     # (..., W*H, C) rows of the support map, as the learner read them
    query_rows: Tensor       # (..., W*H, C)


def conditional_forward(fs, fq, kernel: ConvKernel4D) -> ConditionalOutput:
    """Full conditional learner for one (support, query) pair of (..., W, H, C)
    maps; each matrix comes back as a (..., W*H, 1) column of position rows,
    next to the (..., W*H, C) rows of its map that the re-representation
    head fuses it with."""
    fs, fq = ad.as_tensor(fs), ad.as_tensor(fq)
    if fs.ndim < 3 or fs.shape != fq.shape:
        raise DimensionError(f"conditional_forward: expected equal (..., W, H, C) prototype "
                             f"shapes, got {fs.shape} and {fq.shape}")
    w, h, c = fs.shape[-3:]
    if c % 2 != 0:
        raise ConfigError(f"conditional_forward: channel count must be even, got {c}")
    t = w * h
    pe = _sinusoid_table(2 * t, c)
    rows_s, rows_q = (ad.reshape(f, f.shape[:-3] + (t, c)) for f in (fs, fq))
    own_s, own_q = ad.add(rows_s, pe[:t]), ad.add(rows_q, pe[:t])
    view_s = ad.concat([own_s, ad.add(rows_q, pe[t:])], axis=-2)     # support's [self; other]
    view_q = ad.concat([own_q, ad.add(rows_s, pe[t:])], axis=-2)     # query's [self; other]
    att_s, att_q = attend(own_s, view_s, view_s), attend(own_q, view_q, view_q)
    coef = _fold_weights(kernel.sliding_slice(), w, h)
    return ConditionalOutput(_directional_reduce(att_s, att_q, coef, kernel.bias),
                             _directional_reduce(att_q, att_s, coef, kernel.bias), rows_s, rows_q)
