"""Referees: the slow, literal forms that the tests and demos 01-03 check
the package against (finite differences, the dense 4D convolution, one side
of the re-representation head, the per-glyph base image, the difficulty-rule
re-measurement, ``float.hex`` checkpoint lines). Nothing under ``condrep``
imports them."""
from __future__ import annotations

import numpy as np

from condrep import autodiff as ad
from condrep.autodiff import Tensor
from condrep.conditional import ConvKernel4D, _directional_reduce, _fold_weights
from condrep.data import (CAMOUFLAGE_MEAN_TOL, INCOMPLETE_MIN_REMOVED, SMALL_MAX_FRACTION,
                          SyntheticSample)
from condrep.exceptions import ConfigError, ContractError, DimensionError


# ---------------------------------------------------------------------------
# finite-difference gradient oracle
# ---------------------------------------------------------------------------
# Deliberately independent of the autodiff engine: it only evaluates the
# function forward at perturbed copies of the input, so it can referee the
# engine's backward pass.

def fd_gradient_oracle(f, x, step: float = 1e-3) -> Tensor:
    """Central-difference gradient of scalar ``f`` at ``x``, one coordinate at a time."""
    x0 = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    flat = x0.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + step
        fp = _scalar(f(Tensor(bumped.reshape(x0.shape))))
        bumped[i] = flat[i] - step
        fm = _scalar(f(Tensor(bumped.reshape(x0.shape))))
        grad[i] = (fp - fm) / (2.0 * step)
    return Tensor(grad.reshape(x0.shape))


def _scalar(v) -> float:
    if isinstance(v, Tensor):
        return float(v.data)
    return float(v)


def max_relative_error(analytic, numeric) -> float:
    """max |a - n| / max(1, |n|), the comparison used by the gradient suite."""
    a = np.asarray(analytic.data if isinstance(analytic, Tensor) else analytic)
    n = np.asarray(numeric.data if isinstance(numeric, Tensor) else numeric)
    denom = np.maximum(1.0, np.abs(n))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


# ---------------------------------------------------------------------------
# dense bidirectional 4D convolution
# ---------------------------------------------------------------------------

def conditional_matrices(s_corr, q_corr, kernel: ConvKernel4D) -> tuple[Tensor, Tensor]:
    """Support (..., Ws, Hs) and query (..., Wq, Hq) matrices of ``s_corr``
    (..., Ws, Hs, C) and ``q_corr`` (..., Wq, Hq, C), through the production
    fold weights and directional reduction; each equals
    ``conv4d_oracle(build_relation_tensor(s_corr, q_corr), kernel, direction)``."""
    s, q = ad.as_tensor(s_corr), ad.as_tensor(q_corr)
    if s.ndim < 3 or s.ndim != q.ndim or s.shape[:-3] != q.shape[:-3] \
            or s.shape[-1] != q.shape[-1]:
        raise DimensionError(f"conditional_matrices: expected (..., W, H, C) inputs with "
                             f"equal batch dims and channels, got {s.shape} and {q.shape}")
    s_rows, q_rows = (ad.reshape(t, t.shape[:-3] + (-1, t.shape[-1])) for t in (s, q))
    kern = kernel.sliding_slice()
    s_col = _directional_reduce(s_rows, q_rows, _fold_weights(kern, *q.shape[-3:-1]), kernel.bias)
    q_col = _directional_reduce(q_rows, s_rows, _fold_weights(kern, *s.shape[-3:-1]), kernel.bias)
    return ad.reshape(s_col, s.shape[:-1]), ad.reshape(q_col, q.shape[:-1])


def build_relation_tensor(support_corr, query_corr) -> Tensor:
    """Uncompressed channelwise outer product, the input of :func:`conv4d_oracle`:
    out[..., ws, hs, wq, hq, c] = support[..., ws, hs, c] * query[..., wq, hq, c]."""
    s, q = ad.as_tensor(support_corr), ad.as_tensor(query_corr)
    if s.ndim < 3 or q.ndim < 3 or s.shape[-1] != q.shape[-1]:
        raise DimensionError(f"build_relation_tensor: channel counts differ, "
                             f"{s.shape} vs {q.shape}")
    ws, hs, c = s.shape[-3], s.shape[-2], s.shape[-1]
    wq, hq = q.shape[-3], q.shape[-2]
    s5 = ad.reshape(s, s.shape[:-3] + (ws, hs, 1, 1, c))
    q5 = ad.reshape(q, q.shape[:-3] + (1, 1, wq, hq, c))
    return ad.mul(s5, q5)


def conv4d_oracle(rel, kernel: ConvKernel4D, direction: str) -> np.ndarray:
    """Literal nested-loop reduction of a dense relation tensor for small
    grids; referee for :func:`conditional_matrices`."""
    rel = np.asarray(rel.data if isinstance(rel, Tensor) else rel, dtype=np.float64)
    if rel.ndim != 5:
        raise DimensionError(f"conv4d_oracle: expected (Ws,Hs,Wq,Hq,C), got {rel.shape}")
    if direction not in ("support", "query"):
        raise ConfigError(f"conv4d_oracle: unknown direction '{direction}'")
    ws, hs, wq, hq, c = rel.shape
    if max(ws, hs, wq, hq) > 6:
        raise ContractError("conv4d_oracle: grids larger than 6 are out of oracle scope")
    kern = kernel.sliding_slice().data
    k, l = kern.shape
    bias = float(kernel.bias.data)
    pk, pl = k // 2, l // 2

    if direction == "support":
        out = np.zeros((ws, hs))
        for i in range(ws):
            for j in range(hs):
                acc = 0.0
                for ch in range(c):
                    for u in range(wq):          # every sliding window position
                        for v in range(hq):
                            for dk in range(k):
                                for dl in range(l):
                                    a, b = u + dk - pk, v + dl - pl
                                    if 0 <= a < wq and 0 <= b < hq:
                                        acc += kern[dk, dl] * rel[i, j, a, b, ch]
                out[i, j] = max(0.0, acc + bias)
        return out

    out = np.zeros((wq, hq))
    for u in range(wq):
        for v in range(hq):
            acc = 0.0
            for ch in range(c):
                for i in range(ws):
                    for j in range(hs):
                        for dk in range(k):
                            for dl in range(l):
                                a, b = i + dk - pk, j + dl - pl
                                if 0 <= a < ws and 0 <= b < hs:
                                    acc += kern[dk, dl] * rel[a, b, u, v, ch]
            out[u, v] = max(0.0, acc + bias)
    return out


# ---------------------------------------------------------------------------
# re-representation head
# ---------------------------------------------------------------------------

def side_head_referee(rows, column, params: dict, residual: bool) -> np.ndarray:
    """One side's (..., C) vector in plain numpy, step by step as the
    per-position oracles write it: fuse (or take the column alone), affine +
    relu, naive softmax self-attention, residual add, layer norm, two-layer
    MLP, mean over positions; referee for ``rerepresent.represent_side``."""
    p = {k: np.asarray(v.data if isinstance(v, Tensor) else v) for k, v in params.items()}
    rows, column = np.asarray(rows), np.asarray(column)
    x = np.concatenate([rows, column], axis=-1) if residual else column
    f_prime = np.maximum(x @ p["compress.weight"] + p["compress.bias"], 0.0)
    q, k, v = (f_prime @ p[f"attn.{w}"] for w in ("wq", "wk", "wv"))
    s = q @ np.swapaxes(k, -1, -2) / np.sqrt(k.shape[-1])
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    f_hat = (e / e.sum(axis=-1, keepdims=True)) @ v
    z = f_prime + f_hat
    mu = z.mean(axis=-1, keepdims=True)
    var = z.var(axis=-1, keepdims=True)
    z = p["final.gamma"] * (z - mu) / np.sqrt(var + 1e-5) + p["final.beta"]
    h = np.maximum(z @ p["final.w1"] + p["final.b1"], 0.0)
    return (h @ p["final.w2"]).mean(axis=-2)


# ---------------------------------------------------------------------------
# per-glyph base image
# ---------------------------------------------------------------------------

def base_image_referee(class_id: int, seed: int, size: int = 32) -> SyntheticSample:
    """One glyph drawn with five ``uniform`` calls from its own generator and
    rendered on its own with scalar shape arithmetic; referee for the batched
    ``condrep.data`` glyph path."""
    rng = np.random.default_rng(np.random.SeedSequence([0x67657, class_id, seed, size]))
    scale = size / 32.0
    r = rng.uniform(9.0, 11.0) * scale
    cx = size / 2.0 + rng.uniform(-2.0, 2.0) * scale
    cy = size / 2.0 + rng.uniform(-2.0, 2.0) * scale
    mask = _glyph_mask(class_id % 8, size, r, cx, cy)
    background = rng.uniform(0.08, 0.22)
    base = rng.uniform(0.68, 0.9)
    y, x = np.indices((size, size)).astype(float)
    angle = (class_id * 0.9) % np.pi
    freq = 0.55 + 0.18 * ((class_id * 3) % 4)
    wave = np.sin(freq * (np.cos(angle) * x + np.sin(angle) * y))
    texture = np.clip(base * (0.84 + 0.16 * wave), 0.0, 1.0)
    image = np.where(mask, texture, background)[None, :, :]
    return SyntheticSample(image=image, class_id=class_id, pool="support",
                           transforms_applied=[], target_mask=mask, seed=seed)


def _glyph_mask(family: int, size: int, r: float, cx: float, cy: float) -> np.ndarray:
    y, x = np.indices((size, size)).astype(float)
    dx, dy = x - cx, y - cy
    if family == 0:                                  # disk
        return dx * dx + dy * dy <= r * r
    if family == 1:                                  # ring
        d2 = dx * dx + dy * dy
        return (d2 <= (1.12 * r) ** 2) & (d2 >= (0.58 * r) ** 2)
    if family == 2:                                  # plus
        arm = 0.42 * r
        return ((np.abs(dx) <= arm) | (np.abs(dy) <= arm)) & \
               (np.maximum(np.abs(dx), np.abs(dy)) <= 1.15 * r)
    if family == 3:                                  # square frame
        m = np.maximum(np.abs(dx), np.abs(dy))
        return (m <= r) & (m >= 0.52 * r)
    if family == 4:                                  # triangle
        return (dy >= -r) & (dy <= 0.9 * r) & (np.abs(dx) <= 0.75 * (0.9 * r - dy))
    if family == 5:                                  # diagonal cross
        return (np.abs(np.abs(dx) - np.abs(dy)) <= 0.40 * r) & \
               (dx * dx + dy * dy <= (1.25 * r) ** 2)
    if family == 6:                                  # horizontal bars in a disk
        period = max(3.0, 0.55 * r)
        band = np.mod(dy + 3 * period, period) < 0.62 * period
        return band & (dx * dx + dy * dy <= (1.2 * r) ** 2)
    # diamond
    return np.abs(dx) + np.abs(dy) <= 1.25 * r


# ---------------------------------------------------------------------------
# checkpoint value lines
# ---------------------------------------------------------------------------

def float_hex_lines(values) -> str:
    """``float.hex`` of every value, eight to a line: referee for the
    checkpoint writer's array formatter."""
    tokens = list(map(float.hex, np.asarray(values, dtype=np.float64).reshape(-1).tolist()))
    return "\n".join(" ".join(tokens[i:i + 8]) for i in range(0, len(tokens), 8))


# ---------------------------------------------------------------------------
# difficulty-rule re-measurement
# ---------------------------------------------------------------------------

def measure_rule(sample: SyntheticSample) -> dict:
    """Re-measure the quantitative difficulty rule for a query sample,
    independently of what the transform recorded."""
    if sample.pool != "query":
        raise ContractError("measure_rule: expected a query-pool sample")
    tag = sample.transforms_applied[0]
    img = sample.image[0]
    mask = sample.target_mask
    base = base_image_referee(sample.class_id, sample.seed, img.shape[0])
    if tag == "small":
        return {"tag": tag, "mask_fraction": mask.sum() / mask.size,
                "ok": mask.sum() / mask.size <= SMALL_MAX_FRACTION}
    if tag == "incomplete":
        removed = 1.0 - mask.sum() / base.target_mask.sum()
        return {"tag": tag, "removed_fraction": removed,
                "ok": removed > INCOMPLETE_MIN_REMOVED}
    if tag == "camouflaged":
        gap = abs(float(img[mask].mean()) - float(img[~mask].mean()))
        return {"tag": tag, "mean_gap": gap, "ok": gap <= CAMOUFLAGE_MEAN_TOL}
    changed = not np.array_equal(img, base.image[0])
    return {"tag": tag, "changed": changed, "ok": changed}
