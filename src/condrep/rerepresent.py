"""Re-representation learner: fuse each conditional column with its
prototype's position rows, compress, self-attend, and pool to the final
C-dimensional vector. Every step works on (..., W*H, C) rows.

Structures:
  siamese      one shared parameter set serves both sides (default)
  non_siamese  independent parameter sets fixed to the support / query sides
  non_residual the (W*H, 1) conditional column alone is fed forward,
               without the prototype features
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .conditional import attend, conditional_forward
from .config import check_keys
from .exceptions import DimensionError


def init_rerep_params(channels: int, structure: str = "siamese", seed: int = 0) -> dict[str, Tensor]:
    """Parameter set(s) for the re-representation learner."""
    check_keys(structure=structure)
    in_dim = 1 if structure == "non_residual" else channels + 1
    if structure == "non_siamese":
        rng_s = np.random.default_rng(np.random.SeedSequence([0x7272, seed, 0]))
        rng_q = np.random.default_rng(np.random.SeedSequence([0x7272, seed, 1]))
        params = {f"support.{k}": v for k, v in _one_side(channels, in_dim, rng_s).items()}
        params.update({f"query.{k}": v for k, v in _one_side(channels, in_dim, rng_q).items()})
        return params
    rng = np.random.default_rng(np.random.SeedSequence([0x7272, seed, 0]))
    return _one_side(channels, in_dim, rng)


def _one_side(c: int, in_dim: int, rng) -> dict[str, Tensor]:
    def normal(shape, scale):
        return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)

    # beta/b1 start at small random values rather than zero: early batches can
    # produce identical relu gate patterns on the two siamese sides, which makes
    # exactly-zero gradients for pure shifts; a nonzero start keeps them live
    # under weight decay until the gate patterns diversify.
    # final.w2 is drawn at 0.25/sqrt(C): pair distances scale quadratically with
    # it, and this start puts every pair inside the contrastive margin (all
    # hinges active) without the rank-collapse that deeper shrinking causes.
    return {
        "compress.weight": normal((in_dim, c), np.sqrt(2.0 / in_dim)),
        "compress.bias": Tensor(np.zeros(c), requires_grad=True),
        "attn.wq": normal((c, c), np.sqrt(1.0 / c)),
        "attn.wk": normal((c, c), np.sqrt(1.0 / c)),
        "attn.wv": normal((c, c), np.sqrt(1.0 / c)),
        "final.gamma": Tensor(np.ones(c), requires_grad=True),
        "final.beta": normal((c,), 0.02),
        "final.w1": normal((c, c), np.sqrt(2.0 / c)),
        "final.b1": normal((c,), 0.02),
        "final.w2": normal((c, c), 0.25 / np.sqrt(c)),
    }


def fuse_conditional(f, w) -> Tensor:
    """Append the (..., T, 1) conditional column to the (..., T, C) feature
    rows as one extra channel: (..., T, C+1)."""
    f, w = ad.as_tensor(f), ad.as_tensor(w)
    if f.ndim < 2 or w.shape != f.shape[:-1] + (1,):
        raise DimensionError(f"fuse_conditional: positions differ, feature rows "
                             f"{f.shape} vs column {w.shape}")
    return ad.concat([f, w], axis=-1)


def mlp_compress(x, params: dict[str, Tensor]) -> Tensor:
    """Per-position affine (C_in -> C) + relu of (..., T, C_in) rows."""
    x = ad.as_tensor(x)
    weight, bias = params["compress.weight"], params["compress.bias"]
    if x.ndim < 2 or x.shape[-1] != weight.shape[0]:
        raise DimensionError(f"mlp_compress: input {x.shape} does not match weight "
                             f"{weight.shape}")
    return ad.relu(ad.add(ad.matmul(x, weight), bias))


def self_attend(f_prime, params: dict[str, Tensor]) -> Tensor:
    """Single-head scaled dot-product self-attention over positions."""
    fp = ad.as_tensor(f_prime)
    wq, wk, wv = params["attn.wq"], params["attn.wk"], params["attn.wv"]
    c = fp.shape[-1]
    for name, m in (("wq", wq), ("wk", wk), ("wv", wv)):
        if m.shape != (c, c):
            raise DimensionError(f"self_attend: {name} shape {m.shape} does not match "
                                 f"channels {c}")
    return attend(ad.matmul(fp, wq), ad.matmul(fp, wk), ad.matmul(fp, wv))


def finalize_vector(f_prime, f_hat, params: dict[str, Tensor]) -> Tensor:
    """Residual add, layer norm, two-layer MLP, mean-pool over positions.

    The second MLP layer carries no bias: under a siamese distance loss an
    output bias shifts both sides' vectors identically, so it can never
    receive gradient and never influence a distance.
    """
    fp, fh = ad.as_tensor(f_prime), ad.as_tensor(f_hat)
    if fp.shape != fh.shape:
        raise DimensionError(f"finalize_vector: shapes {fp.shape} and {fh.shape} differ")
    x = ad.layer_norm(ad.add(fp, fh), params["final.gamma"], params["final.beta"])
    h = ad.relu(ad.add(ad.matmul(x, params["final.w1"]), params["final.b1"]))
    y = ad.matmul(h, params["final.w2"])
    return ad.mean(y, axis=y.ndim - 2)


def _represent_side(rows, column, params: dict[str, Tensor], residual: bool) -> Tensor:
    x = fuse_conditional(rows, column) if residual else column
    f_prime = mlp_compress(x, params)
    f_hat = self_attend(f_prime, params)
    return finalize_vector(f_prime, f_hat, params)


def re_represent_pair(fs, fq, model):
    """Produce the final (F_support, F_query) vectors for a prototype pair.

    ``model`` provides the conditional kernel, the re-representation
    parameter set(s) and the structure they were built for.
    """
    cond = conditional_forward(fs, fq, model.kernel)
    residual = model.structure != "non_residual"
    if model.structure == "non_siamese":
        side_s = {k[len("support."):]: v for k, v in model.rerep.items()
                  if k.startswith("support.")}
        side_q = {k[len("query."):]: v for k, v in model.rerep.items()
                  if k.startswith("query.")}
    else:
        side_s = side_q = model.rerep
    f_s = _represent_side(cond.support_rows, cond.support_matrix, side_s, residual)
    f_q = _represent_side(cond.query_rows, cond.query_matrix, side_q, residual)
    return f_s, f_q
