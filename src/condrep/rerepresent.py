"""Re-representation learner: :func:`represent_side` fuses one side's
conditional column with its prototype's (..., W*H, C) position rows,
compresses, self-attends and pools them to the final C-dimensional vector;
:func:`re_represent_pair` runs it on both sides of a pair.

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


def represent_side(rows, column, params: dict[str, Tensor], residual: bool) -> Tensor:
    """One side's (..., C) vector from its (..., T, C) prototype rows and
    (..., T, 1) conditional column: fuse the column onto the rows as one extra
    channel (or, without ``residual``, take the column alone), per-position
    affine + relu, single-head self-attention over positions, residual add,
    layer norm, two-layer MLP, mean over positions.

    The second MLP layer carries no bias: under a siamese distance loss an
    output bias shifts both sides' vectors identically, so it can never
    receive gradient and never influence a distance.
    """
    x = ad.concat([rows, column], axis=-1) if residual else column
    f_prime = ad.relu(ad.add(ad.matmul(x, params["compress.weight"]), params["compress.bias"]))
    f_hat = attend(*(ad.matmul(f_prime, params[f"attn.{w}"]) for w in ("wq", "wk", "wv")))
    x = ad.layer_norm(ad.add(f_prime, f_hat), params["final.gamma"], params["final.beta"])
    h = ad.relu(ad.add(ad.matmul(x, params["final.w1"]), params["final.b1"]))
    y = ad.matmul(h, params["final.w2"])
    return ad.mean(y, axis=y.ndim - 2)


def re_represent_pair(fs, fq, model):
    """Produce the final (F_support, F_query) vectors for a prototype pair.

    ``model`` provides the conditional kernel, the re-representation
    parameter set(s) and the structure they were built for.
    """
    cond = conditional_forward(fs, fq, model.kernel)
    residual = model.structure != "non_residual"
    prefixes = ("support.", "query.") if model.structure == "non_siamese" else ("", "")
    side_s, side_q = ({k[len(p):]: v for k, v in model.rerep.items() if k.startswith(p)}
                      for p in prefixes)
    return (represent_side(cond.support_rows, cond.support_matrix, side_s, residual),
            represent_side(cond.query_rows, cond.query_matrix, side_q, residual))
