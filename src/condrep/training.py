"""Balanced pair sampling, contrastive objective, and the single-stage
training loop that supervises the whole network.

The paper's literal objective, minus the mean of log(d + eps) over
same-class pairs, is not implemented: it has no lower bound and rewards
pushing same-class pairs apart, so the margin contrastive loss is the only
one."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .data import SyntheticDataset, augment_query_image
from .exceptions import (ContractError, DimensionError,
                         NonFiniteLossError)
from .model import Model
from .optim import AdamW
from .rerepresent import re_represent_pair


@dataclass
class PairBatch:
    support_images: np.ndarray    # (B, 1, H, W)
    query_images: np.ndarray      # (B, 1, H, W)
    same_class: np.ndarray        # (B,) bool; exactly ceil(B/2) are True


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 80
    batches_per_epoch: int = 12   # 0 -> ceil(support pool / batch_size)
    learning_rate: float = 1e-3
    weight_decay: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    lr_drop_every: int = 20       # halve the learning rate every N epochs
    lr_drop_factor: float = 0.5
    augment: str = "randaugment"
    margin: float = 1.0

    def validate(self):
        from .io import CONFIG_TABLE, check_keys   # each field named for a key
        check_keys(**{k: v for k, v in vars(self).items() if k in CONFIG_TABLE})

    def resolved_batches(self, dataset: SyntheticDataset) -> int:
        if self.batches_per_epoch > 0:
            return self.batches_per_epoch
        return max(1, int(np.ceil(len(dataset.support) / self.batch_size)))


def sample_pair_batch(dataset: SyntheticDataset, batch_size: int, rng,
                      augment: str = "none") -> PairBatch:
    """ceil(B/2) same-class pairs and floor(B/2) different-class pairs;
    supports from the easy pool, queries from the difficulty-augmented pool."""
    if batch_size < 1:
        raise ContractError(f"sample_pair_batch: batch size must be positive, got {batch_size}")
    sup = dataset.by_class("support")
    qry = dataset.by_class("query")
    classes = sorted(set(sup) & set(qry))
    from .io import check_pools
    check_pools("pair batches", dataset)
    n_pos = int(np.ceil(batch_size / 2))
    supports, queries, labels = [], [], []
    for i in range(batch_size):
        positive = i < n_pos
        if positive:
            c_s = c_q = classes[rng.integers(0, len(classes))]
        else:
            a, b = rng.choice(len(classes), size=2, replace=False)
            c_s, c_q = classes[a], classes[b]
        s = sup[c_s][rng.integers(0, len(sup[c_s]))]
        q = qry[c_q][rng.integers(0, len(qry[c_q]))]
        supports.append(s.image)
        queries.append(augment_query_image(q.image, augment, rng))
        labels.append(positive)
    return PairBatch(support_images=np.stack(supports),
                     query_images=np.stack(queries),
                     same_class=np.array(labels))


def pair_distance(f_support, f_query):
    """Squared L2 distance between two representation vectors (or batches:
    last axis is the feature axis)."""
    fs, fq = ad.as_tensor(f_support), ad.as_tensor(f_query)
    if fs.shape != fq.shape:
        raise DimensionError(f"pair_distance: shapes {fs.shape} and {fq.shape} differ")
    diff = ad.sub(fs, fq)
    return ad.sum_along(ad.mul(diff, diff), axis=diff.ndim - 1)


def contrastive_loss(distances, same_class, margin: float = 1.0) -> Tensor:
    """Batch loss over squared distances:
    mean of y*d + (1-y)*max(0, margin - sqrt(d))^2."""
    from .io import check_keys
    check_keys(margin=margin)
    d = ad.as_tensor(distances)
    y = np.asarray(same_class, dtype=bool)
    if d.ndim != 1 or d.shape[0] != y.shape[0]:
        raise DimensionError(f"contrastive_loss: {d.shape} distances vs {y.shape} labels")
    if d.shape[0] == 0:
        raise ContractError("contrastive_loss: empty batch")
    if np.any(d.data < 0):
        raise ContractError("contrastive_loss: negative distance")
    pos = Tensor(y.astype(np.float64))
    neg = Tensor((~y).astype(np.float64))
    hinge = ad.relu(ad.sub(margin, ad.sqrt(d)))
    return ad.mean(ad.add(ad.mul(pos, d), ad.mul(neg, ad.mul(hinge, hinge))))


def _distinct_features(model: Model, images: np.ndarray) -> Tensor:
    """Backbone maps of ``images``, each distinct image mapped once and gathered
    back into its slots with ``index_axis``, whose vjp adds the gradients of
    repeats."""
    slot: dict[bytes, int] = {}
    index = np.array([slot.setdefault(im.tobytes(), len(slot)) for im in images])
    _, first = np.unique(index, return_index=True)
    return ad.index_axis(model.features(images[first]), 0, index)


def batch_loss(model: Model, batch: PairBatch, margin: float) -> Tensor:
    fs_maps = _distinct_features(model, batch.support_images)
    fq_maps = _distinct_features(model, batch.query_images)
    f_s, f_q = re_represent_pair(fs_maps, fq_maps, model)
    return contrastive_loss(pair_distance(f_s, f_q), batch.same_class, margin)


def train_epoch(dataset: SyntheticDataset, model: Model, optimizer: AdamW,
                cfg: TrainConfig, rng) -> float:
    """One pass of pair batches; returns the mean batch loss. A non-finite
    loss, or a non-finite gradient before the optimizer step, aborts it."""
    losses = []
    for b in range(cfg.resolved_batches(dataset)):
        batch = sample_pair_batch(dataset, cfg.batch_size, rng, augment=cfg.augment)
        loss = batch_loss(model, batch, cfg.margin)
        value = loss.item()
        if not np.isfinite(value):
            raise NonFiniteLossError(f"training aborted: non-finite loss at batch {b}")
        optimizer.zero_grad()
        backward(loss)
        for name, p in model.parameters().items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NonFiniteLossError(f"training aborted: non-finite gradient of "
                                         f"'{name}' at batch {b}")
        optimizer.step()
        losses.append(value)
    return float(np.mean(losses))


def train(dataset: SyntheticDataset, model: Model, cfg: TrainConfig, seed: int = 0,
          epoch_callback=None) -> list[float]:
    """Full single-stage training run; returns the per-epoch mean losses."""
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence([0x7261, seed]))
    optimizer = AdamW(model.parameters(), lr=cfg.learning_rate,
                      beta1=cfg.beta1, beta2=cfg.beta2,
                      weight_decay=cfg.weight_decay)
    history: list[float] = []
    for epoch in range(cfg.epochs):
        if cfg.lr_drop_every > 0:
            optimizer.lr = cfg.learning_rate * cfg.lr_drop_factor ** (epoch // cfg.lr_drop_every)
        history.append(train_epoch(dataset, model, optimizer, cfg, rng))
        if epoch_callback is not None:
            epoch_callback(epoch, history[-1], model)
    return history
