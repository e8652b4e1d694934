"""N-way-K-shot meta-testing: episode sampling, the four K-shot inference
strategies (two of them fit an online linear classifier on the
re-represented supports), and evaluation reports.

Inference is inductive: every query is classified from its own pairings
with the supports only. An episode's (query, support) pairs run through the
pair pipeline in fixed-size groups, and the images that need a backbone map
in fixed-size groups too. A group holds at most ``_GROUP_BYTES`` (1.5 MB)
in its widest array, an image's first conv output or a pair's two gathered
maps: 24 images or 192 pairs at the default 32 px and 4x4x32 grid. So an
episode's transient memory is one group's, whatever N, K and Q are; only
the (N*Q, N*K, C) vectors the strategies read grow with them. The
features of a default 5-way 5-shot episode peak at 10.9 MB (92.6 MB in
one batch), in a pair group's cross-attention (tracemalloc). Grouping
cannot mix information between queries, nor change a bit, because every
per-pair computation is independent of the other pairs in its group.

Nothing is computed twice. At K=1 each class prototype is its one support,
so ``proto_dist`` is ``pair_dist``. The two classifier strategies share one
logistic fit per episode. :func:`run_evaluation_suite` keeps, for that call
only, a memo per model from image bytes to backbone map, so each distinct
image is mapped once. No bit of a map depends on the rest of its batch, at
any image size (the backbone's conv runs one gemm of the same shape per
image, and its norm and pooling reduce each position on its own), so
memoised and grouped maps equal fresh ones and inductive purity holds.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, no_grad, softmax_lastdim
from .config import check_keys, check_pools
from .data import SyntheticDataset
from .exceptions import ConfigError
from .model import Model
from .rerepresent import re_represent_pair

BASELINE = "backbone_prototype_baseline"   # raw pooled features, no conditional path


@dataclass
class EpisodeTask:
    n_way: int
    k_shot: int
    q_per_class: int
    support_images: np.ndarray    # (N*K, 1, H, W), class-major order
    support_labels: np.ndarray    # (N*K,) values in 0..N-1
    query_images: np.ndarray      # (N*Q, 1, H, W)
    query_labels: np.ndarray      # (N*Q,) held-out truth
    class_ids: np.ndarray         # (N,) dataset class ids, ascending


@dataclass
class EvalReport:
    strategy: str
    n_episodes: int
    per_episode_accuracy: list[float]
    mean: float
    ci95: float
    config: dict = field(default_factory=dict)

    @classmethod
    def from_accuracies(cls, strategy, accs, config=None) -> "EvalReport":
        accs = [float(a) for a in accs]
        n = len(accs)
        mean = float(np.mean(accs)) if n else 0.0
        ci = float(1.96 * np.std(accs, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        return cls(strategy=strategy, n_episodes=n, per_episode_accuracy=accs,
                   mean=mean, ci95=ci, config=dict(config or {}))


def sample_episode(dataset: SyntheticDataset, n_way: int, k_shot: int,
                   q_per_class: int, seed) -> EpisodeTask:
    """Uniform class/sample selection without replacement; supports come from
    the easy pool and queries from the hard pool."""
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(np.random.SeedSequence([0x657, int(seed)]))
    sup_by_class, qry_by_class, classes = check_pools("episodes", dataset, n_way=n_way,
                                                      k_shot=k_shot, q_per_class=q_per_class)
    chosen = np.sort(rng.choice(classes, size=n_way, replace=False))
    sup_imgs, sup_labels, qry_imgs, qry_labels = [], [], [], []
    for local, c in enumerate(chosen):
        pool_s, pool_q = sup_by_class[c], qry_by_class[c]
        for i in rng.choice(len(pool_s), size=k_shot, replace=False):
            sup_imgs.append(pool_s[i].image)
            sup_labels.append(local)
        for i in rng.choice(len(pool_q), size=q_per_class, replace=False):
            qry_imgs.append(pool_q[i].image)
            qry_labels.append(local)
    return EpisodeTask(n_way=n_way, k_shot=k_shot, q_per_class=q_per_class,
                       support_images=np.stack(sup_imgs),
                       support_labels=np.array(sup_labels),
                       query_images=np.stack(qry_imgs),
                       query_labels=np.array(qry_labels),
                       class_ids=np.asarray(chosen))


def _fit_logistic(x: np.ndarray, labels: np.ndarray, n_classes: int,
                  epochs: int, lr: float):
    """Batched fit: x is (B, n, C) with one shared label vector; returns
    weights (B, C, n_classes) and bias (B, 1, n_classes) after ``epochs``
    full-batch gradient steps of softmax cross-entropy from zero.

    The steps run in dual form. From w = 0 every step adds ``x^T`` times an
    (n, n_classes) matrix, so w = x^T a (the representer structure;
    Schölkopf, Herbrich & Smola, COLT 2001), and the bias, a weight on a
    constant feature of 1, is the column sum of a. The (B, n, n) Gram
    matrix of [x, 1] is built once, so each step updates only the n x
    n_classes coefficients, kept as (n_classes, B, n) with the softmax
    reduced over the leading class axis; w is formed at the end. The result
    equals the primal loop's to rounding (within ~2e-15 relative)."""
    b, n = x.shape[:2]
    step = lr / n
    onehot = np.zeros((n_classes, 1, n))
    onehot[labels, 0, np.arange(n)] = 1.0
    gram = x @ x.swapaxes(1, 2)
    gram += 1.0
    gram *= step                              # coefficients are kept in units of lr / n
    a, z = np.zeros((n_classes, b, n)), np.empty((n_classes, b, n))
    a_rows, z_rows = a.transpose(1, 0, 2), z.transpose(1, 0, 2)
    for _ in range(epochs):
        np.matmul(a_rows, gram, out=z_rows)   # logits, (n_classes, B, n)
        z -= z.max(axis=0)
        np.exp(z, out=z)
        z /= z.sum(axis=0)
        a -= z
        a += onehot
    w = (a_rows @ x).swapaxes(1, 2) * step
    return w, (a.sum(axis=2).T * step)[:, None, :]


# ---------------------------------------------------------------------------
# strategy scoring (separated from feature extraction so the decision rules
# can be tested on constructed embeddings)
# ---------------------------------------------------------------------------

def strategy_predictions(strategies, *, n_way: int, k_shot: int,
                         pair_dist: np.ndarray, proto_dist: np.ndarray,
                         support_vectors: np.ndarray,
                         query_vectors: np.ndarray) -> dict[str, np.ndarray]:
    """``{strategy: predictions}`` for each requested strategy; an unknown or
    repeated name raises ConfigError. The classifier strategies score their
    targets against one logistic fit, made only if one of them is requested.

    pair_dist       (NQ, N*K) squared distances of each query's re-represented
                    pairs, support axis in class-major order
    proto_dist      (NQ, N) distances of the class-prototype pairings
    support_vectors (NQ, N*K, C) re-represented supports, conditioned per query
    query_vectors   (NQ, N*K, C) re-represented query vectors per pairing

    Ties break toward the lowest class index (argmax keeps the first max).
    """
    check_keys(strategies=strategies)
    nq = pair_dist.shape[0]
    fit, preds = None, {}
    for s in strategies:
        if s == "individual_similarity":
            scores = -pair_dist.reshape(nq, n_way, k_shot).sum(axis=2)
        elif s == "class_similarity":
            scores = -proto_dist
        else:
            if fit is None:
                fit = _fit_logistic(support_vectors, np.repeat(np.arange(n_way), k_shot),
                                    n_way, epochs=100, lr=0.1)
            if s == "classifier":
                target = query_vectors.mean(axis=1)
            else:  # weighted_query
                class_weights = softmax_lastdim(-proto_dist).data           # (NQ, N)
                class_means = query_vectors.reshape(nq, n_way, k_shot, -1).mean(axis=2)
                target = (class_weights[:, :, None] * class_means).sum(axis=1)
            scores = (target[:, None, :] @ fit[0])[:, 0, :] + fit[1][:, 0, :]
        preds[s] = scores.argmax(axis=1)
    return preds


# ---------------------------------------------------------------------------
# episode-level classification
# ---------------------------------------------------------------------------

# Bytes one group of images or pairs may fill in its widest array: an image's
# first conv output in the backbone, a pair's two gathered maps in the head.
# A group's transient memory is a few times this; see the module docstring.
_GROUP_BYTES = 3 << 19   # 1.5 MB


def _groups(n: int, row_bytes: int) -> list[slice]:
    """Slices over ``n`` rows of ``_GROUP_BYTES // row_bytes`` rows each (at
    least one), the last one ragged."""
    step = max(1, _GROUP_BYTES // row_bytes)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _pair_vectors(model: Model, own: np.ndarray, own_idx: np.ndarray,
                  other: np.ndarray, other_idx: np.ndarray):
    """Re-represented (P, C) vectors of the pairs ``(own[own_idx[p]],
    other[other_idx[p]])``, gathered and run through the head a group of
    pairs at a time."""
    f_own, f_other = [], []
    with no_grad():
        for g in _groups(len(own_idx), own[0].nbytes + other[0].nbytes):
            a, b = re_represent_pair(Tensor(own[own_idx[g]]), Tensor(other[other_idx[g]]), model)
            f_own.append(a.data)
            f_other.append(b.data)
    return np.concatenate(f_own), np.concatenate(f_other)


def _maps(images: np.ndarray, model: Model, memo: dict | None = None) -> np.ndarray:
    """Backbone maps (B, H, W, C) of ``images``. The distinct images that
    ``memo`` (image bytes -> map) lacks are mapped a group at a time and
    added to it."""
    memo = {} if memo is None else memo
    keys = [im.tobytes() for im in images]
    new = {k: im for k, im in zip(keys, images) if k not in memo}
    new_keys, new_images = list(new), list(new.values())
    row_bytes = images[0, 0].nbytes * model.config.blocks[0]
    with no_grad():
        for g in _groups(len(new_keys), row_bytes):
            memo.update(zip(new_keys[g], model.features(np.stack(new_images[g])).data))
    return np.stack([memo[k] for k in keys])


def _episode_maps(task: EpisodeTask, model: Model, memo: dict | None = None):
    """Backbone maps (B, H, W, C) of the supports and of the queries; ``memo``
    is as in :func:`_maps`."""
    images = np.concatenate([task.support_images, task.query_images])
    return np.split(_maps(images, model, memo), [len(task.support_images)])


def _baseline_distances(task: EpisodeTask, model: Model, memo: dict | None = None) -> np.ndarray:
    """Raw backbone path only: pooled query features vs pooled class prototypes."""
    sup_maps, qry_maps = _episode_maps(task, model, memo)
    pooled_s, pooled_q = sup_maps.mean(axis=(1, 2)), qry_maps.mean(axis=(1, 2))
    pooled_protos = pooled_s.reshape(task.n_way, task.k_shot, -1).mean(axis=1)
    return ((pooled_q[:, None, :] - pooled_protos[None, :, :]) ** 2).sum(axis=-1)


def episode_features(task: EpisodeTask, model: Model, memo: dict | None = None) -> dict:
    """All per-episode quantities the strategies consume; ``memo`` (image
    bytes -> backbone map of ``model``) is read and extended."""
    nk = task.n_way * task.k_shot
    nq = len(task.query_images)
    sup_maps, qry_maps = _episode_maps(task, model, memo)

    sup_vec, qry_vec = _pair_vectors(model, sup_maps, np.tile(np.arange(nk), nq),
                                     qry_maps, np.repeat(np.arange(nq), nk))
    c = sup_vec.shape[-1]
    support_vectors = sup_vec.reshape(nq, nk, c)
    query_vectors = qry_vec.reshape(nq, nk, c)
    pair_dist = ((support_vectors - query_vectors) ** 2).sum(axis=-1)

    if task.k_shot == 1:   # each prototype is its one support: same pairings
        proto_dist = pair_dist
    else:
        protos = sup_maps.reshape(task.n_way, task.k_shot, *sup_maps.shape[1:]).mean(axis=1)
        proto_vec, proto_qvec = _pair_vectors(model, protos, np.tile(np.arange(task.n_way), nq),
                                              qry_maps, np.repeat(np.arange(nq), task.n_way))
        proto_dist = ((proto_vec - proto_qvec) ** 2).sum(axis=-1).reshape(nq, task.n_way)
    return {
        "pair_dist": pair_dist, "proto_dist": proto_dist,
        "support_vectors": support_vectors, "query_vectors": query_vectors,
    }


def classify_query(task: EpisodeTask, model: Model, strategy: str,
                   features: dict | None = None, memo: dict | None = None) -> np.ndarray:
    """Predicted local labels for every query of the episode; ``memo`` is as
    in :func:`episode_features`."""
    if strategy == BASELINE:
        return (-_baseline_distances(task, model, memo)).argmax(axis=1)
    feats = features or episode_features(task, model, memo)
    return strategy_predictions([strategy], n_way=task.n_way, k_shot=task.k_shot,
                                **feats)[strategy]


# ---------------------------------------------------------------------------
# evaluation runs
# ---------------------------------------------------------------------------

def run_evaluation_suite(dataset: SyntheticDataset, model: Model, *, n_way: int = 5,
                         k_shot: int = 1, q_per_class: int = 15, n_episodes: int = 600,
                         strategies=("weighted_query",), seed: int = 0,
                         baseline_model: Model | None = None) -> dict[str, EvalReport]:
    """Evaluate several strategies over the SAME episodes for paired
    comparison. ``baseline_model`` adds a raw backbone-prototype report
    computed with that (typically untrained) model's features. Each model's
    backbone maps every distinct image once per call."""
    strategies = list(strategies)
    check_keys(n_way=n_way, k_shot=k_shot, q_per_class=q_per_class, episodes=n_episodes,
               strategies=strategies, seed=seed)
    accs: dict[str, list[float]] = {s: [] for s in strategies}
    if baseline_model is not None:
        accs[BASELINE] = []
    if not accs:
        raise ConfigError("config: strategies is empty and --with-baseline is off: "
                          "no strategy and no baseline requested")
    memo, baseline_memo = {}, {}
    for ep in range(n_episodes):
        rng = np.random.default_rng(np.random.SeedSequence([0x657, seed, ep]))
        task = sample_episode(dataset, n_way, k_shot, q_per_class, rng)
        preds = strategy_predictions(strategies, n_way=n_way, k_shot=k_shot,
                                     **episode_features(task, model, memo)) if strategies else {}
        if baseline_model is not None:
            preds[BASELINE] = classify_query(task, baseline_model, BASELINE, memo=baseline_memo)
        for s, p in preds.items():
            accs[s].append(float(np.mean(p == task.query_labels)))
    cfg = {"n_way": n_way, "k_shot": k_shot, "q_per_class": q_per_class,
           "n_episodes": n_episodes, "seed": seed, "structure": model.structure}
    return {s: EvalReport.from_accuracies(s, a, cfg) for s, a in accs.items()}

