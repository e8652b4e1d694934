"""Procedural labeled image generator with an easy/hard split.

Support-pool images are clean, textured glyphs on a uniform contrasting
background. Query-pool images are fresh glyphs pushed through one of four
difficulty transforms:

  camouflaged   background retextured to the target's mean intensity and
                spread, so only the silhouette boundary separates them
  small         target shrunk below 1% of the image and repositioned
  incomplete    more than half of the target pixels occluded
  blurry_noisy  box blur (radius 1-3) and/or additive gaussian noise

Each transform's quantitative rule can be re-measured from the sample
itself (mask fraction, removed fraction, applied tags); ``tests/referees.py``
does so for the data tests.

Glyphs share what does not depend on their draw: the coordinate grid is
computed once per image size and the stripe wave once per class and size
(``_coordinate_grid`` and ``_stripe_wave``, both cached read-only), so a
default build of 400 images computes one grid and five waves.
"""
from __future__ import annotations

import zipfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .config import DIFFICULTY_TAGS, check_keys
from .exceptions import ConfigError, ContractError, DataError

SMALL_MAX_FRACTION = 0.01      # target pixels / image pixels after "small"
INCOMPLETE_MIN_REMOVED = 0.5   # fraction of target pixels an occluder must take
CAMOUFLAGE_MEAN_TOL = 0.05     # |bg mean - target mean| after "camouflaged"


@dataclass
class SyntheticSample:
    image: np.ndarray              # (1, H, W) float64 in [0, 1]
    class_id: int
    pool: str                      # "support" | "query"
    transforms_applied: list[str]
    target_mask: np.ndarray        # (H, W) bool
    seed: int                      # generation seed of the underlying base image

    @property
    def sample_id(self) -> str:
        tags = "-".join(self.transforms_applied) or "clean"
        return f"c{self.class_id}_{self.pool}_{self.seed}_{tags}"


@dataclass(frozen=True)
class DatasetConfig:
    n_classes: int = 5
    support_per_class: int = 20
    query_per_class: int = 60
    image_size: int = 32
    seed: int = 0
    mix_camouflaged: float = 0.25     # each difficulty tag's share of the query pool
    mix_small: float = 0.25
    mix_incomplete: float = 0.25
    mix_blurry_noisy: float = 0.25
    blur_fraction: float = 0.05

    def validate(self):
        check_keys(**vars(self))


# ---------------------------------------------------------------------------
# glyph rendering
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _coordinate_grid(size: int) -> np.ndarray:
    """(2, size, size) row and column coordinates, shared by every glyph."""
    grid = np.indices((size, size)).astype(float)
    grid.setflags(write=False)
    return grid


@lru_cache(maxsize=32)
def _stripe_wave(class_id: int, size: int) -> np.ndarray:
    """The class's stripe wave in [-1, 1]; only its brightness varies per glyph."""
    y, x = _coordinate_grid(size)
    angle = (class_id * 0.9) % np.pi
    freq = 0.55 + 0.18 * ((class_id * 3) % 4)
    wave = np.sin(freq * (np.cos(angle) * x + np.sin(angle) * y))
    wave.setflags(write=False)
    return wave


def _shape_mask(family: int, size: int, r: float, cx: float, cy: float) -> np.ndarray:
    y, x = _coordinate_grid(size)
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


def _stroke_texture(class_id: int, size: int, base: float) -> np.ndarray:
    """Class-specific stripe texture for the glyph interior."""
    return np.clip(base * (0.84 + 0.16 * _stripe_wave(class_id, size)), 0.0, 1.0)


def generate_base_image(class_id: int, seed: int, size: int = 32) -> SyntheticSample:
    """Clean support-style sample: class glyph with pose jitter on a uniform
    background; the target covers roughly 10-50% of the pixels."""
    check_keys(image_size=size)
    rng = np.random.default_rng(np.random.SeedSequence([0x67657, class_id, seed, size]))
    family = class_id % 8
    scale = size / 32.0
    r = rng.uniform(9.0, 11.0) * scale
    cx = size / 2.0 + rng.uniform(-2.0, 2.0) * scale
    cy = size / 2.0 + rng.uniform(-2.0, 2.0) * scale
    mask = _shape_mask(family, size, r, cx, cy)
    background = rng.uniform(0.08, 0.22)
    texture = _stroke_texture(class_id, size, base=rng.uniform(0.68, 0.9))
    image = np.where(mask, texture, background)[None, :, :]
    return SyntheticSample(image=image, class_id=class_id, pool="support",
                           transforms_applied=[], target_mask=mask, seed=seed)


def _background_value(sample: SyntheticSample) -> float:
    return float(np.median(sample.image[0][~sample.target_mask]))


# ---------------------------------------------------------------------------
# difficulty transforms
# ---------------------------------------------------------------------------

def _box_blur(img: np.ndarray, radius: int) -> np.ndarray:
    """Separable box blur with edge padding."""
    k = 2 * radius + 1
    padded = np.pad(img, radius, mode="edge")
    cs = padded.cumsum(axis=0)
    cs = np.vstack([np.zeros((1, cs.shape[1])), cs])
    rows = (cs[k:] - cs[:-k]) / k
    cs = rows.cumsum(axis=1)
    cs = np.hstack([np.zeros((cs.shape[0], 1)), cs])
    return (cs[:, k:] - cs[:, :-k]) / k


def _nearest_resample(arr: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    h, w = arr.shape
    rows = np.minimum((np.arange(new_h) * h / new_h).astype(int), h - 1)
    cols = np.minimum((np.arange(new_w) * w / new_w).astype(int), w - 1)
    return arr[np.ix_(rows, cols)]


def _camouflage(sample: SyntheticSample, rng) -> tuple[np.ndarray, np.ndarray]:
    img = sample.image[0]
    mask = sample.target_mask
    t_mean = img[mask].mean()
    t_std = max(float(img[mask].std()), 0.02)
    noise = rng.normal(t_mean, t_std, size=img.shape)
    out = np.where(mask, img, noise)
    for _ in range(3):   # re-centre after clipping until the mean rule holds
        out = np.clip(out, 0.0, 1.0)
        drift = out[mask].mean() - out[~mask].mean()
        if abs(drift) <= CAMOUFLAGE_MEAN_TOL * 0.8:
            break
        out[~mask] += drift
    return np.clip(out, 0.0, 1.0), mask.copy()


def _shrink(sample: SyntheticSample, rng) -> tuple[np.ndarray, np.ndarray]:
    img = sample.image[0]
    mask = sample.target_mask
    size = img.shape[0]
    budget = int(np.floor(SMALL_MAX_FRACTION * mask.size))
    ys, xs = np.nonzero(mask)
    y0, y1, x0, x1 = ys.min(), ys.max() + 1, xs.min(), xs.max() + 1
    sub_img, sub_mask = img[y0:y1, x0:x1], mask[y0:y1, x0:x1]
    h, w = sub_mask.shape
    s = np.sqrt(budget / max(sub_mask.sum(), 1))
    while True:
        nh, nw = max(1, int(round(h * s))), max(1, int(round(w * s)))
        small_mask = _nearest_resample(sub_mask, nh, nw)
        small_img = _nearest_resample(sub_img, nh, nw)
        if small_mask.sum() <= budget and small_mask.any():
            break
        if nh == 1 and nw == 1:
            # the single sampled cell missed the glyph (hollow shapes); take a
            # real target pixel instead
            small_mask = np.ones((1, 1), dtype=bool)
            small_img = np.array([[img[ys[0], xs[0]]]])
            break
        s *= 0.85
    bg = _background_value(sample)
    out = np.full_like(img, bg)
    top = int(rng.integers(0, size - nh + 1))
    left = int(rng.integers(0, size - nw + 1))
    region = out[top:top + nh, left:left + nw]
    out[top:top + nh, left:left + nw] = np.where(small_mask, small_img, region)
    new_mask = np.zeros_like(mask)
    new_mask[top:top + nh, left:left + nw] = small_mask
    return out, new_mask


def _occlude(sample: SyntheticSample, rng) -> tuple[np.ndarray, np.ndarray]:
    img = sample.image[0]
    mask = sample.target_mask
    ys, xs = np.nonzero(mask)
    theta = rng.uniform(0.0, 2 * np.pi)
    proj = np.cos(theta) * xs + np.sin(theta) * ys
    keep_fraction = rng.uniform(0.25, 0.45)          # removed in (0.55, 0.75]
    k = int(np.floor(keep_fraction * proj.size))
    order = np.argsort(proj, kind="stable")
    keep_idx = order[:k]
    new_mask = np.zeros_like(mask)
    new_mask[ys[keep_idx], xs[keep_idx]] = True
    out = np.where(new_mask, img, np.where(mask, _background_value(sample), img))
    return out, new_mask


def _blur_noise(sample: SyntheticSample, rng) -> tuple[np.ndarray, np.ndarray]:
    img = sample.image[0]
    mode = rng.integers(0, 3)                        # 0 blur, 1 noise, 2 both
    out = img
    if mode in (0, 2):
        out = _box_blur(out, int(rng.integers(1, 4)))
    if mode in (1, 2):
        out = out + rng.normal(0.0, rng.uniform(0.05, 0.2), size=img.shape)
    return np.clip(out, 0.0, 1.0), sample.target_mask.copy()


_TRANSFORMS = {   # one per DIFFICULTY_TAGS entry, in its order
    "camouflaged": _camouflage,
    "small": _shrink,
    "incomplete": _occlude,
    "blurry_noisy": _blur_noise,
}


def apply_difficulty(sample: SyntheticSample, tag: str, seed: int) -> SyntheticSample:
    """Turn a support-pool sample into a query-pool sample under one rule."""
    if sample.pool != "support":
        raise ContractError(f"apply_difficulty: sample is already in pool "
                            f"'{sample.pool}'")
    if tag not in DIFFICULTY_TAGS:
        raise ConfigError(f"apply_difficulty: unknown tag '{tag}'")
    rng = np.random.default_rng(np.random.SeedSequence([0x7472, sample.class_id, seed]))
    image, mask = _TRANSFORMS[tag](sample, rng)
    if np.array_equal(image, sample.image[0]):
        raise ContractError(f"apply_difficulty: '{tag}' left the image unchanged")
    return SyntheticSample(image=image[None, :, :], class_id=sample.class_id,
                           pool="query", transforms_applied=[tag],
                           target_mask=mask, seed=sample.seed)


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

@dataclass
class SyntheticDataset:
    config: DatasetConfig
    support: list[SyntheticSample]
    query: list[SyntheticSample]

    @property
    def class_ids(self) -> list[int]:
        return sorted({s.class_id for s in self.support})

    def by_class(self, pool: str) -> dict[int, list[SyntheticSample]]:
        out: dict[int, list[SyntheticSample]] = {}
        for s in (self.support if pool == "support" else self.query):
            out.setdefault(s.class_id, []).append(s)
        return out


def _tag_quota(cfg: DatasetConfig) -> list[str]:
    """Largest-remainder allocation of a class's difficulty tags by the
    ``mix_*`` shares, with the blur count topped up to its floor share."""
    tags, n = list(DIFFICULTY_TAGS), cfg.query_per_class
    exact = np.array([getattr(cfg, f"mix_{t}") * n for t in tags])
    counts = np.floor(exact).astype(int)
    remainder_order = np.argsort(-(exact - counts), kind="stable")
    for i in remainder_order[:n - counts.sum()]:
        counts[i] += 1
    if cfg.mix_blurry_noisy > 0:
        need = int(np.ceil(cfg.blur_fraction * n))
        bi = tags.index("blurry_noisy")
        while counts[bi] < need:
            donor = max((i for i in range(len(tags)) if i != bi), key=lambda i: counts[i])
            counts[donor] -= 1
            counts[bi] += 1
    out: list[str] = []
    for tag, cnt in zip(tags, counts):
        out.extend([tag] * cnt)
    return out


def build_dataset(cfg: DatasetConfig) -> SyntheticDataset:
    """Generate both pools; fully deterministic under ``cfg.seed``."""
    cfg.validate()
    support: list[SyntheticSample] = []
    query: list[SyntheticSample] = []
    for c in range(cfg.n_classes):
        for i in range(cfg.support_per_class):
            seed = int(np.random.SeedSequence([cfg.seed, 1, c, i]).generate_state(1)[0])
            support.append(generate_base_image(c, seed, cfg.image_size))
        tags = _tag_quota(cfg)
        shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2, c]))
        shuffle_rng.shuffle(tags)
        for i, tag in enumerate(tags):
            seed = int(np.random.SeedSequence([cfg.seed, 3, c, i]).generate_state(1)[0])
            base = generate_base_image(c, seed, cfg.image_size)
            query.append(apply_difficulty(base, tag, seed=seed))
    return SyntheticDataset(config=cfg, support=support, query=query)


# ---------------------------------------------------------------------------
# train-time query augmentation (light transforms applied at batch loading)
# ---------------------------------------------------------------------------

def augment_query_image(image: np.ndarray, mode: str, rng) -> np.ndarray:
    """Light training-time augmentation of a query image (1, H, W)."""
    check_keys(augment=mode)
    if mode == "none":
        return image
    if mode == "randaugment":
        mode = ("randcrop", "noise")[int(rng.integers(0, 2))]
    img = image[0]
    size = img.shape[0]
    if mode == "randcrop":
        crop = int(rng.integers(int(0.75 * size), size))
        top = int(rng.integers(0, size - crop + 1))
        left = int(rng.integers(0, size - crop + 1))
        out = _nearest_resample(img[top:top + crop, left:left + crop], size, size)
    else:
        out = np.clip(img + rng.normal(0.0, rng.uniform(0.01, 0.05), size=img.shape),
                      0.0, 1.0)
    return out[None, :, :]


# ---------------------------------------------------------------------------
# on-disk pool layout (one directory per class; filename encodes pool + tags)
# ---------------------------------------------------------------------------

def export_pools(dataset: SyntheticDataset, out_dir) -> int:
    """Write each sample as class_<id>/<pool>_<idx>__<tags>.npz (image + mask)."""
    out_dir = Path(out_dir)
    count = 0
    for pool_name, samples in (("support", dataset.support), ("query", dataset.query)):
        per_class: dict[int, int] = {}
        for s in samples:
            idx = per_class.get(s.class_id, 0)
            per_class[s.class_id] = idx + 1
            cdir = out_dir / f"class_{s.class_id:04d}"
            cdir.mkdir(parents=True, exist_ok=True)
            tags = "-".join(s.transforms_applied) or "clean"
            np.savez(cdir / f"{pool_name}_{idx:05d}__{tags}.npz",
                     image=s.image, mask=s.target_mask, seed=np.int64(s.seed))
            count += 1
    return count


def load_pools(in_dir, config: DatasetConfig | None = None) -> SyntheticDataset:
    """Read a directory written by :func:`export_pools` (or laid out the same way)."""
    in_dir = Path(in_dir)
    class_dirs = sorted(in_dir.glob("class_*"))
    if not class_dirs:
        raise DataError(f"load_pools: no class_* directories under {in_dir}")
    support: list[SyntheticSample] = []
    query: list[SyntheticSample] = []
    size = config.image_size if config else None   # else the first file's side
    for cdir in class_dirs:
        try:
            class_id = int(cdir.name.split("_", 1)[1])
        except ValueError:
            raise DataError(f"load_pools: class directory {cdir} is not class_<id>") from None
        files = sorted(cdir.glob("*.npz"))
        if not files:
            raise DataError(f"load_pools: class directory {cdir} holds no .npz file")
        for f in files:
            pool, _, rest = f.stem.partition("_")
            if pool not in ("support", "query") or "__" not in rest:
                raise DataError(f"load_pools: {f} is not named <support|query>_<idx>__<tags>.npz")
            tags = rest.split("__", 1)[1]
            try:
                with np.load(f) as z:
                    arrays = {k: z[k] for k in ("image", "mask", "seed") if k in z.files}
            except (OSError, TypeError, ValueError, zipfile.BadZipFile) as e:
                raise DataError(f"load_pools: {f} is not a readable .npz file ({e})") from None
            missing = sorted({"image", "mask", "seed"} - set(arrays))
            if missing:
                raise DataError(f"load_pools: {f} lacks the key(s) {missing}")
            image = arrays["image"]
            size = image.shape[-1] if size is None and image.ndim == 3 else size
            if image.shape != (1, size, size) or image.dtype.kind not in "fiu" \
                    or not np.all(np.isfinite(image)):
                raise DataError(f"load_pools: {f} holds a {image.dtype} {image.shape} image; each "
                                f"must be finite and (1, S, S) with S = {size}: the config's "
                                f"image_size if one is given, else the first file's side")
            if np.any((image < 0) | (image > 1)):
                raise DataError(f"load_pools: {f} holds image values in [{image.min()}, "
                                f"{image.max()}]; they must lie in [0, 1], the generator's range")
            mask = arrays["mask"]
            if mask.dtype != bool or mask.shape != (size, size):
                raise DataError(f"load_pools: {f} holds a {mask.dtype} {mask.shape} mask; it "
                                f"must be bool and ({size}, {size}), the image's side")
            if (seed := arrays["seed"]).shape != () or seed.dtype.kind not in "iu":
                raise DataError(f"load_pools: {f} holds a {seed.dtype} {seed.shape} seed; "
                                f"it must be a single integer")
            (support if pool == "support" else query).append(SyntheticSample(
                image=image, class_id=class_id, pool=pool,
                transforms_applied=[] if tags == "clean" else tags.split("-"),
                target_mask=mask, seed=int(seed)))
    cfg = config or DatasetConfig(
        n_classes=len(class_dirs),
        support_per_class=max(1, len(support) // max(1, len(class_dirs))),
        query_per_class=max(1, len(query) // max(1, len(class_dirs))),
        image_size=size)
    return SyntheticDataset(config=cfg, support=support, query=query)
