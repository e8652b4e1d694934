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

Glyphs are rendered as arrays, one class and pool at a time
(``_render_glyphs``). Each glyph still draws its five pose and intensity
values from its own generator; the masks, textures and images of up to
``_GLYPH_BATCH_BYTES`` of glyphs are then computed as (n, size, size)
arrays, and each sample holds its slice. ``generate_base_image`` is the
same path for one seed. Pools are byte-identical to the per-glyph code that
``tests/referees.py`` keeps as the referee.
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

# each glyph's five draws, in order: radius, centre x and y offsets (in
# 32-pixel units), background level, texture brightness
_DRAW_LOW = np.array([9.0, -2.0, -2.0, 0.08, 0.68])
_DRAW_HIGH = np.array([11.0, 2.0, 2.0, 0.22, 0.9])
_GLYPH_BATCH_BYTES = 3 << 19   # 1.5 MB per (n, size, size) float64 array: 192 glyphs at 32 px


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


def _square(values: np.ndarray) -> np.ndarray:
    """Each value's ``** 2`` as a Python float, which the C library's ``pow``
    rounds; numpy's ``**`` multiplies instead, and the two differ in the last
    bit for about one value in 1,200."""
    return np.array([v ** 2 for v in values.reshape(-1).tolist()]).reshape(values.shape)


def _shape_mask(family: int, size: int, r, cx, cy) -> np.ndarray:
    """(n, size, size) masks of one glyph family for (n, 1, 1) radii and centres."""
    y, x = _coordinate_grid(size)
    dx, dy = x - cx, y - cy
    if family == 0:                                  # disk
        return dx * dx + dy * dy <= r * r
    if family == 1:                                  # ring
        d2 = dx * dx + dy * dy
        return (d2 <= _square(1.12 * r)) & (d2 >= _square(0.58 * r))
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
               (dx * dx + dy * dy <= _square(1.25 * r))
    if family == 6:                                  # horizontal bars in a disk
        period = np.maximum(3.0, 0.55 * r)
        band = np.mod(dy + 3 * period, period) < 0.62 * period
        return band & (dx * dx + dy * dy <= _square(1.2 * r))
    # diamond
    return np.abs(dx) + np.abs(dy) <= 1.25 * r


def _stroke_texture(class_id: int, size: int, base) -> np.ndarray:
    """Class-specific stripe texture for the glyph interior, at each brightness in ``base``."""
    return np.clip(base * (0.84 + 0.16 * _stripe_wave(class_id, size)), 0.0, 1.0)


def _render_glyphs(class_id: int, seeds: list[int], size: int) -> list[SyntheticSample]:
    """One clean support-style sample of ``class_id`` per seed. Each glyph draws
    its radius, centre offsets, background and brightness from its own
    generator; masks and images are then computed for a batch of glyphs at once."""
    unit = np.array([np.random.default_rng(np.random.SeedSequence(
        [0x67657, class_id, seed, size])).random(5) for seed in seeds]).reshape(-1, 5)
    # Generator.uniform maps each draw as low + (high - low) * draw; mapping
    # the batch's draws here gives the same values, and random(5) costs under
    # a tenth of one uniform call over the five ranges
    draws = _DRAW_LOW + (_DRAW_HIGH - _DRAW_LOW) * unit
    scale = size / 32.0
    radius = draws[:, 0] * scale
    cx, cy = size / 2.0 + draws[:, 1:3].T * scale
    step = max(1, _GLYPH_BATCH_BYTES // (8 * size * size))
    samples = []
    for lo in range(0, len(seeds), step):
        part = slice(lo, lo + step)
        masks = _shape_mask(class_id % 8, size, *(v[part, None, None] for v in (radius, cx, cy)))
        texture = _stroke_texture(class_id, size, draws[part, 4, None, None])
        images = np.where(masks, texture, draws[part, 3, None, None])
        samples.extend(SyntheticSample(image=images[k:k + 1], class_id=class_id, pool="support",
                                       transforms_applied=[], target_mask=masks[k], seed=seed)
                       for k, seed in enumerate(seeds[part]))
    return samples


def generate_base_image(class_id: int, seed: int, size: int = 32) -> SyntheticSample:
    """Clean support-style sample: class glyph with pose jitter on a uniform
    background; the target covers roughly 10-50% of the pixels."""
    check_keys(image_size=size)
    return _render_glyphs(class_id, [seed], size)[0]


def _background_value(sample: SyntheticSample) -> float:
    """The median of the pixels outside the target, as ``np.median`` computes it."""
    values = sample.image[0][~sample.target_mask]
    mid = values.size // 2
    if values.size % 2:
        return float(np.partition(values, mid)[mid])
    low, high = np.partition(values, (mid - 1, mid))[mid - 1:mid + 1]
    return float((low + high) / 2)


# ---------------------------------------------------------------------------
# difficulty transforms
# ---------------------------------------------------------------------------

def _box_blur(img: np.ndarray, radius: int) -> np.ndarray:
    """Separable box blur with edge padding: each pass differences a running
    sum that starts with a zero row (column)."""
    k = 2 * radius + 1
    h, w = img.shape
    padded = img.take(_edge_index(h, radius), axis=0).take(_edge_index(w, radius), axis=1)
    cs = np.zeros((h + k, w + k - 1))
    np.cumsum(padded, axis=0, out=cs[1:])
    rows = (cs[k:] - cs[:-k]) / k
    cs = np.zeros((h, w + k))
    np.cumsum(rows, axis=1, out=cs[:, 1:])
    return (cs[:, k:] - cs[:, :-k]) / k


def _edge_index(n: int, radius: int) -> np.ndarray:
    """Indices that pad an axis of length ``n`` by ``radius`` copies of its edge values."""
    return np.minimum(np.maximum(np.arange(-radius, n + radius), 0), n - 1)


def _nearest_resample(arr: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    h, w = arr.shape
    rows = np.minimum((np.arange(new_h) * h / new_h).astype(int), h - 1)
    cols = np.minimum((np.arange(new_w) * w / new_w).astype(int), w - 1)
    return arr.take(rows, axis=0).take(cols, axis=1)


def _camouflage(sample: SyntheticSample, rng) -> tuple[np.ndarray, np.ndarray]:
    img = sample.image[0]
    mask = sample.target_mask
    target, outside = img[mask], ~mask
    noise = rng.normal(target.mean(), max(float(target.std()), 0.02), size=img.shape)
    out = np.where(mask, img, noise)
    for _ in range(3):   # re-centre after clipping until the mean rule holds
        out = np.clip(out, 0.0, 1.0)
        drift = out[mask].mean() - out[outside].mean()
        if abs(drift) <= CAMOUFLAGE_MEAN_TOL * 0.8:
            break
        out[outside] += drift
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
        if small_mask.sum() <= budget and small_mask.any():
            small_img = _nearest_resample(sub_img, nh, nw)
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
    if tag != "blurry_noisy" and sample.target_mask.all():
        raise ContractError(f"apply_difficulty: '{tag}' needs a background, and the sample "
                            f"has no background pixels (its target mask covers the image)")
    rng = np.random.default_rng(np.random.SeedSequence([0x7472, sample.class_id, seed]))
    image, mask = _TRANSFORMS[tag](sample, rng)
    if (image == sample.image[0]).all():   # every transform keeps the image's shape
        raise ContractError(f"apply_difficulty: '{tag}' left the image unchanged")
    return SyntheticSample(image=image[None, :, :], class_id=sample.class_id,
                           pool="query", transforms_applied=[tag],
                           target_mask=mask, seed=sample.seed)


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

@dataclass
class SyntheticDataset:
    """The two pools: clean supports and transformed queries."""
    support: list[SyntheticSample]
    query: list[SyntheticSample]

    def class_pools(self) -> tuple[dict[int, list[SyntheticSample]],
                                   dict[int, list[SyntheticSample]], list[int]]:
        """Both pools by class, and the ascending classes that hold both: the
        classes a sampler may draw."""
        sup, qry = self.by_class("support"), self.by_class("query")
        return sup, qry, sorted(set(sup) & set(qry))

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
        support.extend(_render_glyphs(c, _glyph_seeds(cfg, 1, c, cfg.support_per_class),
                                      cfg.image_size))
        tags = _tag_quota(cfg)
        shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2, c]))
        shuffle_rng.shuffle(tags)
        bases = _render_glyphs(c, _glyph_seeds(cfg, 3, c, cfg.query_per_class), cfg.image_size)
        query.extend(apply_difficulty(base, tag, seed=base.seed) for base, tag in zip(bases, tags))
    return SyntheticDataset(support=support, query=query)


def _glyph_seeds(cfg: DatasetConfig, pool_key: int, class_id: int, n: int) -> list[int]:
    """The generation seeds of one class's ``n`` glyphs in one pool (1 support, 3 query)."""
    return [int(np.random.SeedSequence([cfg.seed, pool_key, class_id, i]).generate_state(1)[0])
            for i in range(n)]


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


def load_pools(in_dir, image_size: int) -> SyntheticDataset:
    """Read a directory written by :func:`export_pools` (or laid out the same
    way) whose images are all (1, image_size, image_size)."""
    in_dir = Path(in_dir)
    class_dirs = sorted(in_dir.glob("class_*"))
    if not class_dirs:
        raise DataError(f"load_pools: no class_* directories under {in_dir}")
    support: list[SyntheticSample] = []
    query: list[SyntheticSample] = []
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
            if image.shape != (1, image_size, image_size) or image.dtype.kind not in "fiu" \
                    or not np.all(np.isfinite(image)):
                raise DataError(f"load_pools: {f} holds a {image.dtype} {image.shape} image; each "
                                f"must be finite and (1, S, S) with S = {image_size}: the "
                                f"config's image_size")
            if np.any((image < 0) | (image > 1)):
                raise DataError(f"load_pools: {f} holds image values in [{image.min()}, "
                                f"{image.max()}]; they must lie in [0, 1], the generator's range")
            mask = arrays["mask"]
            if mask.dtype != bool or mask.shape != (image_size, image_size):
                raise DataError(f"load_pools: {f} holds a {mask.dtype} {mask.shape} mask; it "
                                f"must be bool and ({image_size}, {image_size}), the image's side")
            if (seed := arrays["seed"]).shape != () or seed.dtype.kind not in "iu":
                raise DataError(f"load_pools: {f} holds a {seed.dtype} {seed.shape} seed; "
                                f"it must be a single integer")
            (support if pool == "support" else query).append(SyntheticSample(
                image=image, class_id=class_id, pool=pool,
                transforms_applied=[] if tags == "clean" else tags.split("-"),
                target_mask=mask, seed=int(seed)))
    return SyntheticDataset(support=support, query=query)
