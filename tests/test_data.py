"""Synthetic dataset: glyph rendering, difficulty rules, pool assembly."""
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from condrep import data
from condrep.config import DIFFICULTY_TAGS
from condrep.data import (CAMOUFLAGE_MEAN_TOL, DatasetConfig, SyntheticDataset,
                          SyntheticSample, apply_difficulty, augment_query_image,
                          build_dataset, export_pools, generate_base_image, load_pools)
from condrep.exceptions import ConfigError, ContractError, DataError
from referees import base_image_referee, measure_rule


class TestBaseImages:
    def test_determinism(self):
        a = generate_base_image(2, seed=7)
        b = generate_base_image(2, seed=7)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.target_mask, b.target_mask)

    def test_distinct_classes_differ(self):
        # pairwise pixel sweep: any two classes differ in >= 1% of pixels
        for seed in range(3):
            images = [generate_base_image(c, seed).image for c in range(8)]
            for i in range(8):
                for j in range(i + 1, 8):
                    frac = np.mean(~np.isclose(images[i], images[j], atol=1e-12))
                    assert frac >= 0.01, (i, j, seed)

    def test_mask_fraction_between_10_and_50_percent(self):
        for seed in range(100):
            s = generate_base_image(seed % 8, seed)
            frac = s.target_mask.mean()
            assert 0.10 <= frac <= 0.50, (seed, frac)

    def test_mask_covers_rendered_shape_exactly(self):
        s = generate_base_image(0, seed=1)
        bg = np.median(s.image[0][~s.target_mask])
        assert np.all(s.image[0][~s.target_mask] == bg)

    def test_small_size_rejected(self):
        with pytest.raises(ConfigError):
            generate_base_image(0, seed=0, size=8)

    def test_pixels_in_unit_interval(self):
        for seed in range(20):
            s = generate_base_image(seed % 8, seed)
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0


class TestGlyphCaches:
    # every glyph reads one coordinate grid per image size and one stripe
    # wave per class and size; both are cached read-only, so no draw can
    # change what a later glyph is drawn from
    def test_cached_grid_and_wave_are_read_only(self):
        x = data._coordinate_grid(32)[1]
        for arr in (data._coordinate_grid(32), x, data._stripe_wave(3, 32)):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            x += 1.0

    @pytest.mark.parametrize("size", [28, 32])
    def test_texture_equals_the_per_glyph_formula(self, size):
        y, x = np.indices((size, size)).astype(float)
        for class_id in (0, 1, 2, 4, 7, 11):
            angle = (class_id * 0.9) % np.pi
            freq = 0.55 + 0.18 * ((class_id * 3) % 4)
            wave = np.sin(freq * (np.cos(angle) * x + np.sin(angle) * y))
            for base in (0.68, 0.7913, 0.9):
                expected = np.clip(base * (0.84 + 0.16 * wave), 0.0, 1.0)
                texture = data._stroke_texture(class_id, size, base)
                assert texture.tobytes() == expected.tobytes(), (class_id, size, base)

    def test_build_after_clearing_the_caches_equals_a_warm_build(self):
        cfg = DatasetConfig(seed=7, n_classes=3, support_per_class=4, query_per_class=8,
                            image_size=28)
        data._coordinate_grid.cache_clear()
        data._stripe_wave.cache_clear()
        cold = build_dataset(cfg)
        warm = build_dataset(cfg)
        for a, b in zip(cold.support + cold.query, warm.support + warm.query, strict=True):
            assert a.image.tobytes() == b.image.tobytes(), a.sample_id
            assert a.target_mask.tobytes() == b.target_mask.tobytes(), a.sample_id
            assert (a.class_id, a.pool, a.transforms_applied, a.seed) == \
                   (b.class_id, b.pool, b.transforms_applied, b.seed)

    def test_default_build_computes_one_grid_and_one_wave_per_class(self):
        data._coordinate_grid.cache_clear()
        data._stripe_wave.cache_clear()
        cfg = DatasetConfig()
        build_dataset(cfg)
        assert data._coordinate_grid.cache_info().misses == 1
        assert data._stripe_wave.cache_info().misses == cfg.n_classes


class TestBatchedGlyphs:
    # builds render each class's glyphs as (n, size, size) arrays; the
    # referee draws and renders one glyph at a time, as the generator did
    # before, and every sample must match it byte for byte
    @pytest.mark.parametrize("size", [16, 28, 32, 64])
    def test_batched_glyphs_equal_the_per_glyph_referee(self, size):
        step = data._GLYPH_BATCH_BYTES // (8 * size * size)
        for class_id in range(8):   # every shape family
            seeds = data._glyph_seeds(DatasetConfig(seed=size), 3, class_id, 50)
            samples = data._render_glyphs(class_id, seeds, size)
            for seed, got in zip(seeds, samples, strict=True):
                want = base_image_referee(class_id, seed, size)
                for a, b in ((got.image, want.image), (got.target_mask, want.target_mask)):
                    assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), \
                        (class_id, seed)
                assert (got.class_id, got.pool, got.transforms_applied, got.seed) == \
                       (want.class_id, want.pool, want.transforms_applied, want.seed)
            one = generate_base_image(class_id, seeds[0], size)
            assert one.image.tobytes() == samples[0].image.tobytes()
            # each batch's images are one array, and none exceeds the budget
            batches = {id(s.image.base): s.image.base for s in samples}
            assert len(batches) == -(-50 // step)
            assert max(b.nbytes for b in batches.values()) <= data._GLYPH_BATCH_BYTES


class TestDifficultyTransforms:
    @pytest.mark.parametrize("tag", DIFFICULTY_TAGS)
    def test_rules_hold_when_re_measured(self, tag):
        for seed in range(25):
            base = generate_base_image(seed % 8, seed)
            q = apply_difficulty(base, tag, seed=seed)
            assert q.pool == "query" and q.transforms_applied == [tag]
            assert measure_rule(q)["ok"], (tag, seed)
            assert q.image.min() >= 0.0 and q.image.max() <= 1.0

    def test_small_mask_fraction_rule(self):
        q = apply_difficulty(generate_base_image(1, 3), "small", seed=3)
        assert q.target_mask.sum() / q.target_mask.size <= 0.01

    def test_incomplete_removal_rule(self):
        base = generate_base_image(4, 5)
        q = apply_difficulty(base, "incomplete", seed=5)
        removed = 1.0 - q.target_mask.sum() / base.target_mask.sum()
        assert removed > 0.5

    def test_camouflage_mean_rule(self):
        q = apply_difficulty(generate_base_image(2, 9), "camouflaged", seed=9)
        img = q.image[0]
        gap = abs(img[q.target_mask].mean() - img[~q.target_mask].mean())
        assert gap <= 0.05

    def test_camouflage_re_centres_a_background_that_clipping_pulled_away(self):
        # a target of mean 7/8 and spread 0.33 draws background noise that
        # clipping at 1 pulls down by more than 0.8 x the tolerance, so the
        # background is shifted back before the rule is checked
        mask = np.zeros((16, 16), dtype=bool)
        mask[4:12, 4:12] = True
        img = np.where(mask, 1.0, 0.0)
        img[4, 4:12] = 0.0
        sample = SyntheticSample(image=img[None], class_id=0, pool="support",
                                 transforms_applied=[], target_mask=mask, seed=0)
        rng = np.random.default_rng(np.random.SeedSequence([0x7472, 0, 0]))
        noise = rng.normal(img[mask].mean(), img[mask].std(), size=img.shape)
        clipped = np.clip(np.where(mask, img, noise), 0.0, 1.0)
        first_drift = clipped[mask].mean() - clipped[~mask].mean()
        assert first_drift > 0.8 * CAMOUFLAGE_MEAN_TOL
        out = apply_difficulty(sample, "camouflaged", seed=0).image[0]
        gap = abs(out[mask].mean() - out[~mask].mean())
        assert gap <= CAMOUFLAGE_MEAN_TOL and gap < first_drift
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_blur_must_change_the_image(self):
        base = generate_base_image(0, 2)
        q = apply_difficulty(base, "blurry_noisy", seed=2)
        assert not np.array_equal(q.image, base.image)

    def test_blur_that_leaves_a_uniform_image_unchanged_is_refused(self):
        # class 0 under seed 0 draws blur only, and a box blur of a uniform
        # 0.5 image sums and divides exactly, so the image comes back as it went in
        mask = np.zeros((16, 16), dtype=bool)
        mask[4:12, 4:12] = True
        sample = SyntheticSample(image=np.full((1, 16, 16), 0.5), class_id=0, pool="support",
                                 transforms_applied=[], target_mask=mask, seed=0)
        with pytest.raises(ContractError, match="'blurry_noisy' left the image unchanged"):
            apply_difficulty(sample, "blurry_noisy", seed=0)

    @pytest.mark.parametrize("tag", DIFFICULTY_TAGS)
    def test_sample_without_background_refused_except_by_blur(self, tag):
        # a target that covers every pixel leaves no background to take a
        # median or a mean of; blur and noise need none
        base = generate_base_image(1, 7, 16)
        sample = SyntheticSample(image=base.image, class_id=1, pool="support",
                                 transforms_applied=[], target_mask=np.ones((16, 16), bool),
                                 seed=7)
        if tag == "blurry_noisy":
            q = apply_difficulty(sample, tag, seed=3)
            assert np.isfinite(q.image).all() and not np.array_equal(q.image, base.image)
            return
        with pytest.raises(ContractError, match=f"'{tag}' .* no background pixels"):
            apply_difficulty(sample, tag, seed=3)

    def test_re_transform_rejected(self):
        q = apply_difficulty(generate_base_image(0, 1), "small", seed=1)
        with pytest.raises(ContractError):
            apply_difficulty(q, "small", seed=2)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ConfigError):
            apply_difficulty(generate_base_image(0, 1), "sideways", seed=1)

    def test_one_transform_per_difficulty_tag_in_its_order(self):
        assert tuple(data._TRANSFORMS) == DIFFICULTY_TAGS


class TestBuildDataset:
    def test_pool_counts(self):
        ds = build_dataset(DatasetConfig(seed=1))
        assert len(ds.support) == 100 and len(ds.query) == 300

    def test_blur_quota(self):
        ds = build_dataset(DatasetConfig(seed=2))
        blurred = sum(1 for s in ds.query if "blurry_noisy" in s.transforms_applied)
        assert blurred >= 15

    def test_blur_quota_with_skewed_mix(self):
        ds = build_dataset(DatasetConfig(seed=3, mix_camouflaged=0.5, mix_incomplete=0.2,
                                         mix_blurry_noisy=0.05))
        blurred = sum(1 for s in ds.query if "blurry_noisy" in s.transforms_applied)
        assert blurred >= int(np.ceil(0.05 * len(ds.query)))

    def test_determinism(self):
        a = build_dataset(DatasetConfig(seed=4))
        b = build_dataset(DatasetConfig(seed=4))
        for sa, sb in zip(a.support + a.query, b.support + b.query):
            assert np.array_equal(sa.image, sb.image)

    def test_class_balance(self):
        ds = build_dataset(DatasetConfig(seed=5, n_classes=4, support_per_class=6,
                                         query_per_class=8))
        for pool in ("support", "query"):
            per_class = ds.by_class(pool)
            assert sorted(per_class) == [0, 1, 2, 3]
            expected = 6 if pool == "support" else 8
            assert all(len(v) == expected for v in per_class.values())

    def test_every_query_sample_satisfies_its_rule(self):
        ds = build_dataset(DatasetConfig(seed=6, n_classes=3, support_per_class=2,
                                         query_per_class=20))
        for s in ds.query:
            assert measure_rule(s)["ok"], s.sample_id

    def test_invalid_mix_rejected(self):
        with pytest.raises(ConfigError):
            DatasetConfig(mix_camouflaged=0.7, mix_incomplete=0.2,
                          mix_blurry_noisy=0.05).validate()
        with pytest.raises(ConfigError):
            DatasetConfig(blur_fraction=0.01).validate()

    # a NaN share passed both the sign and the sum check, and `gen-data
    # --mix-camouflaged nan` wrote 45 of 60 queries per class; a NaN
    # blur_fraction died in int() with a message naming no key
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_mix_or_blur_fraction_names_its_key(self, value):
        with pytest.raises(ConfigError, match="camouflaged"):
            DatasetConfig(mix_camouflaged=value).validate()
        with pytest.raises(ConfigError, match="blur_fraction"):
            DatasetConfig(blur_fraction=value).validate()

    def test_blur_fraction_above_one_rejected(self):
        with pytest.raises(ConfigError, match="blur_fraction"):
            DatasetConfig(blur_fraction=1.5).validate()

    def test_blur_top_up_never_takes_from_the_blur_tag(self):
        # once the blur count led, it was its own donor and the top-up loop
        # never ended (`gen-data --blur-fraction 0.27` hung at the default
        # mix); the quota runs in a child process so that a hang fails
        code = ("from condrep.data import DatasetConfig, _tag_quota\n"
                "for f in (0.27, 0.5, 1.0):\n"
                "    tags = _tag_quota(DatasetConfig(query_per_class=60, blur_fraction=f))\n"
                "    print(len(tags), tags.count('blurry_noisy'))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.stdout.split() == ["60", "17", "60", "30", "60", "60"], proc.stderr


class TestAugmentation:
    def test_none_is_identity(self):
        img = generate_base_image(0, 0).image
        out = augment_query_image(img, "none", np.random.default_rng(0))
        assert np.array_equal(out, img)

    @pytest.mark.parametrize("mode", ["randcrop", "noise", "randaugment"])
    def test_modes_change_image_and_stay_in_range(self, mode):
        img = generate_base_image(1, 1).image
        out = augment_query_image(img, mode, np.random.default_rng(3))
        assert out.shape == img.shape
        assert not np.array_equal(out, img)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            augment_query_image(generate_base_image(0, 0).image, "cutmix",
                                np.random.default_rng(0))


class TestExportImport:
    def test_round_trip(self, tmp_path):
        ds = build_dataset(DatasetConfig(seed=7, n_classes=2, support_per_class=3,
                                         query_per_class=4))
        n = export_pools(ds, tmp_path)
        assert n == 2 * (3 + 4)
        loaded = load_pools(tmp_path, 32)
        assert len(loaded.support) == 6 and len(loaded.query) == 8
        orig = sorted(ds.support + ds.query, key=lambda s: s.sample_id)
        back = sorted(loaded.support + loaded.query, key=lambda s: s.sample_id)
        for a, b in zip(orig, back):
            assert np.array_equal(a.image, b.image)
            assert np.array_equal(a.target_mask, b.target_mask)
            assert a.transforms_applied == b.transforms_applied

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_pools(tmp_path, 32)

    def test_empty_class_directory_rejected(self, tmp_path):
        (tmp_path / "class_0").mkdir()
        with pytest.raises(DataError, match="class_0.*no .npz"):
            load_pools(tmp_path, 32)

    @pytest.mark.parametrize("bad_name", ["support_00000.npz", "extra_00000__clean.npz",
                                          "supportx_00000__clean.npz"])
    def test_malformed_file_name_rejected(self, tmp_path, bad_name):
        ds = build_dataset(DatasetConfig(seed=7, n_classes=2, support_per_class=1,
                                         query_per_class=1))
        export_pools(ds, tmp_path)
        first = sorted(tmp_path.glob("class_*/*.npz"))[0]
        first.rename(first.parent / bad_name)
        with pytest.raises(DataError, match=bad_name):
            load_pools(tmp_path, 32)

    @staticmethod
    def _rewrite_last_file(tmp_path, **changes):
        ds = build_dataset(DatasetConfig(seed=7, n_classes=2, support_per_class=1,
                                         query_per_class=1))
        export_pools(ds, tmp_path)
        last = sorted(tmp_path.glob("class_*/*.npz"))[-1]
        with np.load(last) as z:
            arrays = {k: z[k] for k in z.files}
        arrays.update(changes)
        np.savez(last, **{k: v for k, v in arrays.items() if v is not None})
        return last

    @pytest.mark.parametrize("key", ["image", "mask", "seed"])
    def test_missing_key_rejected(self, tmp_path, key):
        last = self._rewrite_last_file(tmp_path, **{key: None})
        with pytest.raises(DataError, match=f"{last.name}.*'{key}'"):
            load_pools(tmp_path, 32)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_rejected(self, tmp_path, bad):
        image = np.full((1, 32, 32), 0.5)
        image[0, 3, 4] = bad
        last = self._rewrite_last_file(tmp_path, image=image)
        with pytest.raises(DataError, match=f"{last.name}.*must be finite"):
            load_pools(tmp_path, 32)

    @pytest.mark.parametrize("image", [np.full((1, 32, 32), -1e-9), np.full((1, 32, 32), 1.5),
                                       np.full((1, 32, 32), 255, dtype=np.uint8)],
                             ids=["negative", "above_one", "uint8_255"])
    def test_image_outside_unit_range_rejected(self, tmp_path, image):
        last = self._rewrite_last_file(tmp_path, image=image)
        with pytest.raises(DataError, match=f"{last.name}.*must lie in \\[0, 1\\]"):
            load_pools(tmp_path, 32)

    def test_image_range_bounds_are_inclusive(self, tmp_path):
        image = np.zeros((1, 32, 32))
        image[0, 0, 0] = 1.0
        self._rewrite_last_file(tmp_path, image=image)
        loaded = load_pools(tmp_path, 32)
        assert any(np.array_equal(s.image, image) for s in loaded.support + loaded.query)

    @pytest.mark.parametrize("shape", [(32, 32), (2, 32, 32), (1, 32, 16), (1, 16, 16),
                                       (1, 1, 32, 32)])
    def test_image_of_wrong_shape_or_size_rejected(self, tmp_path, shape):
        last = self._rewrite_last_file(tmp_path, image=np.zeros(shape))
        with pytest.raises(DataError, match=f"{last.name}.*{re.escape(str(shape))}"):
            load_pools(tmp_path, 32)

    @pytest.mark.parametrize("mask", [np.zeros((32, 32)), np.zeros((32, 32), dtype=np.int64),
                                      np.zeros((16, 16), dtype=bool),
                                      np.zeros((32, 16), dtype=bool),
                                      np.zeros((1, 32, 32), dtype=bool),
                                      np.zeros((), dtype=bool), np.full((32, 32), "x")],
                             ids=["float", "int", "16x16", "32x16", "1x32x32", "scalar", "str"])
    def test_mask_not_bool_of_image_side_rejected(self, tmp_path, mask):
        last = self._rewrite_last_file(tmp_path, mask=mask)
        with pytest.raises(DataError, match=f"{last.name}.*{re.escape(str(mask.shape))} mask"):
            load_pools(tmp_path, 32)

    def test_pool_side_other_than_config_image_size_rejected(self, tmp_path):
        # the pools loaded, and training failed at its first batch in the
        # backbone, naming neither the directory nor image_size
        ds = build_dataset(DatasetConfig(seed=7, n_classes=2, image_size=16,
                                         support_per_class=1, query_per_class=1))
        export_pools(ds, tmp_path)
        with pytest.raises(DataError, match=re.escape(str(tmp_path)) +
                           r".*\(1, 16, 16\) image.*S = 32: the config's image_size"):
            load_pools(tmp_path, 32)
        loaded = load_pools(tmp_path, 16)
        assert len(loaded.support) == 2
        assert {s.target_mask.shape for s in loaded.support + loaded.query} == {(16, 16)}

    def test_a_dataset_is_its_two_pools(self, tmp_path):
        # load_pools once inferred the image side from the first file and
        # invented a DatasetConfig from file counts for a field no code read
        assert [f.name for f in fields(SyntheticDataset)] == ["support", "query"]
        with pytest.raises(TypeError, match="image_size"):
            load_pools(tmp_path)

    # a pair exited 1 with a TypeError, 1.5 loaded as seed 1, and "x" and NaN
    # raised errors that did not name the file
    @pytest.mark.parametrize("seed", [np.array([1, 2]), np.float64(1.5), np.array("x"),
                                      np.float64(np.nan), np.array([7])],
                             ids=["pair", "float", "str", "nan", "one_element"])
    def test_seed_not_a_single_integer_rejected(self, tmp_path, seed):
        last = self._rewrite_last_file(tmp_path, seed=seed)
        with pytest.raises(DataError, match=f"{last.name}.*must be a single integer"):
            load_pools(tmp_path, 32)

    def test_non_numeric_image_rejected(self, tmp_path):
        last = self._rewrite_last_file(tmp_path, image=np.full((1, 32, 32), "x"))
        with pytest.raises(DataError, match=last.name):
            load_pools(tmp_path, 32)

    def test_unreadable_file_rejected(self, tmp_path):
        last = self._rewrite_last_file(tmp_path)
        last.write_bytes(b"not a zip archive")
        with pytest.raises(DataError, match=f"{last.name}.*readable"):
            load_pools(tmp_path, 32)

    def test_non_numeric_class_directory_rejected(self, tmp_path):
        (tmp_path / "class_cats").mkdir()
        with pytest.raises(DataError, match="class_cats"):
            load_pools(tmp_path, 32)
