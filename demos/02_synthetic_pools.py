"""Generate the easy/hard synthetic pools and re-measure every difficulty
rule with tests/referees.py, printing a small ASCII rendering of one sample
per transform."""
import sys
from pathlib import Path

from condrep.data import DatasetConfig, apply_difficulty, build_dataset, generate_base_image

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))   # the referees
from referees import measure_rule  # noqa: E402


def ascii_art(image):
    chars = " .:-=+*#%@"
    img = image[0]
    step = max(1, img.shape[0] // 24)
    for row in img[::step]:
        print("".join(chars[min(int(v * (len(chars) - 1) + 0.5), len(chars) - 1)]
                      for v in row[::step]))


base = generate_base_image(class_id=1, seed=7)
print(f"clean support glyph (target covers {base.target_mask.mean():.0%} of pixels):")
ascii_art(base.image)

for tag in ("camouflaged", "small", "incomplete", "blurry_noisy"):
    q = apply_difficulty(generate_base_image(1, 7), tag, seed=11)
    print(f"\n--- {tag} --- rule re-measurement: {measure_rule(q)}")
    ascii_art(q.image)

print("\nassembling the default pools...")
ds = build_dataset(DatasetConfig(seed=0))
print(f"{len(ds.support)} support / {len(ds.query)} query samples, "
      f"classes {ds.class_pools()[2]}")
tags = [s.transforms_applied[0] for s in ds.query]
print("query difficulty mix:", {t: tags.count(t) for t in sorted(set(tags))})
ok = all(measure_rule(s)["ok"] for s in ds.query)
print(f"all query samples satisfy their quantitative rule: {ok}")
