#!/usr/bin/env python3
"""Regenerate ``references.json``: the outputs the benchmark checks each
run against, for seeds 0..SEEDS-1.

    python3 bench/make_references.py

For each train workload it records the losses of the first REF_STEPS
training steps after set-up; for eval_5w1s, the per-strategy accuracies of
the first REF_EPISODES episodes. Run it only
on the commit whose outputs are the reference: a change that keeps the
model's behaviour must pass against the old file.
"""
from __future__ import annotations

import json
import os
import sys

import run

SEEDS = 100
REF_STEPS = 3
REF_EPISODES = 5


def main() -> int:
    run.pin_blas()
    c = run.load_condrep()
    run.OUT_DIR.mkdir(exist_ok=True)
    ckpt = run.OUT_DIR / f"references-{os.getpid()}.ckpt"
    refs: dict[str, dict] = {name: {} for name in run.WORKLOADS}
    for seed in range(SEEDS):
        for name, wl in run.WORKLOADS.items():
            st = run.set_up(c, name, seed, ckpt)
            if wl["kind"] == "train":
                refs[name][str(seed)] = [run.train_step(c, st) for _ in range(REF_STEPS)]
            else:
                refs[name][str(seed)] = [
                    {s: r.per_episode_accuracy[0]
                     for s, r in run.eval_episode(c, st, seed, i).items()}
                    for i in range(REF_EPISODES)]
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    ckpt.unlink()
    tmp = run.REFERENCES.with_suffix(".tmp")
    tmp.write_text(json.dumps(refs, sort_keys=True, indent=0) + "\n")
    os.replace(tmp, run.REFERENCES)
    return 0


if __name__ == "__main__":
    sys.exit(main())
