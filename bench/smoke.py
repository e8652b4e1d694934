#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload for a few operations, untraced and traced,
and checks that each named end-to-end and per-layer metric is emitted
with its unit, that no operation failed and that the reference outputs
were checked; and checks that the benchmark exits non-zero without a
result in a directory holding only BENCHMARK.json and bench/. Exits 1 on
the first failed check.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT
# Layers that run only in training (and every *.bwd_ms metric), or only in
# evaluation; each traced run must measure every other metric as non-zero.
TRAIN_ONLY = ("autodiff.backward_ms", "autodiff.backward.self_ms", "training.loss_ms",
              "data.batch_ms", "optim.step_ms", "autodiff.sub.", "autodiff.sqrt.",
              "autodiff.sum_along.")
EVAL_ONLY = ("evaluate.features_ms", "evaluate.strategy_ms", "evaluate.baseline_ms",
             "evaluate.pairs", "data.episode_ms")


def check(ok: bool, what: str):
    if not ok:
        print(f"FAIL: {what}")
        raise SystemExit(1)


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(proc, spec_metrics: list[dict], label: str) -> dict:
    check(proc.returncode == 0, f"{label} exits 0 (stderr: {proc.stderr[-500:]})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label} correct with failed_fraction 0")
    check({k: v["unit"] for k, v in result["metrics"].items()}
          == {m["name"]: m["unit"] for m in spec_metrics}, f"{label} metric names and units")
    check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
          f"{label} metric values are numbers")
    check("failed_fraction 0.0000" in proc.stdout, f"{label} prints failed_fraction")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name, wl in run.WORKLOADS.items():
        for trace in (0, 1):
            label = f"{name} --trace {trace}"
            proc = bench(ROOT, name, trace)
            result = check_run(proc, spec["per_layer" if trace else "end_to_end"], label)
            record = json.loads((run.OUT_DIR / f"{name}-seed0-trace{trace}.json").read_text())
            check(record["reference_checked_ops"] > 0, f"{label} checked reference outputs")
            if trace:
                train = wl["kind"] == "train"
                skip = EVAL_ONLY if train else TRAIN_ONLY
                layers = record["layers"]
                for metric, *_ in run.LAYER_METRICS:
                    check(metric in layers, f"{label} reports {metric}")
                for metric, entry in layers.items():
                    if metric.startswith(skip) or metric == "trace.overhead" \
                            or (not train and metric.endswith(".bwd_ms")):
                        continue
                    check(entry["value"] > 0, f"{label} measured {metric}")
                check((run.OUT_DIR / record["spans"]).is_file(), f"{label} wrote spans")
            print(f"ok  {label}: attempted {result['attempted']}, failed 0")

    bare = run.OUT_DIR / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in run.BENCH_DIR.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "bench")
    proc = bench(bare, "train_default", 0)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "exits non-zero with no result without src/")
    shutil.rmtree(bare)
    print("ok  bare directory: exit code", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
