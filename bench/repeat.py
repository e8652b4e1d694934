#!/usr/bin/env python3
"""Run one workload over several seeds and summarise each metric.

    python3 bench/repeat.py --workload train_default --seeds 1-10 --seconds 30 \
        [--out summary.json]

Prints, per end-to-end metric, the median over the runs and the spread: the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median. Each run is a fresh process of bench/run.py, one at a
time.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(results: list[dict]) -> dict:
    out = {}
    for key in results[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[key] = {"unit": results[0]["metrics"][key]["unit"], "median": med,
                    "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
                    "values": values}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out")
    args = ap.parse_args()
    results = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    summary = summarise(results) if len(results) >= 2 else {}
    first = parse_seeds(args.seeds)[0]
    record = RUN.parent / "out" / f"{args.workload}-seed{first}-trace0.json"
    environment = json.loads(record.read_text())["environment"]
    for key, s in summary.items():
        print(f"{key:26s} median {s['median']:12.4f} {s['unit']:6s} spread {s['spread']}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
             "environment": environment,
             "all_correct": all(r["correct"] for r in results),
             "failed": sum(r["failed"] for r in results),
             "attempted": sum(r["attempted"] for r in results),
             "metrics": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
