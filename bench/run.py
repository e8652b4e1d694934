#!/usr/bin/env python3
"""condrep benchmark: closed-loop training steps and evaluation episodes.

Run from the repository root:

    python3 bench/run.py --workload train_default --seed 1 --seconds 30 --trace 0

Each workload is one closed loop with one client: the next training step
or evaluation episode starts when the previous one returns. The run sets
the workload up, runs two warm-up operations, then measures for
``--seconds`` seconds (and at least MIN_MEASURED operations) and checks
every operation's output against references taken on the commit that
defined the benchmark (``references.json``). Between operations it sets
the workload up again, SETUP_REPEATS times in all; the median is
``setup_s``. Workload names and metric names come from ``BENCHMARK.json``
at the repository root.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` is a separate
run that alternates traced and untraced operations, records spans around
calls into every condrep module (see ``spans.py``), and prints the
per-layer metrics. Both print human-readable lines first and one JSON
object as the last line of standard output, and write their records under
``bench/out/``.

The program is imported from ``src/`` of the checkout the script sits in;
without it the run exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# One BLAS thread: the loop has one client and the machine is shared, and
# on 2 cores two threads measured no faster but spread more.
BLAS_THREADS = 1
SETUP_REPEATS = 25
WARMUP_OPS = 2
LOSS_RTOL = 1e-9         # float64 reassociation moves the first losses by ~1e-14
TAIL_BEYOND = 10         # the tail percentile keeps this many samples beyond it
# Measured operations a run makes even past its deadline, so that the tail
# percentile lies above the median.
MIN_MEASURED = 2 * TAIL_BEYOND + 2

# What one operation of each workload is, and the config it overrides.
# BENCHMARK.json names the workloads and says why each was chosen.
CONFIGS = {
    "train_default": ("train", {"batches_per_epoch": "1"}),
    "train_grid7": ("train", {"image_size": "28", "feature_side": "7",
                              "feature_channels": "64", "batches_per_epoch": "1"}),
    "eval_5w1s": ("eval", {}),
}
WORKLOADS = {w["name"]: {"kind": CONFIGS[w["name"]][0], "overrides": CONFIGS[w["name"]][1],
                         "why": w["why"]} for w in SPEC["workloads"]}

# End-to-end metrics (--trace 0) and the per-layer metrics (--trace 1) that
# every workload reports.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

# Per-layer metrics: (metric, span name, statistic, unit). A "self" metric is
# the median over traced operations of the layer's self time in one operation.
LAYER_METRICS = [
    ("backbone.fwd_ms", "backbone", "self", "ms"),
    ("backbone.images", "backbone", "items", "count"),
    ("conditional.fwd_ms", "conditional", "self", "ms"),
    ("conditional.pairs", "conditional", "items", "count"),
    ("conditional.relation_mb", "conditional", "bytes_per_call", "MB"),
    ("rerepresent.self_ms", "rerepresent", "self", "ms"),
    ("autodiff.backward_ms", "autodiff.backward", "self", "ms"),
    ("training.loss_ms", "training.loss", "self", "ms"),
    ("data.batch_ms", "data.batch", "self", "ms"),
    ("optim.step_ms", "optim.step", "self", "ms"),
    ("evaluate.features_ms", "evaluate.features", "self", "ms"),
    ("evaluate.strategy_ms", "evaluate.strategy", "self", "ms"),
    ("evaluate.baseline_ms", "evaluate.baseline", "self", "ms"),
    ("evaluate.pairs", "rerepresent@evaluate.features", "items", "count"),
    ("data.episode_ms", "data.episode", "self", "ms"),
    ("data.build_s", "data.build", "setup", "s"),
    ("io.checkpoint_save_ms", "io.checkpoint_save", "setup", "ms"),
    ("io.checkpoint_load_ms", "io.checkpoint_load", "setup", "ms"),
]


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def pin_blas():
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def load_condrep() -> SimpleNamespace:
    """Import condrep from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "condrep" / "__init__.py").is_file():
        print(f"bench: no condrep package under {src}; run from a checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import condrep
    from condrep import (autodiff, data, evaluate, io, model, optim, rerepresent,
                         training)
    if Path(condrep.__file__).resolve().parent != (src / "condrep").resolve():
        print(f"bench: imported condrep from {condrep.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return SimpleNamespace(autodiff=autodiff, data=data, evaluate=evaluate, io=io,
                           model=model, optim=optim, rerepresent=rerepresent,
                           training=training)


def environment() -> dict:
    import numpy as np
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "platform": platform.platform()}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(c: SimpleNamespace, name: str, seed: int, ckpt) -> SimpleNamespace:
    """Dataset, model, checkpoint round trip, and the optimizer or the
    baseline model. Library calls go through module attributes so that the
    tracer's wrappers see them."""
    wl = WORKLOADS[name]
    cfg = c.io.resolve_config(None, {**wl["overrides"], "seed": seed})
    dataset = c.data.build_dataset(c.io.dataset_config_from(cfg))
    model = c.model.Model.init(c.io.model_config_from(cfg), seed=seed)
    c.io.save_checkpoint(ckpt, model, {"seed": seed})
    model, _meta = c.io.model_from_checkpoint(ckpt)
    state = SimpleNamespace(cfg=cfg, dataset=dataset, model=model)
    if wl["kind"] == "train":
        import numpy as np
        tc = c.io.train_config_from(cfg)
        state.train_cfg = tc
        state.optimizer = c.optim.AdamW(model.parameters(), lr=tc.learning_rate,
                                        beta1=tc.beta1, beta2=tc.beta2,
                                        weight_decay=tc.weight_decay)
        state.rng = np.random.default_rng(np.random.SeedSequence([0x7261, seed]))
        state.pairs_per_op = tc.batch_size
    else:
        state.baseline = c.model.Model.init(model.config, seed=seed)
        n_way, k_shot = int(cfg["n_way"]), int(cfg["k_shot"])
        state.pairs_per_op = n_way * int(cfg["q_per_class"]) * n_way * k_shot
    return state


def eval_episode(c, state, seed: int, i: int) -> dict:
    """Episode ``i`` of a run: one run_evaluation_suite call of one episode,
    whose seed never repeats within a run."""
    cfg = state.cfg
    strategies = [s for s in cfg["strategies"].split(",") if s]
    return c.evaluate.run_evaluation_suite(
        state.dataset, state.model, n_way=int(cfg["n_way"]), k_shot=int(cfg["k_shot"]),
        q_per_class=int(cfg["q_per_class"]), n_episodes=1, strategies=strategies,
        seed=seed * 100_000 + i, baseline_model=state.baseline)


def train_step(c, state) -> float:
    """One training step: train_epoch with batches_per_epoch=1."""
    return c.training.train_epoch(state.dataset, state.model, state.optimizer,
                                  state.train_cfg, state.rng)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Loop:
    """Runs operations until the deadline, and at least MIN_MEASURED after
    the warm-up, and keeps, per operation, its start and end time, whether
    it was traced, and whether its output checked out.

    The repeated set-ups behind ``setup_s`` run between operations, spread
    over the measured time, so that their median samples the same stretch
    of machine load as the operations do. Set-up time is excluded from the
    operations."""

    def __init__(self, c, name, seed, state, tracer, references, set_up_again):
        self.c, self.name, self.seed, self.state = c, name, seed, state
        self.tracer = tracer
        self.refs = references
        self.set_up_again = set_up_again    # runs one timed set-up
        self.setups_left = SETUP_REPEATS - 1
        self.ops: list[dict] = []
        self.ref_checked = 0
        self.deadline = None
        self.next_setup = None
        self.spacing = 0.0

    def begin_op(self):
        op = {"id": len(self.ops), "start": time.perf_counter(), "end": None,
              "ok": False, "traced": False}
        self.ops.append(op)
        if self.tracer is not None:
            op["traced"] = op["id"] % 2 == 1
            self.tracer.op = op["id"]
            self.tracer.install() if op["traced"] else self.tracer.uninstall()
        return op

    def between_ops(self):
        """Runs a set-up when one is due; call only between operations."""
        if self.next_setup is not None and self.setups_left \
                and time.perf_counter() >= self.next_setup:
            self.set_up_again()
            self.setups_left -= 1
            self.next_setup = time.perf_counter() + self.spacing

    def run(self, seconds: float):
        train = WORKLOADS[self.name]["kind"] == "train"
        while self.deadline is None or time.perf_counter() < self.deadline \
                or len(self.ops) < WARMUP_OPS + MIN_MEASURED:
            self.between_ops()
            op = self.begin_op()
            try:
                if train:
                    op["ok"] = self._check_loss(op["id"], train_step(self.c, self.state))
                else:
                    op["ok"] = self._check_episode(
                        op["id"], eval_episode(self.c, self.state, self.seed, op["id"]))
            except Exception:
                traceback.print_exc()
            op["end"] = time.perf_counter()
            if len(self.ops) == WARMUP_OPS:
                self.deadline = op["end"] + seconds
                self.spacing = seconds / SETUP_REPEATS
                self.next_setup = op["end"] + self.spacing
        while self.setups_left:
            self.set_up_again()
            self.setups_left -= 1
        if self.tracer is not None:
            self.tracer.uninstall()

    def _reference(self, i):
        if i < len(self.refs):
            self.ref_checked += 1
            return self.refs[i]
        return None

    def _check_loss(self, i, loss) -> bool:
        if not math.isfinite(loss):
            print(f"step {i}: non-finite loss {loss}", file=sys.stderr)
            return False
        ref = self._reference(i)
        if ref is not None and abs(loss - ref) > LOSS_RTOL * abs(ref):
            print(f"step {i}: loss {loss!r} differs from reference {ref!r}", file=sys.stderr)
            return False
        return True

    def _check_episode(self, i, reports) -> bool:
        accs = {s: r.per_episode_accuracy[0] for s, r in reports.items()
                if len(r.per_episode_accuracy) == 1}
        if len(accs) != len(reports) or not all(0.0 <= a <= 1.0 for a in accs.values()):
            print(f"episode {i}: accuracies {accs} out of range", file=sys.stderr)
            return False
        ref = self._reference(i)
        if ref is not None and accs != ref:
            print(f"episode {i}: accuracies {accs} differ from reference {ref}",
                  file=sys.stderr)
            return False
        return True


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile).
    The loop's MIN_MEASURED floor leaves more than 2 * TAIL_BEYOND samples."""
    s = sorted(values)
    n = len(s)
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def measured(ops: list[dict], traced=None) -> list[dict]:
    return [op for op in ops[WARMUP_OPS:] if traced is None or op["traced"] == traced]


def end_to_end(loop: Loop, setup_times: list[float]) -> tuple[dict, dict]:
    ops = measured(loop.ops)
    lat = [1e3 * (op["end"] - op["start"]) for op in ops]
    busy = sum(lat) / 1e3     # set-ups run between operations and are left out
    tail_ms, pct = tail(lat)
    values = {
        "setup_s": statistics.median(setup_times),
        "pairs_per_s": len(ops) * loop.state.pairs_per_op / busy,
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    detail = {"tail_percentile": pct, "tail_samples_beyond": TAIL_BEYOND,
              "samples": len(lat), "measured_s": busy, "latencies_ms": lat,
              "setup_times_s": setup_times}
    return values, detail


def layer_report(loop: Loop, tracer) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of the traced operations."""
    from spans import AUTODIFF_OPS, self_times
    spans = tracer.spans
    own = self_times(spans)
    traced_ops = [op["id"] for op in measured(loop.ops, traced=True)]
    per_op = {i: {} for i in traced_ops}          # op id -> key -> summed value
    setup: dict[str, dict] = {}                   # layer -> set-up id -> self time
    relation_bytes = []
    for span, ns in zip(spans, own):
        if isinstance(span.op, str):              # set-up span
            if span.kind == "layer":
                setup.setdefault(span.name, {}).setdefault(span.op, 0)
                setup[span.name][span.op] += ns
            continue
        acc = per_op.get(span.op)
        if acc is None:
            continue
        keys = [(span.kind, span.name)]
        if span.kind == "layer" and span.layer:
            keys.append(("layer", f"{span.name}@{span.layer}"))
        if span.kind == "vjp":
            keys += [("vjp_layer", span.layer), ("vjp_all", "")]
        for key in keys:
            slot = acc.setdefault(key, [0, 0, 0, 0])  # ns, calls, items, bytes
            slot[0] += ns
            slot[1] += 1
            slot[2] += span.items or 0
            slot[3] += span.nbytes or 0
        if span.name == "conditional" and span.kind == "layer":
            relation_bytes.append(span.nbytes)

    def med(kind, name, field):
        return statistics.median(acc.get((kind, name), (0, 0, 0, 0))[field]
                                 for acc in per_op.values()) if per_op else 0.0

    values: dict[str, float] = {}
    units: dict[str, str] = {}
    for metric, name, stat, unit in LAYER_METRICS:
        units[metric] = unit
        if stat == "self":
            values[metric] = med("layer", name, 0) / 1e6
        elif stat == "items":
            values[metric] = med("layer", name, 2)
        elif stat == "bytes_per_call":
            values[metric] = statistics.median(relation_bytes) / 1e6 if relation_bytes else 0.0
        else:
            scale = 1e9 if unit == "s" else 1e6
            times = list(setup.get(name, {}).values())
            values[metric] = statistics.median(times) / scale if times else 0.0
    for op in AUTODIFF_OPS:
        values[f"autodiff.{op}.fwd_ms"] = med("op", op, 0) / 1e6
        values[f"autodiff.{op}.bwd_ms"] = med("vjp", op, 0) / 1e6
        values[f"autodiff.{op}.calls"] = med("op", op, 1)
        values[f"autodiff.{op}.out_mb"] = med("op", op, 3) / 1e6
        units.update({f"autodiff.{op}.fwd_ms": "ms", f"autodiff.{op}.bwd_ms": "ms",
                      f"autodiff.{op}.calls": "count", f"autodiff.{op}.out_mb": "MB"})
    for layer in ("backbone", "conditional", "rerepresent", "training.loss"):
        values[f"{layer}.bwd_ms"] = med("vjp_layer", layer, 0) / 1e6
        units[f"{layer}.bwd_ms"] = "ms"
    # backward's own work: graph walk and gradient accumulation, without the vjps
    values["autodiff.backward.self_ms"] = statistics.median(
        acc.get(("layer", "autodiff.backward"), (0,))[0] - acc.get(("vjp_all", ""), (0,))[0]
        for acc in per_op.values()) / 1e6 if per_op else 0.0
    units["autodiff.backward.self_ms"] = "ms"
    on = [1e3 * (op["end"] - op["start"]) for op in measured(loop.ops, traced=True)]
    off = [1e3 * (op["end"] - op["start"]) for op in measured(loop.ops, traced=False)]
    p50_on, p50_off = statistics.median(on), statistics.median(off)
    values["trace.overhead"] = 100.0 * (p50_on / p50_off - 1.0)
    units["trace.overhead"] = "%"
    detail = {"traced_ops": len(on), "untraced_ops": len(off),
              "traced_p50_ms": p50_on, "untraced_p50_ms": p50_off}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, detail


def layer_table(name: str, layers: dict, detail: dict) -> list[str]:
    """Human-readable per-layer table, with the ROADMAP baseline figures
    beside the measured ones they can be compared with."""
    kind = WORKLOADS[name]["kind"]
    p50 = detail["traced_p50_ms"]
    op_word = "step" if kind == "train" else "episode"

    def v(key):
        return layers[key]["value"]

    lines = [f"per-layer, median over {detail['traced_ops']} traced {op_word}s "
             f"(traced p50 {p50:.1f} ms, untraced p50 {detail['untraced_p50_ms']:.1f} ms, "
             f"overhead {v('trace.overhead'):+.1f}%)",
             f"{'metric':34s} {'value':>12s} unit   share of {op_word}"]
    for key, entry in layers.items():
        if v(key) == 0.0:
            continue                                   # layer or op not run here
        share = f"{100 * v(key) / p50:6.1f}%" if entry["unit"] == "ms" and \
            not key.startswith("io.") else ""
        lines.append(f"{key:34s} {v(key):12.4f} {entry['unit']:6s} {share}")
    missing = [m for m, *_ in LAYER_METRICS if layers[m]["value"] == 0.0]
    if missing:
        lines.append(f"not run on {name}: {', '.join(missing)}")
    if kind == "train":
        bb = v("backbone.fwd_ms") + v("backbone.bwd_ms")
        head = v("conditional.fwd_ms") + v("conditional.bwd_ms") \
            + v("rerepresent.self_ms") + v("rerepresent.bwd_ms")
        lines += ["ROADMAP baseline check:",
                  f"  AdamW step          {v('optim.step_ms'):9.2f} ms   ROADMAP: ~30 ms",
                  f"  backbone fwd+bwd    {bb:9.2f} ms = {100 * bb / p50:5.1f}% of the step"
                  f"   ROADMAP: ~75%",
                  f"  conditional + head  {head:9.2f} ms fwd+bwd   ROADMAP: ~35 ms"]
    else:
        lines += ["ROADMAP baseline check:",
                  f"  episode p50         {detail['untraced_p50_ms']:9.2f} ms untraced"
                  f"   ROADMAP: ~130 ms"]
    return lines


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    pin_blas()
    c = load_condrep()
    tracer = None
    if args.trace:
        sys.path.insert(0, str(BENCH_DIR))
        from spans import Tracer
        tracer = Tracer(c)
    env = environment()
    name, wl = args.workload, WORKLOADS[args.workload]
    refs_all = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    refs = refs_all.get(name, {}).get(str(args.seed))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    ckpt = OUT_DIR / f"{stem}-{os.getpid()}.ckpt"

    setup_times: list[float] = []

    def timed_set_up():
        if tracer is not None:
            tracer.op = f"setup-{len(setup_times)}"
            tracer.install()
        gc.collect()    # garbage left by earlier work is not set-up work
        t0 = time.perf_counter()
        st = set_up(c, name, args.seed, ckpt)
        setup_times.append(time.perf_counter() - t0)
        return st

    # The loop runs on the first set-up and repeats the others as it goes.
    state = timed_set_up()
    loop = Loop(c, name, args.seed, state, tracer, refs or [], timed_set_up)
    loop.run(args.seconds)
    ckpt.unlink()

    attempted = len(loop.ops)
    failed = sum(not op["ok"] for op in loop.ops)
    values, detail = end_to_end(loop, setup_times)
    record = {"workload": name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, **{k: wl[k] for k in ("why", "overrides")},
              "loop": "closed, 1 client", "op": "training step" if wl["kind"] == "train"
              else "evaluation episode", "environment": env, "attempted": attempted,
              "failed": failed, "failed_fraction": failed / attempted,
              "reference_checked_ops": loop.ref_checked}
    op_word = "step" if wl["kind"] == "train" else "episode"
    print(f"workload {name} seed {args.seed} trace {args.trace}: {wl['why']}")
    print(f"closed loop, 1 client; one op = one {op_word}; overrides {wl['overrides']}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if refs is None:
        print(f"note: no reference outputs for seed {args.seed}; outputs checked for "
              f"finiteness and range only")
    print(f"failed_fraction {failed / attempted:.4f} ({failed} of {attempted} ops, "
          f"{loop.ref_checked} checked against references)")

    if args.trace:
        layers, ldetail = layer_report(loop, tracer)
        table = layer_table(name, layers, ldetail)
        print("\n".join(table))
        spans_path = OUT_DIR / f"{stem}-spans.jsonl"
        tracer.write_jsonl(spans_path)
        (OUT_DIR / f"{stem}-layers.txt").write_text("\n".join(table) + "\n")
        record.update(layers=layers, trace_detail=ldetail, spans=spans_path.name)
        metrics = {k: layers[k] for k in PER_LAYER}
    else:
        aliases = {"pairs_per_s": "pairs_per_s",
                   "latency_p50_ms": f"{op_word}_p50_ms",
                   "latency_tail_ms": f"{op_word}_tail_ms"}
        ops_per_s = detail["samples"] / detail["measured_s"]
        for key, unit in END_TO_END.items():
            print(f"{key:16s} {values[key]:14.4f} {unit:5s} {aliases.get(key, '')}")
        print(f"{op_word}s_per_s {ops_per_s:.4f} 1/s; tail is p{detail['tail_percentile']:.1f} "
              f"with {detail['tail_samples_beyond']} of {detail['samples']} samples beyond")
        record.update(end_to_end=values, detail=detail)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
