#!/usr/bin/env python3
"""Run every ``condrep`` subcommand once or more, in one process, at a tiny config.

    python3 tools/traffic.py
    python3 tools/untested_lines.py tools/traffic.py   # the src/ lines no command runs

The commands run in a temporary directory through ``condrep.cli.main``, at
16 px, a 2x2x8 grid, 3 classes, 2 epochs and 3 episodes:

* ``gen-data``;
* ``train`` for each structure and each augment mode, with
  ``--checkpoint-every 1``, with ``--batches-per-epoch 0``, on ``--data`` and
  with a ``--config`` file;
* ``eval`` at K=1 and K=2 with all four strategies and ``--with-baseline``;
* ``export-embeddings`` of both pools, with and without ``--data``;
* ``plot`` of a loss and an accuracy CSV;
* one set-up and two operations each of the ``train_default`` and
  ``eval_5w1s`` benchmark workloads (``bench/run.py``).

Each command's output is swallowed; one line per command goes to stderr. The
exit status is 0 when every command exited 0, else 1.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from condrep.cli import main as condrep_main  # noqa: E402
from condrep.config import AUGMENT_MODES, STRATEGIES, STRUCTURES  # noqa: E402

TINY = ["--image-size", "16", "--feature-side", "2", "--feature-channels", "8",
        "--n-classes", "3", "--support-per-class", "4", "--query-per-class", "6",
        "--epochs", "2", "--batch-size", "6", "--batches-per-epoch", "2",
        "--episodes", "3", "--n-way", "3", "--q-per-class", "3", "--seed", "1"]


def commands(tmp: Path) -> list[list[str]]:
    """The CLI calls, each one's inputs made by an earlier one. Every call but
    ``plot``, which takes no config, gets the ``TINY`` flags before its own."""
    data, ckpt = str(tmp / "data"), str(tmp / "train-0" / "checkpoint.txt")
    (tmp / "run.cfg").write_text("# a config file: key=value lines\nmargin = 0.5\n")
    trains = [["--structure", s] for s in STRUCTURES] + [["--augment", a] for a in AUGMENT_MODES]
    trains += [["--checkpoint-every", "1"], ["--batches-per-epoch", "0"], ["--data", data],
               ["--config", str(tmp / "run.cfg")]]
    out = [["gen-data", "--out", data]]
    out += [["train", "--out", str(tmp / f"train-{i}"), *flags] for i, flags in enumerate(trains)]
    out += [["eval", "--out", str(tmp / f"eval-{k}"), "--checkpoint", ckpt, "--k-shot", k,
             "--strategies", ",".join(STRATEGIES), "--with-baseline"] for k in ("1", "2")]
    out += [["export-embeddings", "--out", str(tmp / "emb"), "--checkpoint", ckpt,
             "--pool", pool, *source] for pool in ("support", "query")
            for source in ([], ["--data", data])]
    return out + [["plot", "--out", str(tmp / "plot"), "--loss-csv",
                   str(tmp / "train-0" / "loss.csv"), "--accuracy-csv",
                   str(tmp / "eval-2" / "accuracy.csv")]]


def bench_workloads(tmp: Path) -> None:
    """One set-up and two operations of ``train_default`` and ``eval_5w1s``."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    c = run.load_condrep()
    for name in ("train_default", "eval_5w1s"):
        state = run.set_up(c, name, 1, tmp / f"{name}.txt")
        for i in range(2):
            if name == "train_default":
                run.train_step(c, state)
            else:
                run.eval_episode(c, state, 1, i)
        print(f"bench {name}: set-up and 2 operations", file=sys.stderr)


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands(Path(tmp)):
            with contextlib.redirect_stdout(io.StringIO()):
                status = condrep_main(argv if argv[0] == "plot" else [argv[0], *TINY, *argv[1:]])
            failed += status != 0
            print(f"exit {status}: condrep {' '.join(argv).replace(tmp, '<tmp>')}",
                  file=sys.stderr)
        bench_workloads(Path(tmp))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
