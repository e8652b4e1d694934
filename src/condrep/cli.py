"""Command-line front-end.

Subcommands: gen-data, train, eval, export-embeddings, plot.
Exit codes: 0 success, 2 invalid config/data/shape, 3 training aborted on a
non-finite loss or gradient. The CONDREP_OUTDIR environment variable
overrides the default output directory.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import evaluate, io as cio
from .data import build_dataset, export_pools, load_pools
from .exceptions import (ConfigError, ContractError, DataError, DimensionError,
                         NonFiniteLossError, StateError)
from .model import Model
from .plots import accuracy_bars_svg, loss_curve_svg
from .training import train


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("CONDREP_OUTDIR") or "runs"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _common_config(args) -> tuple[dict[str, str], dict]:
    """The resolved, checked config and its typed values; before any output."""
    cfg = cio.resolve_config(args.config, {k: getattr(args, k) for k in cio.DEFAULT_CONFIG})
    return cfg, cio.config_values(cfg)


def _load_dataset(args, cfg):
    config = cio.dataset_config_from(cfg)
    return load_pools(args.data, config) if getattr(args, "data", None) else build_dataset(config)


def cmd_gen_data(args) -> int:
    cfg, _ = _common_config(args)
    dataset = build_dataset(cio.dataset_config_from(cfg))
    out = _out_dir(args)
    n = export_pools(dataset, out)
    print(f"wrote {n} samples under {out}")
    return 0


def cmd_train(args) -> int:
    cfg, v = _common_config(args)
    model_cfg, train_cfg = cio.model_config_from(cfg), cio.train_config_from(cfg)
    dataset = _load_dataset(args, cfg)
    cio.check_pools("pair batches", dataset)   # the last check before the output directory
    out = _out_dir(args)
    model = Model.init(model_cfg, seed=v["seed"])
    ckpt_path = out / "checkpoint.txt"
    every = v["checkpoint_every"]
    meta = {"seed": v["seed"], "config_hash": cio.config_hash(cfg)}

    def checkpoint_cb(epoch, loss, m):
        if every > 0 and (epoch + 1) % every == 0:
            cio.save_checkpoint(ckpt_path, m, {**meta, "epoch": epoch + 1})

    losses = train(dataset, model, train_cfg, seed=v["seed"],
                   epoch_callback=checkpoint_cb)
    cio.save_checkpoint(ckpt_path, model, {**meta, "epoch": train_cfg.epochs})
    cio.write_loss_csv(out / "loss.csv", losses)
    print(f"trained {train_cfg.epochs} epochs; first loss {losses[0]:.6f}, "
          f"last {losses[-1]:.6f}")
    print(f"checkpoint: {ckpt_path}")
    return 0


def _checkpoint_model(args, v) -> Model:
    """The ``--checkpoint`` model, whose image size must be the config's
    ``image_size``; call it before any output directory is made."""
    model, _meta = cio.model_from_checkpoint(args.checkpoint)
    size = model.config.backbone.input_size
    if size != v["image_size"]:
        raise DimensionError(f"{args.command}: checkpoint expects {size}-pixel images, config "
                             f"says {v['image_size']}; set image_size to {size} for "
                             f"{args.checkpoint}")
    return model


def cmd_eval(args) -> int:
    cfg, v = _common_config(args)
    model = _checkpoint_model(args, v)
    dataset = _load_dataset(args, cfg)
    baseline_model = None
    if args.with_baseline:
        # same init seed as training started from: the no-training counterfactual
        baseline_model = Model.init(model.config, seed=v["seed"])
    reports = evaluate.run_evaluation_suite(
        dataset, model, n_way=v["n_way"], k_shot=v["k_shot"], q_per_class=v["q_per_class"],
        n_episodes=v["episodes"], strategies=v["strategies"], seed=v["seed"],
        baseline_model=baseline_model)
    out = _out_dir(args)
    cio.write_accuracy_csv(out / "accuracy.csv", reports)
    cio.write_report_json(out / "report.json", reports, run_config=cfg)
    for name in sorted(reports):
        r = reports[name]
        print(f"{name}: {r.mean:.4f} +- {r.ci95:.4f} over {r.n_episodes} episodes")
    return 0


def cmd_export_embeddings(args) -> int:
    cfg, v = _common_config(args)
    model = _checkpoint_model(args, v)
    dataset = _load_dataset(args, cfg)
    pool = dataset.support if args.pool == "support" else dataset.query
    if not pool:
        raise DataError(f"export-embeddings: pool '{args.pool}' is empty")
    refs = {c: samples[0].image for c, samples in dataset.by_class("support").items()}
    slot = {c: i for i, c in enumerate(refs)}
    maps = evaluate._maps(np.stack([*refs.values(), *(s.image for s in pool)]), model)
    ref_maps, smp_maps = np.split(maps, [len(refs)])
    _fs, fq = evaluate._pair_vectors(model, ref_maps, np.array([slot[s.class_id] for s in pool]),
                                     smp_maps, np.arange(len(pool)))
    rows = [(s.sample_id, s.class_id, s.pool, rep, b)
            for s, rep, b in zip(pool, fq, smp_maps.mean(axis=(1, 2)))]
    path = _out_dir(args) / f"embeddings_{args.pool}.csv"
    cio.write_embeddings_csv(path, rows, channels=model.config.channels)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_plot(args) -> int:
    if not (args.loss_csv or args.accuracy_csv):
        raise ConfigError("plot: pass --loss-csv and/or --accuracy-csv")
    svgs = {}   # both CSVs are read and checked before the output directory
    if args.loss_csv:
        svgs["loss.svg"] = loss_curve_svg(args.loss_csv)
    if args.accuracy_csv:
        svgs["accuracy.svg"] = accuracy_bars_svg(args.accuracy_csv)
    out = _out_dir(args)
    for name, text in svgs.items():
        (out / name).write_text(text)
        print(f"wrote {out / name}")
    return 0


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", help="output directory (or CONDREP_OUTDIR)")
    for key, (kind, default, rng) in cio.CONFIG_TABLE.items():   # help shows the table row
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None,
                       help=(f"{kind} {rng}" if isinstance(rng, str) else
                             f"{kind}: {'/'.join(rng)}") + f" (default {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="condrep",
                                     description="conditional pair re-representation "
                                                 "for few-shot classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate and export the synthetic pools")
    _add_config_flags(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model; writes checkpoint and loss CSV")
    _add_config_flags(p)
    p.add_argument("--data", help="directory of exported pools (default: generate)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="episodic evaluation of a checkpoint")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="directory of exported pools (default: generate)")
    p.add_argument("--with-baseline", action="store_true",
                   help="also report the raw backbone-prototype baseline of an "
                        "untrained model on the same episodes")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-embeddings", help="dump representation vectors to CSV")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="directory of exported pools (default: generate)")
    p.add_argument("--pool", choices=("support", "query"), default="query")
    p.set_defaults(func=cmd_export_embeddings)

    p = sub.add_parser("plot", help="render SVG plots from CSV outputs")
    p.add_argument("--loss-csv")
    p.add_argument("--accuracy-csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NonFiniteLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ContractError, DataError, DimensionError, StateError,
            FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
