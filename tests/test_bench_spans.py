"""The benchmark tracer's wrap points: ``bench/spans.py`` wraps condrep's
functions by name, so a refactor that moves a call past a wrap point would
silently miscount the traced run's pairs or drop an op from it."""
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from condrep import autodiff, data, evaluate, io, model, optim, rerepresent, training
from condrep.config import DEFAULT_CONFIG
from condrep.data import DatasetConfig, build_dataset
from condrep.model import Model
from condrep.training import TrainConfig, train_epoch

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
spans = pytest.importorskip("spans")

BATCH, N_WAY, Q_PER_CLASS = 6, 3, 2


@pytest.fixture(scope="module")
def traced():
    """Spans of one tiny training step, then of a tiny 1-episode suite with a
    baseline model, on the 16 px test model."""
    tracer = spans.Tracer(SimpleNamespace(autodiff=autodiff, data=data, evaluate=evaluate,
                                          io=io, model=model, optim=optim,
                                          rerepresent=rerepresent, training=training))
    cfg = io.model_config_from(dict(DEFAULT_CONFIG, image_size="16", feature_channels="8",
                                    feature_side="2"))
    net = Model.init(cfg, seed=0)
    dataset = build_dataset(DatasetConfig(seed=0, n_classes=3, image_size=16,
                                          support_per_class=4, query_per_class=6))
    tc = TrainConfig(batch_size=BATCH, batches_per_epoch=1)
    opt = optim.AdamW(net.parameters(), lr=tc.learning_rate)
    tracer.install()
    try:
        train_epoch(dataset, net, opt, tc, np.random.default_rng(0))
        n_train = len(tracer.spans)
        evaluate.run_evaluation_suite(dataset, net, n_way=N_WAY, q_per_class=Q_PER_CLASS,
                                      n_episodes=1, baseline_model=Model.init(cfg, seed=1))
    finally:
        tracer.uninstall()
    return tracer.spans, n_train


def pairs(traced, phase, name, parent=None):
    """Pairs the ``name`` layer spans of the training step or of the suite
    report, optionally only those called from a ``parent`` layer."""
    all_spans, n_train = traced
    part = all_spans[:n_train] if phase == "train" else all_spans[n_train:]
    return sum(s.items for s in part if s.kind == "layer" and s.name == name
               and (parent is None or all_spans[s.parent].name == parent))


def test_train_step_counts_its_pairs(traced):
    assert pairs(traced, "train", "conditional") == BATCH
    assert pairs(traced, "train", "rerepresent") == BATCH


def test_episode_counts_its_pairs(traced):
    episode_pairs = N_WAY * (N_WAY * Q_PER_CLASS)   # each support with each query
    assert pairs(traced, "eval", "conditional") == episode_pairs
    assert pairs(traced, "eval", "rerepresent", parent="evaluate.features") == episode_pairs


def test_every_listed_op_is_seen(traced):
    seen = {s.name for s in traced[0] if s.kind == "op"}
    assert set(spans.AUTODIFF_OPS) <= seen, set(spans.AUTODIFF_OPS) - seen


def test_train_step_times_a_vjp_for_every_op_it_traced(traced):
    # the tracer wraps each traced op's edges by assigning to ``out._edges``;
    # an op whose vjps it could not reach would show no backward time
    train = traced[0][:traced[1]]
    ops = {s.name for s in train if s.kind == "op"}
    vjps = {s.name for s in train if s.kind == "vjp"}
    assert ops == vjps, ops ^ vjps
