"""Pair sampling, contrastive loss, and the training loop."""
import os
import platform
import resource
import subprocess
import sys
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

from condrep import autodiff as ad
from condrep import training
from condrep.autodiff import Tensor, backward
from condrep.cli import main
from condrep.data import DatasetConfig, build_dataset
from condrep.exceptions import (ConfigError, ContractError, DataError, DimensionError,
                                NonFiniteLossError)
from condrep.model import Model, ModelConfig
from condrep.optim import AdamW
from condrep.rerepresent import re_represent_pair
from condrep.training import (TrainConfig, batch_loss, contrastive_loss,
                              pair_distance, sample_pair_batch, train, train_epoch)
from referees import fd_gradient_oracle, max_relative_error


def intermediates(loss):
    """The graph node of every tensor an op made on the way to ``loss``,
    ``loss`` excluded."""
    seen, stack = {}, [p for p, _ in loss._edges]
    while stack:
        node = stack.pop()
        if node._edges and id(node) not in seen:
            seen[id(node)] = node
            stack.extend(p for p, _ in node._edges)
    return list(seen.values())


def holds_tensor(obj, seen=None) -> bool:
    """Whether ``obj`` is a Tensor or reaches one through the cells and
    defaults of a function, or the items of a list, tuple or dict."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return False
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        return True
    if isinstance(obj, types.FunctionType):
        inner = list(obj.__defaults__ or ()) + list((obj.__kwdefaults__ or {}).values())
        for cell in obj.__closure__ or ():
            try:
                inner.append(cell.cell_contents)
            except ValueError:   # a cell not yet bound
                pass
    elif isinstance(obj, (list, tuple)):
        inner = list(obj)
    elif isinstance(obj, dict):
        inner = list(obj.values())
    else:
        return False
    return any(holds_tensor(o, seen) for o in inner)


def tiny_dataset(seed=0, n_classes=3):
    return build_dataset(DatasetConfig(seed=seed, n_classes=n_classes, image_size=16,
                                       support_per_class=4, query_per_class=6))


def tiny_model(structure="siamese", seed=0):
    cfg = ModelConfig(image_size=16, feature_side=2, feature_channels=8, structure=structure)
    return Model.init(cfg, seed=seed)


class TestPairBatch:
    def test_default_batch_is_half_positive(self):
        ds = tiny_dataset()
        batch = sample_pair_batch(ds, 80, np.random.default_rng(0))
        assert batch.same_class.sum() == 40
        assert len(batch.same_class) == 80

    def test_batch_of_one_is_positive(self):
        batch = sample_pair_batch(tiny_dataset(), 1, np.random.default_rng(1))
        assert batch.same_class.sum() == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_positive_count_invariant(self, seed):
        ds = tiny_dataset()
        rng = np.random.default_rng(seed)
        for b in range(1, 101, 7):
            batch = sample_pair_batch(ds, b, rng)
            assert batch.same_class.sum() == int(np.ceil(b / 2)), b

    def test_single_class_rejected(self):
        ds = tiny_dataset(n_classes=1)
        with pytest.raises(DataError, match="pair batches need n_classes >= 2, the pools hold 1"):
            sample_pair_batch(ds, 4, np.random.default_rng(0))

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_non_positive_batch_size_rejected(self, batch_size):
        with pytest.raises(ContractError, match=f"batch size must be positive, got {batch_size}"):
            sample_pair_batch(tiny_dataset(), batch_size, np.random.default_rng(0))

    def test_determinism(self):
        ds = tiny_dataset()
        a = sample_pair_batch(ds, 8, np.random.default_rng(3), augment="randaugment")
        b = sample_pair_batch(ds, 8, np.random.default_rng(3), augment="randaugment")
        assert np.array_equal(a.support_images, b.support_images)
        assert np.array_equal(a.query_images, b.query_images)


class TestPairDistance:
    def test_identical_vectors(self):
        assert pair_distance(Tensor([1.0, 2.0]), Tensor([1.0, 2.0])).item() == 0.0

    def test_unit_offset(self):
        assert pair_distance(Tensor([1.0, 0.0]), Tensor([0.0, 0.0])).item() == 1.0

    def test_three_four_five(self):
        assert pair_distance(Tensor([1.0, 2.0]), Tensor([4.0, 6.0])).item() == 25.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            pair_distance(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


class TestContrastiveLoss:
    def test_positive_pair_at_zero_distance_contributes_nothing(self):
        loss = contrastive_loss(Tensor([0.0]), [True])
        assert loss.item() == 0.0

    def test_saturated_negative_contributes_nothing(self):
        loss = contrastive_loss(Tensor([4.0]), [False], margin=1.0)
        assert loss.item() == 0.0

    def test_hand_evaluated_mixed_batch(self):
        loss = contrastive_loss(Tensor([0.25, 0.25]), [True, False], margin=1.0)
        np.testing.assert_allclose(loss.item(), 0.25, atol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            contrastive_loss(Tensor(np.zeros(0)), [])

    def test_negative_distance_rejected(self):
        with pytest.raises(ContractError):
            contrastive_loss(Tensor([-0.1]), [True])

    @pytest.mark.parametrize("distances, labels", [([0.5, 0.5], [True]),
                                                   ([0.5], [True, False]),
                                                   ([[0.5, 0.5]], [True, False])])
    def test_distances_and_labels_of_different_shapes_rejected(self, distances, labels):
        with pytest.raises(DimensionError, match="distances vs"):
            contrastive_loss(Tensor(distances), labels)

    def test_nonnegative_and_zero_iff_satisfied(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.uniform(0, 4, size=6)
            y = rng.integers(0, 2, size=6).astype(bool)
            val = contrastive_loss(Tensor(d), y, margin=1.0).item()
            assert val >= 0.0
            satisfied = np.all(d[y] == 0) and np.all(np.sqrt(d[~y]) >= 1.0)
            assert (val == 0.0) == bool(satisfied)

    def test_gradient_wrt_representation_matches_fd(self):
        rng = np.random.default_rng(1)
        fq = Tensor(rng.normal(size=(4, 6)))
        y = [True, False, True, False]

        def f(t):
            return contrastive_loss(pair_distance(t, fq), y, margin=2.0)

        fs = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        backward(f(fs))
        assert max_relative_error(fs.grad, fd_gradient_oracle(f, fs)) < 1e-4

    def test_non_positive_margin_rejected(self):
        with pytest.raises(ConfigError, match="margin"):
            contrastive_loss(Tensor([1.0]), [True], margin=0.0)


class TestBatchLoss:
    """batch_loss maps each distinct image once; the full batch is the referee.
    At 32 px every conv gemm is large enough for BLAS to round each image's
    rows the same in any batch; at toy sizes a small gemm can differ by 1 ulp."""

    @staticmethod
    def repeated_batch():
        ds = build_dataset(DatasetConfig(seed=0, n_classes=3, support_per_class=4,
                                         query_per_class=6))
        batch = sample_pair_batch(ds, 12, np.random.default_rng(4), augment="randaugment")
        for dst, src in ((3, 0), (5, 0), (7, 2), (11, 9)):
            batch.support_images[dst] = batch.support_images[src]
        batch.query_images[10] = batch.query_images[1]
        return batch

    @staticmethod
    def loss_and_grads(model, loss):
        for p in model.parameters().values():
            p.grad = None
        backward(loss)
        return loss.item(), {k: p.grad.copy() for k, p in model.parameters().items()}

    def test_matches_full_batch_forward(self):
        model, batch = Model.init(ModelConfig(), seed=3), self.repeated_batch()
        f_s, f_q = re_represent_pair(model.features(batch.support_images),
                                     model.features(batch.query_images), model)
        ref, ref_grads = self.loss_and_grads(
            model, contrastive_loss(pair_distance(f_s, f_q), batch.same_class))
        value, grads = self.loss_and_grads(model, batch_loss(model, batch, 1.0))
        assert value == ref
        for k, g in grads.items():
            assert np.abs(g - ref_grads[k]).max() <= 1e-12 * np.abs(ref_grads[k]).max(), k

    def test_backbone_runs_once_per_distinct_image(self, monkeypatch):
        model, batch = Model.init(ModelConfig(), seed=0), self.repeated_batch()
        seen = []
        features = Model.features
        monkeypatch.setattr(Model, "features",
                            lambda self, images: seen.append(len(images)) or
                            features(self, images))
        batch_loss(model, batch, 1.0)
        distinct = [len({im.tobytes() for im in imgs})
                    for imgs in (batch.support_images, batch.query_images)]
        assert seen == distinct
        assert sum(seen) < 2 * len(batch.same_class)

    def test_gather_is_an_index_axis_node(self):
        model, batch = Model.init(ModelConfig(), seed=0), self.repeated_batch()
        maps = training._distinct_features(model, batch.support_images)
        ((distinct, vjp),) = maps._edges
        assert vjp.__qualname__.split(".")[0] == "index_axis"
        assert distinct.shape[0] < maps.shape[0] == len(batch.support_images)


class TestTrainLoop:
    def test_zero_learning_rate_keeps_parameters_bit_identical(self):
        ds = tiny_dataset()
        model = tiny_model()
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        cfg = TrainConfig(epochs=1, batch_size=4, batches_per_epoch=2,
                          learning_rate=0.0, weight_decay=0.0)
        opt = AdamW(model.parameters(), lr=0.0, weight_decay=0.0)
        train_epoch(ds, model, opt, cfg, np.random.default_rng(0))
        for k, v in model.parameters().items():
            assert np.array_equal(before[k], v.data), k

    def test_same_seed_gives_identical_trajectory(self):
        ds = tiny_dataset()
        cfg = TrainConfig(epochs=3, batch_size=6, batches_per_epoch=1)
        h1 = train(ds, tiny_model(seed=2), cfg, seed=5)
        h2 = train(ds, tiny_model(seed=2), cfg, seed=5)
        assert h1 == h2

    def test_one_step_changes_every_trainable_tensor(self):
        ds = tiny_dataset()
        model = tiny_model()
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        cfg = TrainConfig(epochs=1, batch_size=8, batches_per_epoch=1)
        train(ds, model, cfg, seed=0)
        for k, v in model.parameters().items():
            assert not np.array_equal(before[k], v.data), k

    def test_loss_decreases_on_tiny_run(self):
        ds = tiny_dataset(seed=3)
        cfg = TrainConfig(epochs=12, batch_size=16, batches_per_epoch=2,
                          learning_rate=3e-3)
        history = train(ds, tiny_model(seed=4), cfg, seed=1)
        assert history[-1] < history[0]

    def test_nan_abort_names_batch(self):
        ds = tiny_dataset()
        model = tiny_model()
        model.rerep["final.w2"].data[:] = np.nan
        cfg = TrainConfig(epochs=1, batch_size=4)
        opt = AdamW(model.parameters())
        with pytest.raises(NonFiniteLossError, match="batch 0"):
            train_epoch(ds, model, opt, cfg, np.random.default_rng(0))

    @staticmethod
    def poison_gradients(monkeypatch, params_of, poisoned):
        """Make ``training.backward`` run the real backward, then write one
        non-finite value into the gradient of each named parameter."""
        def backward_then_poison(loss):
            backward(loss)
            params = params_of()
            for name, value in poisoned.items():
                g = np.array(params[name].grad)
                g.flat[0] = value
                params[name].grad = g
        monkeypatch.setattr(training, "backward", backward_then_poison)

    def test_non_finite_gradient_names_first_parameter(self, monkeypatch):
        ds = tiny_dataset()
        model = tiny_model()
        names = list(model.parameters())
        self.poison_gradients(monkeypatch, model.parameters,
                              {names[-1]: np.nan, names[3]: np.inf})
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        opt = AdamW(model.parameters())
        with pytest.raises(NonFiniteLossError, match=f"gradient of '{names[3]}' at batch 0"):
            train_epoch(ds, model, opt, TrainConfig(epochs=1, batch_size=4),
                        np.random.default_rng(0))
        assert opt.step_count == 0
        for k, v in model.parameters().items():
            assert np.array_equal(before[k], v.data), k

    def test_non_finite_gradient_exits_3_without_traceback(self, tmp_path, monkeypatch, capsys):
        models, real_init = [], Model.init

        def init_and_keep(config=None, seed=0):
            models.append(real_init(config, seed))
            return models[-1]
        monkeypatch.setattr(Model, "init", init_and_keep)
        self.poison_gradients(monkeypatch, lambda: models[0].parameters(),
                              {"conditional.bias": np.nan})
        rc = main(["train", "--out", str(tmp_path), "--image-size", "16",
                   "--feature-channels", "8", "--feature-side", "2", "--n-classes", "3",
                   "--support-per-class", "4", "--query-per-class", "6",
                   "--epochs", "1", "--batch-size", "4", "--batches-per-epoch", "1"])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert "Traceback" not in err
        assert "error: training aborted: non-finite gradient of 'conditional.bias'" in err
        assert not (tmp_path / "checkpoint.txt").exists()

    def test_each_batch_graph_is_freed_before_the_next_is_built(self, monkeypatch):
        # a graph kept across batches holds all its activations and gradients
        # while the next batch's forward runs (two default epochs peaked at
        # 363 MB instead of 246 MB). Graph nodes hold no data, so the check
        # watches the arrays of every op output the forward made (the loss's
        # aside, which the loop still holds) and every vjp on the graph
        made, watched = [], []
        real_make, real_batch_loss = ad._make, training.batch_loss

        def spy(out_data, edges):
            out = real_make(out_data, edges)
            made.append(out.data)
            return out

        def tracked_batch_loss(model, batch, cfg):
            assert all(ref() is None for ref in watched), "an earlier batch's graph is alive"
            loss = real_batch_loss(model, batch, cfg)
            watched.extend(weakref.ref(a) for a in made if a is not loss.data)
            watched.extend(weakref.ref(vjp) for node in intermediates(loss)
                           for _, vjp in node._edges)
            made.clear()
            return loss
        monkeypatch.setattr(ad, "_make", spy)
        monkeypatch.setattr(training, "batch_loss", tracked_batch_loss)
        model = tiny_model()
        train_epoch(tiny_dataset(), model, AdamW(model.parameters()),
                    TrainConfig(epochs=1, batch_size=4, batches_per_epoch=3),
                    np.random.default_rng(0))
        assert all(ref() is None for ref in watched)
        assert len(watched) > 3 * 40

    def test_lr_schedule_drops_every_20_epochs(self):
        cfg = TrainConfig()
        drops = [cfg.learning_rate * cfg.lr_drop_factor ** (e // cfg.lr_drop_every)
                 for e in (0, 19, 20, 39, 40)]
        np.testing.assert_allclose(drops, [1e-3, 1e-3, 5e-4, 5e-4, 2.5e-4])

    # a negative count was read as 0 ("derive from the pool") or as "never
    # drop"; a factor of -0.5 made the step learning rate negative on odd
    # drops, and 0 froze training
    @pytest.mark.parametrize("field,value", [
        ("batches_per_epoch", -1), ("lr_drop_every", -1), ("lr_drop_factor", -0.5),
        ("lr_drop_factor", 0.0), ("lr_drop_factor", 1.5), ("lr_drop_factor", float("nan"))])
    def test_bad_schedule_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value}).validate()

    # 0 derives the count from the support pool, 12 samples in tiny_dataset
    @pytest.mark.parametrize("batches,batch_size,expected", [
        (7, 4, 7), (0, 4, 3), (0, 5, 3), (0, 11, 2), (0, 12, 1), (0, 80, 1)])
    def test_batches_per_epoch_resolves(self, batches, batch_size, expected):
        cfg = TrainConfig(batch_size=batch_size, batches_per_epoch=batches)
        assert cfg.resolved_batches(tiny_dataset()) == expected

    # a NaN passed every comparison: `train --learning-rate nan` wrote a
    # checkpoint of NaN parameters (1 epoch) or aborted as a non-finite loss,
    # exit 3 (2 epochs); an infinite margin made every hinge active forever
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay", "margin"])
    def test_non_finite_rate_or_margin_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value}).validate()

    def test_unknown_augment_rejected(self):
        # it passed validation and failed only in the first sample_pair_batch
        with pytest.raises(ConfigError, match="augment mode 'cutmix'"):
            TrainConfig(augment="cutmix").validate()

    @pytest.mark.parametrize("flag", ["learning-rate", "weight-decay", "margin"])
    def test_non_finite_rate_or_margin_exits_2(self, tmp_path, capsys, flag):
        rc = main(["train", "--out", str(tmp_path), "--image-size", "16",
                   "--feature-channels", "8", "--feature-side", "2", "--n-classes", "3",
                   "--support-per-class", "4", "--query-per-class", "6", "--epochs", "1",
                   "--batch-size", "4", "--batches-per-epoch", "1", f"--{flag}", "nan"])
        assert rc == 2
        assert flag.replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "checkpoint.txt").exists()

    def test_bad_schedule_exits_2_without_traceback(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "condrep.cli", "train", "--out", str(tmp_path),
             "--image-size", "16", "--feature-channels", "8", "--feature-side", "2",
             "--n-classes", "3", "--support-per-class", "4", "--query-per-class", "6",
             "--epochs", "1", "--batch-size", "4", "--lr-drop-factor=-0.5"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error: config: lr_drop_factor must be finite and > 0 and <= 1, got -0.5" \
            in proc.stderr
        assert not (tmp_path / "checkpoint.txt").exists()


def default_batch_memory():
    """Bytes a default-config batch's forward leaves alive, and the peak of its
    backward, both above what was allocated before the forward."""
    model = Model.init(ModelConfig(), seed=0)
    batch = sample_pair_batch(build_dataset(DatasetConfig()), 80, np.random.default_rng(0),
                              augment="randaugment")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = batch_loss(model, batch, 1.0)
        live = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return live, peak


def test_backward_peak_stays_near_the_forward_live_memory():
    # backward frees each node's activations, closures and gradient as its
    # walk passes it; when it kept them all to the end, a default batch's
    # backward peaked at 1.58x the memory the forward left alive (206 vs
    # 131 MB); now 1.04x (35.8 vs 34.5 MB). The conv keeps no im2col matrix
    # between forward and backward (keeping it read 99.9 MB live), and the
    # graph keeps only the arrays its vjps read (keeping every op output's
    # array until backward read 60.1 MB live)
    live, peak = default_batch_memory()
    assert 25e6 < live < 45e6, live
    assert peak <= 1.15 * live, (peak, live)


def test_forward_keeps_no_block_norm_or_relu_output():
    # each backbone block keeps the normalized input, a per-position inverse
    # deviation and a 1-byte relu mask for backward, and the next block's
    # conv keeps its input: 34.5 MB live on this batch (139 distinct
    # images). Keeping the blocks' norm or relu outputs as well adds 15.9 MB
    # each, and keeping their conv outputs 15.4 MB
    live, _peak = default_batch_memory()
    assert live < 42e6, live


def test_no_vjp_holds_a_tensor():
    # a vjp that captures a Tensor, even only to read its shape, keeps the
    # tensor's array alive until backward; every vjp keeps arrays and shapes
    model = Model.init(ModelConfig(), seed=0)
    batch = sample_pair_batch(build_dataset(DatasetConfig()), 8, np.random.default_rng(0))
    loss = batch_loss(model, batch, 1.0)
    vjps = [vjp for node in [loss._node] + intermediates(loss) for _, vjp in node._edges]
    assert len(vjps) > 100
    assert not [vjp.__qualname__ for vjp in vjps if holds_tensor(vjp)]


def test_block_conv_outputs_are_freed_before_backward(monkeypatch):
    # norm_relu_pool keeps the normalized input, not the conv output it
    # normalizes, and the graph holds nodes, not tensors, so each block's
    # conv output dies with the forward
    outputs, real_conv2d = [], ad.conv2d

    def conv2d(*args, **kwargs):
        out = real_conv2d(*args, **kwargs)
        outputs.extend(weakref.ref(a) for a in (out.data, out.data.base) if a is not None)
        return out
    monkeypatch.setattr(ad, "conv2d", conv2d)
    model = Model.init(ModelConfig(), seed=0)
    batch = sample_pair_batch(build_dataset(DatasetConfig()), 8, np.random.default_rng(0))
    loss = batch_loss(model, batch, 1.0)
    assert len(outputs) == 2 * 2 * len(model.config.blocks)   # support, query
    assert all(ref() is None for ref in outputs)
    backward(loss)
    assert all(p.grad is not None for p in model.parameters().values())


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is set through glibc's mallopt")
def test_training_step_reuses_freed_heap_pages():
    # without the policy glibc returns a step's freed temporaries to the OS
    # and the next step faults them in again: ~20k minor faults per step
    assert ad._MALLOPT_RESULTS == (1, 1)
    ds = build_dataset(DatasetConfig())
    model = Model.init(ModelConfig(), seed=0)
    cfg = TrainConfig(epochs=1, batches_per_epoch=1)
    assert (cfg.batch_size, model.config.image_size) == (80, 32)
    opt = AdamW(model.parameters())
    rng = np.random.default_rng(0)
    # every step replays one batch, so the warm-up steps reach the heap's
    # high-water mark and a measured step cannot fault in pages for a batch
    # larger than any before it
    state = rng.bit_generator.state

    def step():
        rng.bit_generator.state = state
        train_epoch(ds, model, opt, cfg, rng)
    for _ in range(2):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000, f"{faults} minor page faults in 3 training steps"
