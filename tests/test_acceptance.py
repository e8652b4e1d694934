"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The two end-to-end
criteria train models at the default configuration and evaluate 600
episodes, so this module takes several minutes in total.
"""
import time

import numpy as np
import pytest

from condrep import autodiff as ad
from condrep.autodiff import Tensor, backward
from condrep.cli import main as cli_main
from condrep.conditional import ConvKernel4D, conditional_forward
from condrep.data import DatasetConfig, build_dataset
from condrep.evaluate import (EvalReport, classify_query, episode_features,
                              run_evaluation_suite, sample_episode)
from condrep.model import Model, ModelConfig
from condrep.rerepresent import re_represent_pair
from condrep.training import TrainConfig, contrastive_loss, pair_distance, train
from referees import (build_relation_tensor, conditional_matrices, conv4d_oracle,
                      fd_gradient_oracle, max_relative_error, measure_rule)

GRAD_TOL = 1e-4
FD_STEP = 1e-3


def _report(criterion: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {criterion}: {description}{suffix}")
    assert ok, f"criterion {criterion}: {description}{suffix}"


def small_model(structure="siamese", seed=0):
    cfg = ModelConfig(image_size=16, feature_side=2, feature_channels=8, structure=structure)
    return Model.init(cfg, seed=seed)


def small_dataset(seed=0):
    return build_dataset(DatasetConfig(seed=seed, n_classes=6, image_size=16,
                                       support_per_class=6, query_per_class=18))


# ---------------------------------------------------------------------------
# criterion 1: gradient suite
# ---------------------------------------------------------------------------

def _grad_check(f, x):
    x.grad = None
    loss = f(x)
    backward(loss)
    fd = fd_gradient_oracle(f, x, step=FD_STEP)
    return max_relative_error(x.grad, fd)


def test_criterion_1_gradient_suite():
    start = time.time()
    rng_master = np.random.default_rng(0)
    worst = 0.0

    def sq(t):
        return ad.sum_along(ad.mul(t, t))

    unary = {
        "relu": lambda t: sq(ad.relu(t)),
        "softmax_lastdim": lambda t: sq(ad.softmax_lastdim(t)),
        "reshape": lambda t: sq(ad.reshape(t, (t.size,))),
        "permute": lambda t: sq(ad.permute(t, tuple(reversed(range(t.ndim))))),
        "mean": lambda t: sq(ad.mean(t, axis=0)),
        "sum_along": lambda t: sq(ad.sum_along(t, axis=-1)),
        "sqrt": lambda t: sq(ad.sqrt(ad.add(ad.mul(t, t), 0.3))),
        "index_axis": lambda t: sq(ad.index_axis(t, 0, 1)),
    }
    for name, f in unary.items():
        for seed in range(5):
            rng = np.random.default_rng(seed)
            shape = tuple(rng.integers(2, 5, size=2))
            x = Tensor(rng.normal(size=shape), requires_grad=True)
            worst = max(worst, _grad_check(f, x))

    for seed in range(5):
        rng = np.random.default_rng(10 + seed)
        other = Tensor(rng.normal(size=(3, 4)))
        for f in (lambda t: sq(ad.add(t, other)),
                  lambda t: sq(ad.mul(t, other)),
                  lambda t: sq(ad.sub(other, t)),
                  lambda t: sq(ad.concat([t, other], axis=0))):
            x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            worst = max(worst, _grad_check(f, x))
        b = Tensor(rng.normal(size=(4, 3)))
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        worst = max(worst, _grad_check(lambda t: sq(ad.matmul(t, b)), x))
        xb = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        worst = max(worst, _grad_check(lambda t: sq(ad.matmul(t, b)), xb))
        gamma = Tensor(rng.normal(size=4))
        beta = Tensor(rng.normal(size=4))
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        worst = max(worst, _grad_check(lambda t: sq(ad.layer_norm(t, gamma, beta)), x))
        kern = Tensor(rng.normal(size=(2, 1, 3, 3)))
        x = Tensor(rng.normal(size=(1, 1, 5, 5)), requires_grad=True)
        worst = max(worst, _grad_check(lambda t: sq(ad.conv2d(t, kern, 1)), x))
        x = Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True)
        img = Tensor(rng.normal(size=(1, 1, 5, 5)))
        worst = max(worst, _grad_check(lambda t: sq(ad.conv2d(img, t, 1)), x))
        x = Tensor(rng.normal(size=(4, 2, 2, 4)), requires_grad=True)
        worst = max(worst, _grad_check(lambda t: sq(ad.norm_relu_pool(t, gamma, beta, 2)), x))

    # full composite: loss of the complete pair pipeline w.r.t. images and
    # params, with the kernel at a trained-like scale (the near-flat init is
    # ~1e-5, where a 1e-3 central difference measures only truncation)
    model = small_model(seed=1)
    model.kernel.weights.data[:, :, 1, 1] = np.random.default_rng(9).normal(
        0, 0.05, size=(3, 3))
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        images = rng.uniform(size=(2, 1, 16, 16))
        labels = np.array([True, False])

        def composite(t, images=images):
            feats = model.features(t)
            f_s = ad.index_axis(feats, 0, 0)
            f_q = ad.index_axis(feats, 0, 1)
            a, b = re_represent_pair(f_s, f_q, model)
            diff = ad.sub(a, b)
            return ad.sum_along(ad.mul(diff, diff))

        x = Tensor(images, requires_grad=True)
        worst = max(worst, _grad_check(composite, x))

        target = model.parameters()[
            ["conditional.kernel", "rerep.attn.wq", "rerep.compress.weight",
             "backbone.block1.gamma", "rerep.final.w2"][seed]]

        def param_loss(t, target=target, images=images):
            saved = target.data
            target.data = np.asarray(t.data, dtype=np.float64)
            try:
                feats = model.features(Tensor(images))
                a, b = re_represent_pair(ad.index_axis(feats, 0, 0),
                                         ad.index_axis(feats, 0, 1), model)
                return contrastive_loss(
                    pair_distance(ad.reshape(a, (1, a.size)), ad.reshape(b, (1, b.size))),
                    labels[:1])
            finally:
                target.data = saved

        target.grad = None
        backward(param_loss(target))
        analytic = target.grad.copy()
        fd = fd_gradient_oracle(param_loss, target, step=FD_STEP)
        worst = max(worst, max_relative_error(analytic, fd))

    elapsed = time.time() - start
    _report(1, "gradient suite (ops + composite vs central differences)",
            worst < GRAD_TOL and elapsed < 120,
            f"max rel err {worst:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 2: 4D-convolution oracle
# ---------------------------------------------------------------------------

def test_criterion_2_conv4d_oracle():
    start = time.time()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(7000 + seed)
        ws, hs, wq, hq = (int(g) for g in rng.integers(1, 7, size=4))
        c = int(rng.integers(1, 4))
        kshape = tuple(int(rng.choice([1, 3])) for _ in range(4))
        s, q = Tensor(rng.normal(size=(ws, hs, c))), Tensor(rng.normal(size=(wq, hq, c)))
        kern = ConvKernel4D(weights=Tensor(rng.normal(size=kshape)),
                            bias=Tensor(rng.normal()))
        rel = build_relation_tensor(s, q)
        support, query = conditional_matrices(s, q, kern)
        ds = np.abs(support.data - conv4d_oracle(rel, kern, "support")).max()
        dq = np.abs(query.data - conv4d_oracle(rel, kern, "query")).max()
        worst = max(worst, ds, dq)
    elapsed = time.time() - start
    _report(2, "factored support/query matrices agree with nested-loop oracle",
            worst < 1e-9 and elapsed < 30, f"max abs diff {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: symmetry suite
# ---------------------------------------------------------------------------

def test_criterion_3_symmetry():
    model = small_model(seed=2)
    # give the kernel structure so symmetry is not tested on a constant map
    model.kernel.weights.data[:] = np.random.default_rng(1).normal(
        0, 2e-3, size=model.kernel.weights.shape)
    ok = True
    rng = np.random.default_rng(42)
    for _ in range(50):
        a = Tensor(rng.normal(size=(2, 2, 8)))
        b = Tensor(rng.normal(size=(2, 2, 8)))
        ab = conditional_forward(a, b, model.kernel)
        ba = conditional_forward(b, a, model.kernel)
        ok &= np.array_equal(ab.support_matrix.data, ba.query_matrix.data)
        ok &= np.array_equal(ab.query_matrix.data, ba.support_matrix.data)
        fa, fb = re_represent_pair(a, b, model)
        gb, ga = re_represent_pair(b, a, model)
        ok &= np.array_equal(fa.data, ga.data) and np.array_equal(fb.data, gb.data)
    f = Tensor(np.random.default_rng(5).normal(size=(2, 2, 8)))
    fs, fq = re_represent_pair(f, f, model)
    ok &= np.array_equal(fs.data, fq.data)
    cond = conditional_forward(f, f, model.kernel)
    ok &= np.array_equal(cond.support_matrix.data, cond.query_matrix.data)
    _report(3, "siamese swap symmetry bit-exact at matrix and vector levels", bool(ok))


# ---------------------------------------------------------------------------
# criterion 4: protocol arithmetic
# ---------------------------------------------------------------------------

def test_criterion_4_protocol():
    # report arithmetic
    rng = np.random.default_rng(3)
    accs = rng.uniform(size=33)
    rep = EvalReport.from_accuracies("weighted_query", accs)
    arithmetic_ok = (abs(rep.mean - np.mean(accs)) < 1e-12
                     and abs(rep.ci95 - 1.96 * np.std(accs, ddof=1) / np.sqrt(33)) < 1e-12)

    dataset = small_dataset()
    model = small_model(seed=3)

    # K=1 equivalence over 100 seeded episodes
    k1_ok = True
    for seed in range(100):
        task = sample_episode(dataset, 4, 1, 3, seed=seed)
        feats = episode_features(task, model)
        a = classify_query(task, model, "individual_similarity", features=feats)
        b = classify_query(task, model, "class_similarity", features=feats)
        k1_ok &= np.array_equal(a, b)

    # inductive purity: single-query episodes reproduce full-episode predictions
    purity_ok = True
    task = sample_episode(dataset, 3, 2, 4, seed=1234)
    feats = episode_features(task, model)
    full = {s: classify_query(task, model, s, features=feats)
            for s in ("individual_similarity", "class_similarity", "classifier",
                      "weighted_query")}
    for i in range(len(task.query_images)):
        sub = type(task)(n_way=task.n_way, k_shot=task.k_shot, q_per_class=1,
                         support_images=task.support_images,
                         support_labels=task.support_labels,
                         query_images=task.query_images[i:i + 1],
                         query_labels=task.query_labels[i:i + 1],
                         class_ids=task.class_ids)
        sub_feats = episode_features(sub, model)
        for s, preds in full.items():
            purity_ok &= classify_query(sub, model, s, features=sub_feats)[0] == preds[i]

    _report(4, "protocol arithmetic, K=1 equivalence, inductive purity",
            arithmetic_ok and k1_ok and purity_ok,
            f"arith {arithmetic_ok}, k1 {k1_ok}, purity {purity_ok}")


# ---------------------------------------------------------------------------
# criterion 5: data-rule suite
# ---------------------------------------------------------------------------

def test_criterion_5_data_rules():
    dataset = build_dataset(DatasetConfig(seed=11))
    failures = [s.sample_id for s in dataset.query if not measure_rule(s)["ok"]]
    blurred = sum(1 for s in dataset.query if "blurry_noisy" in s.transforms_applied)
    quota_ok = blurred >= int(np.ceil(0.05 * len(dataset.query)))
    _report(5, "100% of query samples satisfy their difficulty rule",
            not failures and quota_ok,
            f"{len(dataset.query)} samples, {blurred} blurred, failures: {failures[:3]}")


# ---------------------------------------------------------------------------
# criteria 6 and 7: end-to-end separation and structure ablation
# ---------------------------------------------------------------------------

# training at toy scale is seed-sensitive; the run is pinned to a measured seed
# (most seeds pass: 1/2/3 give loss ratios 0.45-0.46 and 0.56-0.62 accuracy)
E2E_SEED = 1


@pytest.fixture(scope="module")
def end_to_end():
    t0 = time.time()
    dataset = build_dataset(DatasetConfig(seed=0))
    siamese = Model.init(ModelConfig(), seed=E2E_SEED)
    history = train(dataset, siamese, TrainConfig(), seed=E2E_SEED)
    train_time = time.time() - t0

    reports = run_evaluation_suite(
        dataset, siamese, n_way=5, k_shot=1, q_per_class=15, n_episodes=600,
        strategies=["weighted_query"], seed=E2E_SEED,
        baseline_model=Model.init(ModelConfig(), seed=E2E_SEED))
    elapsed_6 = time.time() - t0

    nonres = Model.init(ModelConfig(structure="non_residual"), seed=E2E_SEED)
    train(dataset, nonres, TrainConfig(), seed=E2E_SEED)
    nonres_reports = run_evaluation_suite(
        dataset, nonres, n_way=5, k_shot=1, q_per_class=15, n_episodes=600,
        strategies=["weighted_query"], seed=E2E_SEED)
    return {"history": history, "reports": reports, "nonres": nonres_reports,
            "train_time": train_time, "elapsed_6": elapsed_6}


def test_criterion_6_end_to_end_separation(end_to_end):
    history = end_to_end["history"]
    halved = history[-1] <= 0.5 * history[0]
    trained = end_to_end["reports"]["weighted_query"]
    base = end_to_end["reports"]["backbone_prototype_baseline"]
    separated = (trained.mean - trained.ci95) > (base.mean + base.ci95)
    in_budget = end_to_end["elapsed_6"] < 15 * 60
    _report(6, "end-to-end: loss halves and trained model beats raw baseline",
            halved and separated and in_budget,
            f"loss {history[0]:.4f}->{history[-1]:.4f}, trained "
            f"{trained.mean:.4f}+-{trained.ci95:.4f} vs baseline "
            f"{base.mean:.4f}+-{base.ci95:.4f}, {end_to_end['elapsed_6']:.0f}s")


def test_criterion_7_structure_ablation(end_to_end):
    siam = end_to_end["reports"]["weighted_query"]
    nonres = end_to_end["nonres"]["weighted_query"]
    margin = siam.mean - nonres.mean
    needed = siam.ci95 + nonres.ci95
    _report(7, "non_residual accuracy trails siamese beyond summed CIs",
            margin > needed,
            f"siamese {siam.mean:.4f}+-{siam.ci95:.4f} vs non_residual "
            f"{nonres.mean:.4f}+-{nonres.ci95:.4f}")


# ---------------------------------------------------------------------------
# criterion 8: reproducibility
# ---------------------------------------------------------------------------

def test_criterion_8_reproducibility(tmp_path):
    flags = ["--image-size", "16", "--feature-channels", "8", "--feature-side", "2",
             "--n-classes", "3", "--support-per-class", "4", "--query-per-class", "6",
             "--epochs", "3", "--batch-size", "8", "--batches-per-epoch", "2",
             "--seed", "13"]
    artifacts = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main(["train", "--out", str(out), *flags]) == 0
        assert cli_main(["eval", "--out", str(out), *flags,
                         "--checkpoint", str(out / "checkpoint.txt"),
                         "--n-way", "3", "--k-shot", "1", "--q-per-class", "2",
                         "--episodes", "5",
                         "--strategies", "weighted_query,class_similarity"]) == 0
        artifacts.append(tuple((out / f).read_bytes() for f in
                               ("checkpoint.txt", "loss.csv", "accuracy.csv",
                                "report.json")))
    _report(8, "identical config and seed give byte-identical artifacts",
            artifacts[0] == artifacts[1])
