"""Episode sampling, inference strategies, the online classifier they fit, and reports."""
import tracemalloc

import numpy as np
import pytest

from condrep import evaluate
from condrep.config import STRATEGIES
from condrep.data import DatasetConfig, build_dataset
from condrep.evaluate import (BASELINE, EvalReport, classify_query,
                              episode_features, run_evaluation_suite, sample_episode,
                              strategy_predictions)
from condrep.exceptions import ConfigError, DataError
from condrep.model import Model, ModelConfig


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(DatasetConfig(seed=0, n_classes=6, image_size=16,
                                       support_per_class=6, query_per_class=18))


@pytest.fixture(scope="module")
def model():
    cfg = ModelConfig(image_size=16, feature_side=2, feature_channels=8)
    return Model.init(cfg, seed=0)


class TestSampleEpisode:
    def test_five_way_one_shot_counts(self, dataset):
        task = sample_episode(dataset, 5, 1, 15, seed=0)
        assert len(task.support_images) == 5
        assert len(task.query_images) == 75

    def test_five_way_five_shot_support_count(self, dataset):
        task = sample_episode(dataset, 5, 5, 2, seed=1)
        assert len(task.support_images) == 25

    def test_excessive_n_way_rejected(self, dataset):
        with pytest.raises(DataError):
            sample_episode(dataset, 7, 1, 5, seed=0)

    def test_insufficient_samples_name_the_class(self, dataset):
        with pytest.raises(DataError, match="class"):
            sample_episode(dataset, 3, 7, 5, seed=0)

    # each named the shortfall but not the config key that asked for it
    @pytest.mark.parametrize("args,message", [
        ((7, 1, 5), "episodes need n_classes >= n_way = 7, the pools hold 6$"),
        ((3, 7, 5), "episodes need support_per_class >= k_shot = 7, the pools hold 6 for "
                    "class 0"),
        ((3, 1, 19), "episodes need query_per_class >= q_per_class = 19, the pools hold 18 "
                     "for class 0")],
        ids=["n_way", "k_shot", "q_per_class"])
    def test_shortfall_names_the_key(self, dataset, args, message):
        with pytest.raises(DataError, match=message):
            sample_episode(dataset, *args, seed=0)

    def test_determinism(self, dataset):
        a = sample_episode(dataset, 4, 2, 3, seed=9)
        b = sample_episode(dataset, 4, 2, 3, seed=9)
        assert np.array_equal(a.support_images, b.support_images)
        assert np.array_equal(a.query_images, b.query_images)
        assert np.array_equal(a.class_ids, b.class_ids)

    def test_all_classes_present_in_both_sets(self, dataset):
        task = sample_episode(dataset, 4, 2, 3, seed=3)
        assert set(task.support_labels) == set(range(4))
        assert set(task.query_labels) == set(range(4))


def primal_fit_logistic(x, labels, n_classes, epochs, lr):
    """Referee: the fit's gradient steps on the weights themselves."""
    b, n, c = x.shape
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels] = 1.0
    w = np.zeros((b, c, n_classes))
    bias = np.zeros((b, 1, n_classes))
    xt = x.swapaxes(1, 2)
    for _ in range(epochs):
        p = evaluate._softmax(x @ w + bias)
        g = (p - onehot) / n
        w -= lr * (xt @ g)
        bias -= lr * g.sum(axis=1, keepdims=True)
    return w, bias


class TestLinearClassifier:
    """The logistic fit of the classifier and weighted_query strategies."""

    @staticmethod
    def fit_logits(x, y, n_classes, epochs=100):
        w, b = evaluate._fit_logistic(x[None], y, n_classes, epochs=epochs, lr=0.1)
        return x @ w[0] + b[0]

    def test_separable_clusters_reach_full_accuracy(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(-3, 0.3, size=(10, 4)), rng.normal(3, 0.3, size=(10, 4))])
        y = np.array([0] * 10 + [1] * 10)
        assert np.mean(self.fit_logits(x, y, 2).argmax(axis=1) == y) == 1.0

    def test_zero_epochs_give_uniform_probabilities(self):
        logits = self.fit_logits(np.ones((3, 4)), np.array([0, 1, 2]), 3, epochs=0)
        np.testing.assert_allclose(evaluate._softmax(logits), 1 / 3, atol=1e-12)

    @pytest.mark.parametrize("k_shot", [1, 2, 5])
    def test_dual_fit_matches_the_primal_loop(self, k_shot):
        # 5-way episodes of 75 queries: n = 5, 10 and 25 supports of 32 channels
        rng = np.random.default_rng(k_shot)
        x = rng.normal(size=(75, 5 * k_shot, 32))
        labels = np.repeat(np.arange(5), k_shot)
        w, b = evaluate._fit_logistic(x, labels, 5, epochs=100, lr=0.1)
        w_ref, b_ref = primal_fit_logistic(x, labels, 5, epochs=100, lr=0.1)
        assert w.shape == w_ref.shape and b.shape == b_ref.shape
        assert np.abs(w - w_ref).max() <= 1e-12 * np.abs(w_ref).max()
        assert np.abs(b - b_ref).max() <= 1e-12 * np.abs(b_ref).max()
        targets = rng.normal(size=(75, 1, 32))
        np.testing.assert_array_equal((targets @ w + b).argmax(axis=2),
                                      (targets @ w_ref + b_ref).argmax(axis=2))

    def test_zero_epochs_return_zeros(self):
        w, b = evaluate._fit_logistic(np.ones((2, 3, 4)), np.array([0, 1, 2]), 3,
                                      epochs=0, lr=0.1)
        assert w.shape == (2, 4, 3) and b.shape == (2, 1, 3)
        assert not w.any() and not b.any()

    def test_conflicting_duplicate_does_not_crash(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1, 1])
        assert np.mean(self.fit_logits(x, y, 2).argmax(axis=1) == y) < 1.0


class TestStrategyRules:
    def test_well_separated_embeddings_all_strategies_correct(self):
        # constructed-embedding oracle: 2-way, K=2, 4 queries, class blobs far apart
        n_way, k = 2, 2
        centers = np.array([[-5.0] * 6, [5.0] * 6])
        rng = np.random.default_rng(1)
        support_vectors = np.stack([
            np.repeat(centers, k, axis=0) + rng.normal(0, 0.05, size=(n_way * k, 6))
            for _ in range(4)])
        true = np.array([0, 0, 1, 1])
        query_vectors = np.stack([
            np.repeat(centers[t][None], n_way * k, axis=0) + rng.normal(0, 0.05, size=(n_way * k, 6))
            for t in true])
        pair_dist = ((support_vectors - query_vectors) ** 2).sum(axis=-1)
        proto_dist = np.stack([((centers - query_vectors[i, 0]) ** 2).sum(axis=-1)
                               for i in range(4)])
        strategies = ["individual_similarity", "class_similarity", "classifier",
                      "weighted_query"]
        predictions = strategy_predictions(strategies, n_way=n_way, k_shot=k,
                                           pair_dist=pair_dist, proto_dist=proto_dist,
                                           support_vectors=support_vectors,
                                           query_vectors=query_vectors)
        assert list(predictions) == strategies
        for strategy, preds in predictions.items():
            np.testing.assert_array_equal(preds, true, err_msg=strategy)

    def test_ties_break_to_lowest_class_index(self):
        pair_dist = np.array([[1.0, 1.0]])
        preds = strategy_predictions(["individual_similarity"], n_way=2, k_shot=1,
                                     pair_dist=pair_dist, proto_dist=pair_dist,
                                     support_vectors=np.zeros((1, 2, 3)),
                                     query_vectors=np.zeros((1, 2, 3)))
        assert preds["individual_similarity"][0] == 0

    def test_unknown_strategy_rejected(self, dataset, model):
        task = sample_episode(dataset, 2, 1, 2, seed=0)
        with pytest.raises(ConfigError):
            classify_query(task, model, "transductive")

    def test_repeated_strategy_rejected_by_name(self, dataset, model):
        feats = episode_features(sample_episode(dataset, 2, 1, 2, seed=0), model)
        with pytest.raises(ConfigError, match="'weighted_query' is requested twice"):
            strategy_predictions(["weighted_query", "classifier", "weighted_query"], n_way=2,
                                 k_shot=1, **feats)

    @pytest.mark.parametrize("k_shot", [1, 2])
    def test_all_strategies_at_once_equal_each_alone(self, dataset, model, k_shot):
        for seed in range(3):
            task = sample_episode(dataset, 3, k_shot, 4, seed=seed)
            feats = episode_features(task, model)
            together = strategy_predictions(STRATEGIES, n_way=3, k_shot=k_shot, **feats)
            assert list(together) == list(STRATEGIES)
            for s in STRATEGIES:
                alone = strategy_predictions([s], n_way=3, k_shot=k_shot, **feats)
                assert set(alone) == {s}
                assert alone[s].tobytes() == together[s].tobytes(), (s, seed)


class TestClassifyQuery:
    def test_k1_individual_equals_class_similarity(self, dataset, model):
        for seed in range(10):
            task = sample_episode(dataset, 4, 1, 3, seed=seed)
            feats = episode_features(task, model)
            a = classify_query(task, model, "individual_similarity", features=feats)
            b = classify_query(task, model, "class_similarity", features=feats)
            np.testing.assert_array_equal(a, b, err_msg=f"seed {seed}")

    def test_degenerate_query_equal_to_support_wins(self, dataset, model):
        task = sample_episode(dataset, 3, 1, 2, seed=4)
        task.query_images = task.query_images.copy()
        task.query_images[0] = task.support_images[2]
        feats = episode_features(task, model)
        assert feats["pair_dist"][0, 2] == 0.0
        preds = classify_query(task, model, "individual_similarity", features=feats)
        assert preds[0] == 2

    def test_inductive_purity(self, dataset, model):
        task = sample_episode(dataset, 3, 2, 4, seed=5)
        feats = episode_features(task, model)
        full = {s: classify_query(task, model, s, features=feats)
                for s in ("individual_similarity", "weighted_query", "classifier")}
        for i in range(len(task.query_images)):
            sub = type(task)(n_way=task.n_way, k_shot=task.k_shot, q_per_class=1,
                             support_images=task.support_images,
                             support_labels=task.support_labels,
                             query_images=task.query_images[i:i + 1],
                             query_labels=task.query_labels[i:i + 1],
                             class_ids=task.class_ids)
            sub_feats = episode_features(sub, model)
            for s, preds in full.items():
                single = classify_query(sub, model, s, features=sub_feats)
                assert single[0] == preds[i], (s, i)


class TestNoRepeatedWork:
    def test_k1_prototype_pairing_equals_pair_pass(self, dataset, model):
        # the prototype pass episode_features skips at K=1, run explicitly
        for seed in range(20):
            task = sample_episode(dataset, 4, 1, 3, seed=seed)
            feats = episode_features(task, model)
            sup_maps, qry_maps = evaluate._episode_maps(task, model)
            nq = len(task.query_images)
            protos = sup_maps.reshape(task.n_way, 1, *sup_maps.shape[1:]).mean(axis=1)
            proto_vec, proto_qvec = evaluate._pair_vectors(
                model, protos, np.tile(np.arange(task.n_way), nq),
                qry_maps, np.repeat(np.arange(nq), task.n_way))
            proto_dist = ((proto_vec - proto_qvec) ** 2).sum(axis=-1).reshape(nq, task.n_way)
            assert np.array_equal(proto_dist, feats["pair_dist"]), seed

    @pytest.mark.parametrize("k_shot,passes", [(1, 1), (2, 2)])
    def test_prototype_pass_runs_only_beyond_one_shot(self, dataset, model, monkeypatch,
                                                      k_shot, passes):
        calls = []
        pair_vectors = evaluate._pair_vectors
        monkeypatch.setattr(evaluate, "_pair_vectors",
                            lambda m, own, own_idx, other, other_idx:
                            calls.append(len(own_idx)) or
                            pair_vectors(m, own, own_idx, other, other_idx))
        task = sample_episode(dataset, 3, k_shot, 2, seed=8)
        feats = episode_features(task, model)
        assert len(calls) == passes
        assert feats["proto_dist"].shape == (6, 3)
        if k_shot > 1:
            assert calls[1] == 6 * 3

    @pytest.mark.parametrize("strategies,fits", [
        (STRATEGIES, 1), (["classifier", "weighted_query"], 1),
        (["individual_similarity", "class_similarity"], 0)])
    def test_one_logistic_fit_per_episode(self, dataset, model, monkeypatch, strategies, fits):
        calls = []
        fit = evaluate._fit_logistic
        monkeypatch.setattr(evaluate, "_fit_logistic",
                            lambda *a, **kw: calls.append(a[0].shape) or fit(*a, **kw))
        reports = run_evaluation_suite(dataset, model, n_way=3, k_shot=1, q_per_class=2,
                                       n_episodes=4, strategies=strategies, seed=3,
                                       baseline_model=model)
        assert len(calls) == 4 * fits
        assert {len(r.per_episode_accuracy) for r in reports.values()} == {4}

    @pytest.mark.parametrize("k_shot", [1, 2])
    def test_suite_memo_matches_fresh_episodes(self, dataset, model, monkeypatch, k_shot):
        # one 3-episode suite (maps shared between episodes) against three
        # 1-episode suites of the same episodes (every map fresh)
        baseline = Model.init(model.config, seed=1)
        kwargs = dict(n_way=3, k_shot=k_shot, q_per_class=4, strategies=STRATEGIES,
                      baseline_model=baseline)
        tasks, mapped = [], []
        sample, features = evaluate.sample_episode, Model.features
        monkeypatch.setattr(evaluate, "sample_episode",
                            lambda *a: tasks.append(sample(*a)) or tasks[-1])
        monkeypatch.setattr(Model, "features",
                            lambda m, images: mapped.append(len(images)) or features(m, images))
        suite = run_evaluation_suite(dataset, model, n_episodes=3, seed=4, **kwargs)
        assert len(tasks) == 3
        # one backbone call per model and episode, and images seen before are not mapped
        assert len(mapped) == 6
        distinct = {im.tobytes() for t in tasks
                    for im in np.concatenate([t.support_images, t.query_images])}
        assert sum(mapped) == 2 * len(distinct) < 2 * 3 * 3 * (k_shot + 4)
        for i, task in enumerate(list(tasks)):
            monkeypatch.setattr(evaluate, "sample_episode", lambda *a, task=task: task)
            single = run_evaluation_suite(dataset, model, n_episodes=1, seed=4, **kwargs)
            assert set(single) == set(STRATEGIES) | {BASELINE}
            for s, report in single.items():
                assert report.per_episode_accuracy == [suite[s].per_episode_accuracy[i]], (s, i)


class TestGroups:
    @pytest.mark.parametrize("k_shot", [1, 2])
    def test_groups_change_no_bit(self, dataset, monkeypatch, k_shot):
        # 16 px images and a 4x4x16 grid: an image fills 16 KB of first conv
        # output and a pair gathers two 2 KB maps, so the budget below makes
        # groups of 4 images and of 16 pairs
        cfg = ModelConfig(image_size=16, feature_side=4, feature_channels=16)
        model, baseline = Model.init(cfg, seed=0), Model.init(cfg, seed=1)
        task = sample_episode(dataset, 3, k_shot, 5, seed=2)
        kwargs = dict(n_way=3, k_shot=k_shot, q_per_class=5, n_episodes=3, seed=6,
                      strategies=STRATEGIES, baseline_model=baseline)
        images, pairs = [], []   # the batch of every backbone and pair-head call
        features, pair_head = Model.features, evaluate.re_represent_pair
        monkeypatch.setattr(Model, "features",
                            lambda m, x: images.append(len(x)) or features(m, x))
        monkeypatch.setattr(evaluate, "re_represent_pair",
                            lambda a, b, m: pairs.append(len(a.data)) or pair_head(a, b, m))
        runs = []
        for budget in (evaluate._GROUP_BYTES, 4 * 16 * 16 * 8 * 8):
            monkeypatch.setattr(evaluate, "_GROUP_BYTES", budget)
            feats = episode_features(task, model)
            runs.append((feats, images[:], pairs[:],
                         run_evaluation_suite(dataset, model, **kwargs)))
            images.clear()
            pairs.clear()
        (whole, whole_images, whole_pairs, whole_reports), (grouped, images, pairs, reports) = runs
        n_images = 3 * (k_shot + 5)
        passes = [15 * 3 * k_shot] + ([15 * 3] if k_shot > 1 else [])
        assert whole_images == [n_images] and whole_pairs == passes
        # several groups, the last one ragged
        assert images == [4] * (n_images // 4) + [n_images % 4] and n_images % 4
        assert pairs == sum(([16] * (n // 16) + [n % 16] for n in passes), [])
        assert all(n % 16 for n in passes)
        assert list(grouped) == list(whole)
        for name, value in whole.items():
            assert grouped[name].shape == value.shape
            assert grouped[name].tobytes() == value.tobytes(), name
        assert set(reports) == set(STRATEGIES) | {BASELINE}
        for s, report in whole_reports.items():
            assert reports[s].per_episode_accuracy == report.per_episode_accuracy, s

    def test_five_shot_episode_peaks_in_one_group(self):
        # a default 5-way 5-shot episode has 1,875 pairs and 100 images; in
        # one batch each, episode_features peaked at 92.6 MB (tracemalloc). In
        # groups of 192 pairs and 24 images it peaks at 10.9 MB, inside one
        # pair group's cross-attention; the bound leaves ~40% above that
        task = sample_episode(build_dataset(DatasetConfig()), 5, 5, 15, seed=0)
        model = Model.init(ModelConfig(), seed=0)
        episode_features(task, model)   # warm the sinusoid and fold-weight caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            episode_features(task, model)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 15e6, peak


class TestEvalReport:
    def test_all_correct(self):
        r = EvalReport.from_accuracies("weighted_query", [1.0, 1.0, 1.0])
        assert r.mean == 1.0 and r.ci95 == 0.0

    def test_two_episode_closed_form(self):
        r = EvalReport.from_accuracies("weighted_query", [1.0, 0.0])
        assert abs(r.mean - 0.5) < 1e-15
        expected_ci = 1.96 * np.std([1.0, 0.0], ddof=1) / np.sqrt(2)
        assert abs(r.ci95 - expected_ci) < 1e-12
        assert abs(r.ci95 - 0.98) < 1e-12

    def test_ci_matches_closed_form_to_1e12(self):
        rng = np.random.default_rng(2)
        accs = rng.uniform(0, 1, size=50)
        r = EvalReport.from_accuracies("classifier", accs)
        assert abs(r.ci95 - 1.96 * np.std(accs, ddof=1) / np.sqrt(50)) < 1e-12
        assert abs(r.mean - np.mean(accs)) < 1e-12


class TestRunEvaluation:
    def test_shared_seeds_across_strategies(self, dataset, model):
        reports = run_evaluation_suite(dataset, model, n_way=3, k_shot=1, q_per_class=2,
                                       n_episodes=4, seed=7,
                                       strategies=["class_similarity", "weighted_query"],
                                       baseline_model=model)
        lengths = {len(r.per_episode_accuracy) for r in reports.values()}
        assert lengths == {4}
        assert set(reports) == {"class_similarity", "weighted_query", BASELINE}

    def test_episode_determinism(self, dataset, model):
        a = run_evaluation_suite(dataset, model, n_way=3, k_shot=1, q_per_class=2,
                                 n_episodes=3, strategies=["class_similarity"], seed=11)
        b = run_evaluation_suite(dataset, model, n_way=3, k_shot=1, q_per_class=2,
                                 n_episodes=3, strategies=["class_similarity"], seed=11)
        assert a["class_similarity"].per_episode_accuracy == \
            b["class_similarity"].per_episode_accuracy

    def test_unknown_strategy_rejected(self, dataset, model):
        with pytest.raises(ConfigError):
            run_evaluation_suite(dataset, model, n_way=2, k_shot=1, q_per_class=2,
                                 n_episodes=1, strategies=["oracle"], seed=0)

    # accs was keyed by name but appended once per list entry: without a
    # baseline a 3-episode run reported 6 episodes, with one it raised an
    # IndexError in write_accuracy_csv
    @pytest.mark.parametrize("with_baseline", [False, True])
    def test_repeated_strategy_rejected(self, dataset, model, with_baseline):
        with pytest.raises(ConfigError, match="'weighted_query' is requested twice"):
            run_evaluation_suite(dataset, model, n_way=2, k_shot=1, q_per_class=2,
                                 n_episodes=3, seed=0,
                                 strategies=["weighted_query", "weighted_query"],
                                 baseline_model=model if with_baseline else None)

    # 0 episodes reported a mean of 0.0 over nothing; a 0-way, 0-shot or
    # 0-query episode died in np.stack with a message naming no argument
    @pytest.mark.parametrize("value", [0, -2])
    @pytest.mark.parametrize("arg", ["n_way", "k_shot", "q_per_class", "n_episodes"])
    def test_protocol_argument_below_one_rejected(self, dataset, model, arg, value):
        kwargs = {"n_way": 2, "k_shot": 1, "q_per_class": 2, "n_episodes": 1, arg: value}
        key = "episodes" if arg == "n_episodes" else arg   # the config key it reads
        with pytest.raises(ConfigError, match=f"config: {key} must be >= 1, got {value}"):
            run_evaluation_suite(dataset, model, strategies=["weighted_query"], seed=0,
                                 baseline_model=model, **kwargs)

    def test_no_strategy_and_no_baseline_rejected(self, dataset, model):
        # it returned no report at all, and `eval --strategies ,` wrote an
        # accuracy.csv of "episode," that `plot` then refused
        with pytest.raises(ConfigError, match="no strategy"):
            run_evaluation_suite(dataset, model, n_way=2, k_shot=1, q_per_class=2,
                                 n_episodes=1, strategies=[], seed=0)

    def test_protocol_defaults(self):
        import inspect
        sig = inspect.signature(run_evaluation_suite)
        assert sig.parameters["n_episodes"].default == 600
        assert sig.parameters["q_per_class"].default == 15
        assert sig.parameters["strategies"].default == ("weighted_query",)
