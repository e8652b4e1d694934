"""Small end-to-end run: train the pair pipeline on a reduced synthetic set,
then meta-test all four K-shot inference strategies on shared episodes."""
import time

from condrep.config import STRATEGIES
from condrep.data import DatasetConfig, build_dataset
from condrep.evaluate import run_evaluation_suite
from condrep.model import Model, ModelConfig
from condrep.training import TrainConfig, train

dataset = build_dataset(DatasetConfig(seed=0, n_classes=5, support_per_class=10,
                                      query_per_class=20, image_size=16))
config = ModelConfig(image_size=16, feature_side=2, feature_channels=16)
model = Model.init(config, seed=1)

t0 = time.time()
history = train(dataset, model, TrainConfig(epochs=40, batch_size=40,
                                            batches_per_epoch=6, learning_rate=2e-3),
                seed=1)
print(f"trained 40 epochs in {time.time() - t0:.1f}s; "
      f"loss {history[0]:.4f} -> {history[-1]:.4f}")

t0 = time.time()
reports = run_evaluation_suite(dataset, model, n_way=3, k_shot=2, q_per_class=5,
                               n_episodes=50, strategies=STRATEGIES, seed=1,
                               baseline_model=Model.init(config, seed=1))
print(f"evaluated 50 episodes x {len(reports)} strategies in {time.time() - t0:.1f}s\n")
for name in sorted(reports):
    r = reports[name]
    print(f"  {name:30s} {r.mean:.3f} +- {r.ci95:.3f}")
