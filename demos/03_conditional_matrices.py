"""Walk one (support, query) pair through the conditional learner and show
the swap symmetry, and that the factored 4D convolution agrees with the
nested-loop oracle of tests/referees.py run on the dense relation tensor."""
import sys
from pathlib import Path

import numpy as np

from condrep.autodiff import Tensor
from condrep.conditional import ConvKernel4D, conditional_forward
from condrep.data import apply_difficulty, generate_base_image
from condrep.model import Model

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))   # the referees
from referees import build_relation_tensor, conditional_matrices, conv4d_oracle  # noqa: E402

model = Model.init(seed=4)
# the kernel starts near-flat; amplify its sliding slice so the demo maps
# show visible structure before any training
model.kernel.weights.data *= 40.0

support = generate_base_image(class_id=2, seed=5)
query = apply_difficulty(generate_base_image(2, 9), "blurry_noisy", seed=9)

fs = model.features(support.image[None])
fq = model.features(query.image[None])
out = conditional_forward(fs, fq, model.kernel)
# each matrix comes back as a (W*H, 1) column over the map's position rows
grid = fs.shape[1:3]
print("support conditional matrix:\n", np.round(out.support_matrix.data[0].reshape(grid), 4))
print("query conditional matrix:\n", np.round(out.query_matrix.data[0].reshape(grid), 4))

swapped = conditional_forward(fq, fs, model.kernel)
print("swap symmetry, bit-exact:",
      np.array_equal(out.support_matrix.data, swapped.query_matrix.data))

# the factored reduction never builds the (Ws, Hs, Wq, Hq, C) relation tensor;
# the literal nested loops over that tensor referee it
rng = np.random.default_rng(1)
s_corr, q_corr = Tensor(rng.normal(size=(4, 4, 3))), Tensor(rng.normal(size=(5, 3, 3)))
kern = ConvKernel4D(weights=Tensor(rng.normal(size=(3, 3, 3, 3))),
                    bias=Tensor(rng.normal()))
rel = build_relation_tensor(s_corr, q_corr)
for direction, fast in zip(("support", "query"), conditional_matrices(s_corr, q_corr, kern)):
    slow = conv4d_oracle(rel, kern, direction)
    print(f"{direction} matrix, factored vs nested-loop oracle on the dense tensor, "
          f"max abs diff: {np.abs(fast.data - slow).max():.2e}")
