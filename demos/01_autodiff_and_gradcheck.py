"""Tour of the tensor core: build a small graph, backpropagate, and referee
the gradients with the central-difference oracle of tests/referees.py."""
import sys
from pathlib import Path

import numpy as np

from condrep import autodiff as ad
from condrep.autodiff import Tensor, backward
from condrep.optim import AdamW

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))   # the referees
from referees import fd_gradient_oracle, max_relative_error  # noqa: E402

rng = np.random.default_rng(0)

# a toy attention-style block: softmax(x w) * (x w), summed to a scalar
x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)


def loss_fn(t):
    h = ad.matmul(t, w)
    return ad.sum_along(ad.mul(ad.softmax_lastdim(h), h))


loss = loss_fn(x)
backward(loss)
print(f"loss = {loss.item():.6f}")
print("analytic grad of x:\n", np.round(x.grad, 4))

fd = fd_gradient_oracle(loss_fn, x, step=1e-3)
print("finite-difference grad:\n", np.round(fd.data, 4))
print(f"max relative error: {max_relative_error(x.grad, fd):.2e}")

# one AdamW step shrinks the loss
opt = AdamW({"x": x, "w": w}, lr=0.05, weight_decay=0.0)
w.grad = np.zeros_like(w.data)  # only x carries gradient in this toy
opt.step()
print(f"loss after one step: {loss_fn(x).item():.6f}")
