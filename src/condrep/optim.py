"""AdamW with decoupled weight decay."""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .exceptions import ConfigError, ContractError


class AdamW:
    """Adam with the weight-decay term applied directly to the weights.

    The decay step ``w <- w - lr*wd*w`` runs separately from the
    bias-corrected moment update, so a zero gradient still shrinks the
    weights. ``step_count`` increases by exactly one per :meth:`step`.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.05):
        if not 0.0 <= lr < np.inf:
            raise ConfigError(f"adamw: learning rate must be finite and >= 0, got {lr}")
        if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
            raise ConfigError(f"adamw: betas must lie in (0,1), got {beta1}, {beta2}")
        if not 0.0 < eps < np.inf:
            raise ConfigError(f"adamw: eps must be finite and positive, got {eps}")
        if not 0.0 <= weight_decay < np.inf:
            raise ConfigError(f"adamw: weight decay must be finite and >= 0, got {weight_decay}")
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"adamw: parameter '{name}' has no gradient")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad
            if self.weight_decay != 0.0:
                p.data = p.data - self.lr * self.weight_decay * p.data
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
