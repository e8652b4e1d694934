"""Conditional pair re-representation for few-shot image classification.

A numpy library with four layers:

* ``autodiff`` / ``optim`` - dense float64 tensors with reverse-mode
  differentiation, and AdamW
* ``backbone`` / ``conditional`` / ``rerepresent`` / ``model`` - the
  network: feature extractor, cross-attention + bidirectional 4D
  convolution conditional learner, and the re-representation head
* ``data`` / ``training`` - the synthetic easy/hard image pools and the
  contrastive pair training loop
* ``config`` / ``evaluate`` / ``io`` / ``plots`` / ``cli`` - the run config
  table, episodic N-way-K-shot evaluation, persistence, and the
  command-line front-end
"""
from . import (autodiff, backbone, conditional, config, data, evaluate, exceptions, model,
               optim, rerepresent, training)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
