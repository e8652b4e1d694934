"""Conditional pair re-representation for few-shot image classification.

A numpy library with four layers:

* ``autodiff`` / ``optim`` / ``gradcheck`` - dense float64 tensors with
  reverse-mode differentiation, AdamW, and the finite-difference oracle
* ``backbone`` / ``conditional`` / ``rerepresent`` / ``model`` - the
  network: feature extractor, cross-attention + bidirectional 4D
  convolution conditional learner, and the re-representation head
* ``data`` / ``training`` - the synthetic easy/hard image pools and the
  contrastive pair training loop
* ``evaluate`` / ``io`` / ``plots`` / ``cli`` - episodic N-way-K-shot
  evaluation, persistence, and the command-line front-end
"""
from .autodiff import Tensor, backward, no_grad
from .backbone import BackboneConfig, extract_features, init_backbone, pooled_feature
from .conditional import (ConvKernel4D, aggregate_prototypes, build_relation_tensor,
                          conditional_forward, conditional_matrices, conv4d_oracle,
                          cross_correlate, positional_encode)
from .data import (DatasetConfig, SyntheticDataset, SyntheticSample, apply_difficulty,
                   build_dataset, generate_base_image)
from .evaluate import (EpisodeTask, EvalReport, classify_query, run_evaluation_suite,
                       sample_episode)
from .gradcheck import fd_gradient_oracle, max_relative_error
from .model import Model, ModelConfig
from .optim import AdamW
from .rerepresent import (finalize_vector, fuse_conditional, mlp_compress,
                          re_represent_pair, self_attend)
from .training import (LossConfig, PairBatch, TrainConfig, contrastive_loss,
                       pair_distance, sample_pair_batch, train, train_epoch)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
