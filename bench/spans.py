"""In-memory span recorder for the traced benchmark run.

The recorder wraps condrep's public functions from the outside, by
replacing module and class attributes while a traced operation runs, and
restoring them afterwards. Nothing under ``src/`` is changed.

Three kinds of span are recorded:

* ``layer`` - a call into a module's public function (backbone,
  conditional learner, re-representation, loss, backward, AdamW, data,
  evaluation, checkpoint I/O). A layer's self time excludes only its
  child *layer* spans, so ``backbone`` includes the autodiff ops it runs.
* ``op`` - a call into one of the autodiff forward ops. Its self time
  excludes nested op spans. Each op span names the innermost layer it
  ran in.
* ``vjp`` - one backward edge of an op created while tracing, timed when
  ``backward`` calls it and attributed to the op and the layer that
  created it.

Every span carries the id of the training step or evaluation episode it
belongs to (``setup-<k>`` during set-up).
"""
from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

AUTODIFF_OPS = ("conv2d", "layer_norm", "permute", "reshape", "mean", "matmul",
                "softmax_lastdim", "mul", "add", "sub", "concat", "relu", "sqrt",
                "sum_along", "index_axis")


class Span:
    __slots__ = ("name", "kind", "parent", "op", "layer", "start", "end", "items", "nbytes")

    def __init__(self, name, kind, parent, op, layer):
        self.name, self.kind, self.parent, self.op, self.layer = name, kind, parent, op, layer
        self.start = self.end = 0
        self.items = None     # images or pairs handled by this call
        self.nbytes = None    # computed bytes of the tensor this call produces

    def as_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "parent": self.parent, "op": self.op,
                "layer": self.layer, "start_ns": self.start, "end_ns": self.end,
                "items": self.items, "bytes": self.nbytes}


def _batch(t) -> int:
    """Number of (W, H, C) maps in a (..., W, H, C) tensor."""
    return int(np.prod(t.shape[:-3], dtype=np.int64))


def _backbone_items(args, kwargs, out):
    return out.shape[0], None


def _pair_items(args, kwargs, out):
    return _batch(args[0]), None


def _relation_items(args, kwargs, out):
    # bytes of the dense (..., Ws, Hs, Wq, Hq, C) float64 relation tensor
    fs = args[0]
    w, h, c = fs.shape[-3:]
    pairs = _batch(fs)
    return pairs, pairs * (w * h) ** 2 * c * 8


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the
    wrapped attributes in and out so untraced operations run the plain code."""

    def __init__(self, m):
        """``m`` holds the condrep modules as attributes."""
        baseline = m.evaluate.BASELINE
        self.spans: list[Span] = []
        self.op = None
        self._layers: list[int] = []
        self._ops: list[int] = []
        self.installed = False
        layer = self._layer_wrapper
        self._patches = [
            (m.data, "build_dataset", layer("data.build")),
            (m.io, "save_checkpoint", layer("io.checkpoint_save")),
            (m.io, "model_from_checkpoint", layer("io.checkpoint_load")),
            (m.model.Model, "features", layer("backbone", _backbone_items)),
            (m.rerepresent, "conditional_forward", layer("conditional", _relation_items)),
            (m.training, "sample_pair_batch", layer("data.batch")),
            (m.training, "re_represent_pair", layer("rerepresent", _pair_items)),
            (m.training, "pair_distance", layer("training.loss")),
            (m.training, "contrastive_loss", layer("training.loss")),
            (m.training, "backward", layer("autodiff.backward")),
            (m.optim.AdamW, "step", layer("optim.step")),
            (m.evaluate, "sample_episode", layer("data.episode")),
            (m.evaluate, "episode_features", layer("evaluate.features")),
            (m.evaluate, "re_represent_pair", layer("rerepresent", _pair_items)),
            (m.evaluate, "strategy_predictions", layer("evaluate.strategy")),
            (m.evaluate, "classify_query",
             layer(lambda a, kw: "evaluate.baseline"
                   if (a[2] if len(a) > 2 else kw.get("strategy")) == baseline
                   else "evaluate.classify")),
        ]
        self._patches += [(m.autodiff, name, self._op_wrapper(name)) for name in AUTODIFF_OPS]
        self._originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in self._patches]
        self._tensor = m.autodiff.Tensor

    # -- installation ------------------------------------------------------

    def install(self):
        if not self.installed:
            for (owner, attr, wrapped), (_, _, original) in zip(self._patches, self._originals):
                setattr(owner, attr, wrapped(original))
            self.installed = True

    def uninstall(self):
        if self.installed:
            for owner, attr, original in self._originals:
                setattr(owner, attr, original)
            self.installed = False

    # -- wrappers ----------------------------------------------------------

    def _open(self, name, kind, stack):
        parent = stack[-1] if stack else None
        layer = self.spans[self._layers[-1]].name if self._layers else None
        span = Span(name, kind, parent, self.op, layer)
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _layer_wrapper(self, name, measure=None):
        def wrap(fn):
            def traced(*args, **kwargs):
                label = name(args, kwargs) if callable(name) else name
                span = self._open(label, "layer", self._layers)
                span.start = time.perf_counter_ns()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter_ns()
                    self._layers.pop()
                if measure is not None:
                    span.items, span.nbytes = measure(args, kwargs, out)
                return out
            return traced
        return wrap

    def _op_wrapper(self, name):
        def wrap(fn):
            def traced(*args, **kwargs):
                span = self._open(name, "op", self._ops)
                span.start = time.perf_counter_ns()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter_ns()
                    self._ops.pop()
                if isinstance(out, self._tensor):
                    span.nbytes = out.data.nbytes
                    if out._edges and not isinstance(out._edges[0][1], _TimedVjp):
                        out._edges = tuple((p, _TimedVjp(self, vjp, name, span.layer))
                                           for p, vjp in out._edges)
                return out
            return traced
        return wrap

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path: Path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


class _TimedVjp:
    """A backward edge that records a ``vjp`` span each time it runs."""
    __slots__ = ("tracer", "fn", "name", "layer")

    def __init__(self, tracer, fn, name, layer):
        self.tracer, self.fn, self.name, self.layer = tracer, fn, name, layer

    def __call__(self, g):
        span = Span(self.name, "vjp", None, self.tracer.op, self.layer)
        self.tracer.spans.append(span)
        span.start = time.perf_counter_ns()
        out = self.fn(g)
        span.end = time.perf_counter_ns()
        return out


def self_times(spans: list[Span]) -> list[int]:
    """Self time (ns) of every span: its duration minus the durations of its
    direct children of the same family (layer or op)."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own
