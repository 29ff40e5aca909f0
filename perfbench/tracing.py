"""Instrumentation the benchmark installs on the stgnn package from outside.

Two instruments share one patcher, which replaces a public function on its
own module and on every stgnn module that imported it by name, or a method
on its class, and puts every original back on ``uninstall``:

- ``Probe`` is all an untraced run carries: a handful of clock reads per
  optimizer step and per scoring call, which give the end-to-end step
  latency and scoring throughput, plus a count of grid points that
  returned ``failed``.
- ``Tracer`` records a span (name, start, end, parent, run id) around every
  call into each layer listed in ``LAYER_FUNCTIONS`` and ``LAYER_METHODS``
  and around every autodiff op, forward and backward. Spans stay in memory
  and are written out by the caller at exit.

An autodiff op that calls other ops (``weight_norm`` builds on ``add``,
``sqrt``, ...) is charged as one op: only the outermost call gets a
forward span, and the backward closures of every tape node it recorded are
timed under its name.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

clock = time.perf_counter

# (module, function) pairs traced as layers; each span is named module.function
LAYER_FUNCTIONS = [
    ("prep", "load_manifest"),
    ("prep", "window_split"),
    ("prep", "window_adjacency"),
    ("prep", "window_correlation"),
    ("prep", "ledoit_wolf_covariance"),
    ("prep", "stack_samples"),
    ("graph", "normalized_adjacency"),
    ("models", "bce_loss"),
    ("evaluation", "train_classifier"),
    ("evaluation", "evaluate_loss"),
    ("evaluation", "predict_scores"),
    ("evaluation", "compute_metrics"),
    ("evaluation", "plan_folds"),
    ("evaluation", "flat_correlation_features"),
    ("evaluation", "baseline_flat_correlation"),
    ("synth", "generate_dataset"),
    ("cli", "_atomic_write_bytes"),
]

# (module, class, method) triples traced as layers; spans are module.Class(.method)
LAYER_METHODS = [
    ("encoders", "CnnEncoder", "__call__"),
    ("encoders", "TcnEncoder", "__call__"),
    ("graph", "GCNLayer", "__call__"),
    ("graph", "SageTower", "__call__"),
    ("graph", "DiffPoolLevel", "__call__"),
    ("models", "GraphClassifier", "forward"),
    ("nn", "Adam", "step"),
    ("nn", "Module", "state_dict"),
    ("nn", "Module", "zero_grad"),
    ("autodiff", "Tensor", "backward"),
]

# short span names for the entries whose code names are not the metric names
SPAN_NAMES = {
    "prep.ledoit_wolf_covariance": "prep.ledoit_wolf",
    "cli._atomic_write_bytes": "cli.write",
    "autodiff.Tensor.backward": "autodiff.backward",
}

# public autodiff functions that are not tape ops
NOT_OPS = {"set_default_dtype", "get_default_dtype", "default_dtype", "as_tensor",
           "conv_output_length"}


def span_name(module: str, *attrs: str) -> str:
    name = ".".join((module,) + tuple(a for a in attrs if a != "__call__"))
    return SPAN_NAMES.get(name, name)


def autodiff_ops(autodiff) -> list[str]:
    """Every public function defined in ``autodiff`` that records a tape op."""
    return sorted(name for name, value in vars(autodiff).items()
                  if inspect.isfunction(value) and value.__module__ == autodiff.__name__
                  and not name.startswith("_") and name not in NOT_OPS)


class Patcher:
    """Replace attributes of the stgnn package and restore them later."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    @staticmethod
    def modules() -> list:
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "stgnn" or name.startswith("stgnn."))]

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, make_wrapper) -> None:
        """Wrap ``module.attr`` everywhere in the package it is bound by name."""
        original = getattr(module, attr)
        wrapped = make_wrapper(original)
        for mod in self.modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def patch_method(self, cls, attr: str, make_wrapper) -> None:
        self._set(cls, attr, make_wrapper(cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _after(fn, hook):
    """Call ``fn``, then ``hook(args, result)``."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(args, result)
        return result
    return wrapper


class Probe(Patcher):
    """Clock reads per optimizer step and scoring call, for untraced runs.

    A step is the time from the end of one ``Adam.step`` to the end of the
    next. Constructing an optimizer, validating (``evaluate_loss``),
    copying a state dict or scoring restarts the interval, so a step never
    includes work done between training batches.
    """

    def __init__(self):
        super().__init__()
        self.steps_s: list[float] = []
        self.scoring: list[tuple[int, float]] = []  # (samples, seconds)
        self.trainings = 0
        self.failed_points = 0
        self._last: float | None = None

    def install(self, stgnn) -> None:
        nn, evaluation = stgnn.nn, stgnn.evaluation

        def restart(args, result):
            self._last = clock()

        def stepped(args, result):
            now = clock()
            if self._last is not None:
                self.steps_s.append(now - self._last)
            self._last = now

        def trained(args, result):
            self.trainings += 1
            self.failed_points += bool(result.failed)

        def timed_scoring(fn):
            @functools.wraps(fn)
            def wrapper(model, features, *args, **kwargs):
                start = clock()
                result = fn(model, features, *args, **kwargs)
                self.scoring.append((len(features), clock() - start))
                self._last = clock()
                return result
            return wrapper

        self.patch_method(nn.Adam, "__init__", lambda fn: _after(fn, restart))
        self.patch_method(nn.Adam, "step", lambda fn: _after(fn, stepped))
        self.patch_method(nn.Module, "state_dict", lambda fn: _after(fn, restart))
        self.patch_function(evaluation, "evaluate_loss", lambda fn: _after(fn, restart))
        self.patch_function(evaluation, "train_classifier", lambda fn: _after(fn, trained))
        self.patch_function(evaluation, "predict_scores", timed_scoring)

    def take(self) -> dict:
        """Return and clear what was recorded since the last call."""
        out = {"steps_s": self.steps_s, "scoring": self.scoring,
               "trainings": self.trainings, "failed_points": self.failed_points}
        self.steps_s, self.scoring = [], []
        self.trainings = self.failed_points = 0
        return out


class Tracer(Patcher):
    """Spans around every layer call and autodiff op, kept in memory."""

    def __init__(self):
        super().__init__()
        # each span is [name, start, end, parent index or -1, run id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = "setup"
        self._stack: list[int] = []
        self._op: str | None = None

    # spans and counts ---------------------------------------------------------

    def count(self, name: str, amount: float) -> None:
        self.counts[f"{phase(self.run_id)}:{name}"] += amount

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent, self.run_id])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = clock()
        self._stack.pop()

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    # autodiff ops -----------------------------------------------------------

    def _time_backward(self, out, op: str) -> None:
        closure = getattr(out, "_backward", None)
        if closure is None or getattr(closure, "traced", False):
            return
        name = f"autodiff.{op}.bwd"

        def timed_backward(grad):
            index = self.open(name)
            try:
                closure(grad)
            finally:
                self.close(index)
        timed_backward.traced = True
        out._backward = timed_backward

    def traced_op(self, op: str, fn):
        name = f"autodiff.{op}.fwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._op
            if outer is not None:  # called inside another op: charge it there
                out = fn(*args, **kwargs)
                self._time_backward(out, outer)
                return out
            self._op = op
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
                self._op = None
            self._time_backward(out, op)
            return out
        return wrapper

    # installation -----------------------------------------------------------

    def install(self, stgnn) -> None:
        prep = stgnn.prep

        def count_bytes(args, result):
            self.count("prep.load_manifest.bytes", os.path.getsize(args[0]))

        def count_windows(args, result):
            self.count("prep.window_split.windows", len(result))

        self.patch_function(prep, "load_manifest", lambda fn: _after(fn, count_bytes))
        self.patch_function(prep, "read_matrix", lambda fn: _after(fn, count_bytes))
        self.patch_function(prep, "window_split", lambda fn: _after(fn, count_windows))
        for module, attr in LAYER_FUNCTIONS:
            mod = getattr(stgnn, module)
            self.patch_function(mod, attr,
                                lambda fn, n=span_name(module, attr): self.timed(n, fn))
        for module, cls, attr in LAYER_METHODS:
            owner = getattr(getattr(stgnn, module), cls)
            self.patch_method(owner, attr,
                              lambda fn, n=span_name(module, cls, attr): self.timed(n, fn))
        for op in autodiff_ops(stgnn.autodiff):
            self.patch_function(stgnn.autodiff, op, lambda fn, o=op: self.traced_op(o, fn))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


# derived numbers ----------------------------------------------------------------


def phase(run_id) -> str:
    return "setup" if run_id == "setup" else "body"


def span_totals(spans: list[list]) -> dict[str, dict[str, dict[str, float]]]:
    """Per run phase ("setup" or "body") and span name: calls, total and self seconds.

    Self time is a span's duration minus the part its child spans cover;
    spans of one thread nest, so that part is the sum of the children.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict = {"setup": defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}),
                 "body": defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})}
    for index, (name, start, end, parent, run) in enumerate(spans):
        entry = out[phase(run)][name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_s[index]
    return out


def op_coverage(spans: list[list]) -> list[dict]:
    """For each benchmark operation span: its wall time and the part of it
    covered by its top-level layer spans (its direct children)."""
    ops: dict[int, dict] = {}
    for index, (name, start, end, parent, run) in enumerate(spans):
        if name == "bench.op":
            ops[index] = {"wall_s": end - start, "covered_s": 0.0}
    for name, start, end, parent, run in spans:
        if parent in ops:
            ops[parent]["covered_s"] += end - start
    return list(ops.values())
