"""In-memory span recorder and the timing wrappers a traced run installs.

A traced run wraps public functions of each layer from the outside, in this
process only: nothing in ``src/`` changes.  Every wrapped call records a span
``(name, start, end, parent, op, phase, work)``; spans stay in memory and are
reduced to per-layer metrics when the run ends.

* ``name`` is ``<layer>.<thing>``; the layer is the part before the first dot.
* ``parent`` is the innermost open span on the same thread.  A span opened on
  a thread with nothing open (the HTTP server's handler thread) is parented
  to the current op's root span, so its time is subtracted from the root.
* ``op`` is the id of the operation the load generator had in flight.  The
  load is a closed loop with one request outstanding, so this is exact.
* ``phase`` is ``setup``, ``timed`` or ``post``; per-layer metrics are taken
  over ``timed`` and ``post`` only (set-up is ``setup_s``'s business).

A layer's self time is its spans' durations minus their children's.  A
function is wrapped at every module attribute it is bound to, because
``from x import f`` copies the binding.  A target that no longer exists is
skipped with a note and the metrics that need it are dropped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, OP, PHASE, WORK = range(7)
PHASES = ("timed", "post")


class Recorder:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.notes: List[str] = []
        self.missing: set = set()
        self.active = False
        self.phase = "setup"
        self._op: Optional[int] = None
        self._root: Optional[int] = None
        self._n_ops = 0
        self._tls = threading.local()

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        idx = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self._op, self.phase, 0.0])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()

    def begin_op(self, root_name: str = "op") -> int:
        """Open the root span of one operation (closed by :meth:`end_op`)."""
        self._op = self._n_ops
        self._n_ops += 1
        self._root = None
        self._root = self.open(root_name)
        return self._op

    def end_op(self) -> None:
        if self._root is not None:
            self.close(self._root)
        self._op = self._root = None

    def count(self, name: str, n: int = 1) -> None:
        if self.active and self.phase in PHASES:
            self.counts[name] += n

    def note(self, message: str) -> None:
        self.notes.append(message)

    # -- wrapping ---------------------------------------------------------
    def timed(self, name: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a ``name`` span per call while the recorder is
        active; ``after(result, args, span_index)`` may count or attach work."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if after is not None:
                after(result, args, idx)
            return result

        return wrapper

    def counted(self, fn: Callable, after: Callable) -> Callable:
        """``fn`` calling ``after(result, args, None)`` with no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, args, None)
            return result

        return wrapper

    def timed_iter(self, name: str, fn: Callable) -> Callable:
        """``fn`` returning an iterator; each ``next`` is one ``name`` span."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = rec.open(name) if rec.active else None
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if idx is not None:
                        rec.close(idx)
                yield item

        return wrapper


def _resolve(target):
    """``"pkg.mod:Attr.attr"`` or ``(object, attr)`` → (owner, attr, value)."""
    if not isinstance(target, str):
        owner, attr = target
        return owner, attr, getattr(owner, attr)
    module_name, _, qual = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = qual.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _bindings(fn) -> list:
    """Every ``(module, name)`` in the program bound to function ``fn``."""
    out = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                out.append((module, attr))
    return out


def patch(rec: Recorder, target, make: Callable[[Callable], Callable],
          metric: str) -> None:
    """Replace ``target`` by ``make(original)``.

    ``target`` is ``"module:qualname"`` or ``(object, attribute)``.  A
    module-level function is replaced at every binding, a method on its
    class, an attribute of an instance (a registry, the kernel backend) on
    the instance.  If the target is gone, the metrics named ``metric...``
    are dropped with a note.
    """
    try:
        owner, attr, original = _resolve(target)
    except (ImportError, AttributeError):
        where = target if isinstance(target, str) else \
            f"{type(target[0]).__name__}.{target[1]}"
        rec.note(f"not traced: {where} is missing; dropped {metric}.*")
        rec.missing.add(metric)
        return
    wrapped = make(original)
    if isinstance(owner, types.ModuleType):
        for module, name in _bindings(original):
            setattr(module, name, wrapped)
    else:
        setattr(owner, attr, wrapped)


# -- kernel work ---------------------------------------------------------
def _prod(shape) -> int:
    out = 1
    for d in shape:
        out *= int(d)
    return out


def _conv_forward_flop(rec: Recorder):
    # out (N, F, OH, OW) from a weight (F, C, kh, kw): one GEMM of
    # N*OH*OW x C*kh*kw x F multiply-adds
    def after(result, args, idx):
        out, weight = result[0], args[1]
        rec.spans[idx][WORK] = 2.0 * out.size * _prod(weight.shape[1:])
    return after


def _conv_backward_flop(rec: Recorder):
    # grad-weight and grad-input GEMMs, each the forward's size
    def after(result, args, idx):
        g, ctx = args[0], args[1]
        rec.spans[idx][WORK] = 4.0 * g.size * _prod(ctx.w_shape[1:])
    return after


def install(rec: Recorder, backend) -> None:
    """Wrap every traced target; ``backend`` is the kernel singleton."""
    t = rec.timed
    kernels = {
        "conv2d_forward": ("kernels.conv2d", _conv_forward_flop(rec)),
        "fused_conv_bias_relu_forward": ("kernels.conv2d", _conv_forward_flop(rec)),
        "conv2d_backward": ("kernels.conv2d", _conv_backward_flop(rec)),
        "fused_conv_bias_relu_backward": ("kernels.conv2d", _conv_backward_flop(rec)),
    }
    for method in ("gemm", "linear_forward", "linear_backward", "maxpool_forward",
                   "maxpool_backward", "relu_forward", "relu_backward",
                   "sgd_update"):
        kernels[method] = ("kernels.other", None)
    for method, (name, after) in kernels.items():
        patch(rec, (backend, method),
              lambda fn, name=name, after=after: t(name, fn, after), name)

    simple = {
        "repro.autograd.tensor:Tensor.backward": "autograd.backward",
        "repro.experiment.datasets:DATASETS.create": "data.dataset_build",
        "repro.data.dataloader:DataLoader.one_batch": "data.batches",
        "repro.pruning.pruner:Pruner.prune": "pruning.prune",
        "repro.pruning.mask:MaskRegistry.apply": "pruning.mask_apply",
        "repro.metrics.accuracy:evaluate": "metrics.evaluate",
        "repro.metrics.flops:dense_flops": "metrics.flops",
        "repro.metrics.flops:effective_flops": "metrics.flops",
        "repro.metrics.flops:theoretical_speedup": "metrics.flops",
        "repro.experiment.prune:PruningExperiment.run": "experiment.cell",
        "repro.experiment.train:Trainer.train_epoch": "experiment.train_epoch",
        "repro.models.pretrained:get_pretrained_state": "experiment.pretrain",
        "repro.experiment.cache:ResultCache.put": "experiment.cache.put",
        "repro.experiment.queue:WorkQueue.complete": "experiment.queue.complete",
        "repro.experiment.queue:WorkQueue.requeue_expired": "experiment.queue.requeue",
        "repro.store.columnar:ColumnStore.append_frame": "store.append",
        "repro.store.columnar:ColumnStore.append_rows": "store.append",
        "repro.store.columnar:ColumnStore.to_frame": "store.to_frame",
        "repro.analysis.report:build_report": "analysis.report",
        "repro.analysis.report:build_report_from_store": "analysis.report",
        "repro.analysis.report:report_json_text": "analysis.report_json",
        "repro.analysis.frame:ResultFrame.group_by": "analysis.group_by",
        "repro.analysis.frame:ResultFrame.replicate_baselines":
            "analysis.replicate_baselines",
        "repro.analysis.query:Query.apply": "analysis.query",
        "repro.analysis.query:Query.apply_store": "analysis.query",
        "repro.serve.server:ResultsServer.dispatch": "serve.dispatch",
        "repro.serve.server:FrameSource.maybe_reload": "serve.reload",
    }
    for path, name in simple.items():
        patch(rec, path, lambda fn, name=name: t(name, fn), name)
    patch(rec, "repro.data.dataloader:DataLoader.__iter__",
          lambda fn: rec.timed_iter("data.batches", fn), "data.batches")

    def hit_or_miss(counter: str, miss: str = "misses", hit: str = "hits"):
        return lambda result, args, idx: rec.count(
            f"{counter}.{miss if result is None else hit}")

    patch(rec, "repro.experiment.cache:ResultCache.get",
          lambda fn: t("experiment.cache.get", fn, hit_or_miss("experiment.cache")),
          "experiment.cache")
    patch(rec, "repro.experiment.queue:WorkQueue.claim",
          lambda fn: t("experiment.queue.claim", fn, hit_or_miss(
              "experiment.queue", miss="empty_claims", hit="claims")),
          "experiment.queue.claim")
    # a checkpoint load that finds nothing is a pretrain miss (it then
    # trains); counted without a span of its own
    patch(rec, "repro.models.pretrained:load_checkpoint",
          lambda fn: rec.counted(fn, hit_or_miss("experiment.pretrain")),
          "experiment.pretrain")


def calibrate(rec: Recorder, n: int = 20000) -> float:
    """Seconds one traced call adds over an untraced one."""
    def noop():
        return None

    wrapped = rec.timed("calibrate.noop", noop)
    saved = (rec.active, rec.phase, len(rec.spans))
    rec.active, rec.phase = True, "calibrate"
    try:
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        raw = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped()
        traced = time.perf_counter() - t0
    finally:
        rec.active, rec.phase = saved[0], saved[1]
        del rec.spans[saved[2]:]
    return max(traced - raw, 0.0) / n


# -- reduction -----------------------------------------------------------
def reduce_spans(rec: Recorder) -> dict:
    """Per-name busy time/calls/work and per-layer self time over ops.

    A call counts toward its name's ``busy``/``calls``/``work`` only when no
    enclosing span has the same name, so nested calls (a fused conv calling
    the plain conv, a report falling back to another) are not counted twice.
    """
    spans = rec.spans
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None and s[PHASE] in PHASES:
            child_time[s[PARENT]] += s[END] - s[START]

    busy = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(float)
    self_by_layer = defaultdict(float)
    self_by_name = defaultdict(float)
    op_time = 0.0
    op_spans = 0
    for i, s in enumerate(spans):
        if s[PHASE] not in PHASES:
            continue
        dur = s[END] - s[START]
        name = s[NAME]
        self_by_name[name] += dur - child_time[i]
        if s[OP] is not None:
            op_spans += 1
            self_by_layer[name.split(".")[0]] += dur - child_time[i]
            if s[PARENT] is None:
                op_time += dur
        p = s[PARENT]
        nested = False
        while p is not None:
            if spans[p][NAME] == name:
                nested = True
                break
            p = spans[p][PARENT]
        if not nested:
            busy[name] += dur
            calls[name] += 1
            work[name] += s[WORK]
    return {"busy": busy, "calls": calls, "work": work,
            "self": self_by_layer, "self_by_name": self_by_name,
            "op_time": op_time, "op_spans": op_spans}
