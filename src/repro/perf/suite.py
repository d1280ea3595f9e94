"""The curated microbenchmark suite: one bench per real hot path.

Importing this module registers every benchmark in
:data:`~repro.perf.harness.BENCHMARKS`; ``python -m repro bench`` does so
and runs them.  Workloads are sized to finish the full suite in well under
a minute on one laptop core while still being large enough that the
measured path — not the harness — dominates.

Coverage map (layer → benches):

* **autograd/nn** — ``autograd_conv2d_forward`` / ``_backward`` (the
  im2col GEMM path), ``autograd_maxpool_backward`` vs
  ``autograd_maxpool_backward_addat`` (the non-overlap scatter fast path
  against its ``np.add.at`` reference), and ``nn_train_step`` (a full
  forward/backward/SGD step on a small conv net — the inner loop of every
  pretrain and fine-tune).
* **kernels** — per-backend twins pinned via ``use_backend`` regardless of
  ``REPRO_KERNEL_BACKEND``: ``kernel_conv2d_forward_<backend>`` /
  ``kernel_conv2d_backward_<backend>`` /
  ``kernel_fused_conv_bias_relu_<backend>`` / ``nn_train_step_<backend>``
  for ``reference`` and ``fast``, so every report documents the fast
  backend's current win over the byte-equivalent reference.
* **pruning** — ``pruning_mask_apply`` (the post-optimizer-step mask
  enforcement that runs once per training step) and
  ``pruning_magnitude_scores`` (the §7.2 scoring family shared by the
  magnitude baselines).
* **experiment** — ``experiment_cache_hit`` / ``_miss``
  (:class:`ResultCache` lookups, paid once per cell per sweep) and
  ``experiment_queue_claim`` (the rename-arbitrated claim that bounds
  multi-machine queue throughput).
* **analysis** — ``frame_filter`` / ``frame_group_by`` /
  ``frame_join_baseline``, each in a ``_vectorized`` and a ``_rowloop``
  variant over the same 100k-row frame, so the vectorization win is
  re-measured (not just asserted) on every run; ``frame_curve`` in a
  ``_vectorized`` and a ``_pergroup`` variant over 100k distinct x values
  (the grouped-reduction primitive against a sub-frame per group).
* **store** — ``store_ingest_1m`` / ``store_load_1m`` /
  ``report_from_store_1m`` plus their ``*_json_twin`` references: the
  binary column store's write, mmap-load and full-report paths against
  the per-row JSON paths they replace, at ``REPRO_STORE_BENCH_ROWS``
  rows (default one million — the only benches sized past the suite's
  under-a-minute budget; push CI shrinks them via the env knob, the
  nightly leg runs them at full scale).
* **serve** — ``serve_query_throughput``: a real
  :class:`~repro.serve.ResultsServer` on a loopback port answering
  concurrent keep-alive ``POST /query`` (filter + aggregate) clients over
  the same 100k-row frame — the many-readers workload the server exists
  for.

The paired ``*_rowloop`` / ``*_pergroup`` / ``*_addat`` variants are
intentionally the byte-equivalent reference implementations the fast
paths are tested against (see ``tests/test_perf_bench.py`` and
``tests/test_autograd_conv.py``); a report therefore documents the current
speedup of every landed optimization.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from ..autograd import Tensor, conv2d, conv2d_bias_relu, cross_entropy
from ..autograd.conv import (
    _max_pool2d_backward_add_at,
    _max_pool2d_backward_scatter,
)
from ..kernels import use_backend
from ..experiment.cache import ResultCache
from ..experiment.prune import ExperimentSpec
from ..experiment.queue import WorkQueue
from ..experiment.results import PruningResult
from ..analysis.frame import ResultFrame
from .. import nn
from ..optim import OPTIMIZERS
from ..pruning import MaskRegistry, magnitude_scores, prunable_parameters
from .harness import benchmark

__all__ = ["make_result_frame", "make_sweep_frame"]


# --------------------------------------------------------------------------
# autograd / nn
# --------------------------------------------------------------------------

def _conv_inputs(seed: int = 0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((16, 8, 16, 16)), requires_grad=True)
    w = Tensor(rng.standard_normal((16, 8, 3, 3)) * 0.1, requires_grad=True)
    b = Tensor(np.zeros(16), requires_grad=True)
    return x, w, b


@benchmark("autograd_conv2d_forward",
           "im2col + GEMM conv forward, 16x8x16x16 input, 3x3 kernel")
def _bench_conv2d_forward():
    x, w, b = _conv_inputs()
    return lambda: conv2d(x, w, b, padding=1)


@benchmark("autograd_conv2d_backward",
           "conv backward (two GEMMs + col2im scatter) through the tape")
def _bench_conv2d_backward():
    x, w, b = _conv_inputs()
    out = conv2d(x, w, b, padding=1)
    g = np.ones_like(out.data)

    def run():
        x.grad = w.grad = b.grad = None
        out.backward(g)

    return run


def _maxpool_backward_args(seed: int = 0):
    rng = np.random.default_rng(seed)
    n, c, h, w, k = 32, 16, 32, 32, 2
    oh = ow = (h - k) // k + 1
    arg = rng.integers(0, k * k, (n, c, oh, ow))
    g = rng.standard_normal((n, c, oh, ow))
    return (n, c, h, w), arg, g, k, k, np.float64


@benchmark("autograd_maxpool_backward",
           "max-pool input grad, non-overlap scatter fast path")
def _bench_maxpool_backward():
    args = _maxpool_backward_args()
    return lambda: _max_pool2d_backward_scatter(*args)


@benchmark("autograd_maxpool_backward_addat",
           "reference np.add.at max-pool input grad (equivalence twin)")
def _bench_maxpool_backward_addat():
    args = _maxpool_backward_args()
    return lambda: _max_pool2d_backward_add_at(*args)


def _small_convnet(seed: int = 0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(8, 16, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Linear(16, 10, rng=rng),
    )


@benchmark("nn_train_step",
           "full train step (forward, cross-entropy, backward, SGD) on a "
           "small conv net, batch 32 of 3x16x16")
def _bench_train_step():
    rng = np.random.default_rng(0)
    model = _small_convnet()
    opt = OPTIMIZERS.create("sgd", list(model.parameters()), lr=0.01,
                            momentum=0.9)
    xb = rng.standard_normal((32, 3, 16, 16))
    yb = rng.integers(0, 10, 32)
    model.train()

    def step():
        loss = cross_entropy(model(Tensor(xb)), yb)
        model.zero_grad()
        loss.backward()
        opt.step()

    return step


# --------------------------------------------------------------------------
# kernels: per-backend twins (reference vs fast on identical workloads)
# --------------------------------------------------------------------------
#
# The conv twins call the backend primitives directly on raw ndarrays — the
# tape's contribution is already measured by the ``autograd_*`` benches, and
# keeping it out of the timed region stops the shared dispatch overhead from
# diluting the kernel-level difference.  The train-step twins keep the full
# autograd path (that IS their workload) pinned via ``use_backend``.

def _raw_conv_args(seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((16, 8, 16, 16))
    w = rng.standard_normal((16, 8, 3, 3)) * 0.1
    b = np.zeros(16)
    return x, w, b


def _make_kernel_conv_forward(backend: str):
    def setup():
        from ..kernels import resolve_backend

        kb = resolve_backend(backend)
        x, w, b = _raw_conv_args()
        return lambda: kb.conv2d_forward(x, w, b, 1, 1, True)

    return setup


def _make_kernel_conv_backward(backend: str):
    def setup():
        from ..kernels import resolve_backend

        kb = resolve_backend(backend)
        x, w, b = _raw_conv_args()
        out, ctx = kb.conv2d_forward(x, w, b, 1, 1, True)
        g = np.ones_like(out)
        return lambda: kb.conv2d_backward(g, ctx)

    return setup


def _make_kernel_fused_conv(backend: str):
    def setup():
        from ..kernels import resolve_backend

        kb = resolve_backend(backend)
        x, w, b = _raw_conv_args()
        return lambda: kb.fused_conv_bias_relu_forward(x, w, b, 1, 1, True)

    return setup


def _make_kernel_train_step(backend: str):
    def setup():
        rng = np.random.default_rng(0)
        model = _small_convnet()
        opt = OPTIMIZERS.create("sgd", list(model.parameters()), lr=0.01,
                                momentum=0.9)
        xb = rng.standard_normal((32, 3, 16, 16))
        yb = rng.integers(0, 10, 32)
        model.train()

        def step():
            with use_backend(backend):
                loss = cross_entropy(model(Tensor(xb)), yb)
                model.zero_grad()
                loss.backward()
                opt.step()

        return step

    return setup


for _backend in ("reference", "fast"):
    benchmark(
        f"kernel_conv2d_forward_{_backend}",
        f"conv2d forward pinned to the {_backend} backend (twin)",
    )(_make_kernel_conv_forward(_backend))
    benchmark(
        f"kernel_conv2d_backward_{_backend}",
        f"conv2d backward pinned to the {_backend} backend (twin)",
    )(_make_kernel_conv_backward(_backend))
    benchmark(
        f"kernel_fused_conv_bias_relu_{_backend}",
        f"fused conv+bias+ReLU forward on the {_backend} backend (twin)",
    )(_make_kernel_fused_conv(_backend))
    benchmark(
        f"nn_train_step_{_backend}",
        f"full train step pinned to the {_backend} backend (twin)",
    )(_make_kernel_train_step(_backend))
del _backend


# --------------------------------------------------------------------------
# pruning
# --------------------------------------------------------------------------

def _masked_model(seed: int = 0):
    rng = np.random.default_rng(seed)
    model = _small_convnet(seed)
    masks = MaskRegistry(model)
    for name, p in prunable_parameters(model):
        masks.set_mask(name, (rng.random(p.shape) > 0.5).astype(np.float32))
    return model, masks


@benchmark("pruning_mask_apply",
           "MaskRegistry.apply (runs after every fine-tune optimizer step)")
def _bench_mask_apply():
    _, masks = _masked_model()
    return masks.apply


@benchmark("pruning_magnitude_scores",
           "|w| scoring over all prunable tensors (Han et al. baseline)")
def _bench_magnitude_scores():
    model, _ = _masked_model()
    params = prunable_parameters(model)
    return lambda: magnitude_scores(params)


# --------------------------------------------------------------------------
# experiment (cache / queue)
# --------------------------------------------------------------------------

def _tiny_spec(seed: int = 0) -> ExperimentSpec:
    return ExperimentSpec(
        model="lenet-300-100", dataset="cifar10", strategy="global_weight",
        compression=4.0, seed=seed,
    )


def _tiny_row(spec: ExperimentSpec) -> PruningResult:
    return PruningResult(
        model=spec.model, dataset=spec.dataset, strategy=spec.strategy,
        compression=spec.compression, seed=spec.seed,
        actual_compression=4.1, theoretical_speedup=2.2,
        total_params=266_610, nonzero_params=65_027,
        dense_flops=5.3e5, effective_flops=2.4e5,
        baseline_top1=0.61, baseline_top5=0.95,
        pre_finetune_top1=0.31, pre_finetune_top5=0.71,
        top1=0.58, top5=0.93, pretrained_key="bench", finetune_epochs_ran=5,
    )


@benchmark("experiment_cache_hit",
           "ResultCache.get on a stored spec (hash + read + parse)")
def _bench_cache_hit():
    tmp = tempfile.TemporaryDirectory()
    cache = ResultCache(tmp.name)
    spec = _tiny_spec()
    cache.put(spec, _tiny_row(spec))
    assert cache.get(spec) is not None
    return (lambda: cache.get(spec)), tmp.cleanup


@benchmark("experiment_cache_miss",
           "ResultCache.get on an absent spec (hash + failed read)")
def _bench_cache_miss():
    tmp = tempfile.TemporaryDirectory()
    cache = ResultCache(tmp.name)
    spec = _tiny_spec(seed=12345)
    assert cache.get(spec) is None
    return (lambda: cache.get(spec)), tmp.cleanup


@benchmark("experiment_queue_claim",
           "WorkQueue.claim + release over a 32-cell pending set "
           "(rename-arbitrated lease throughput)")
def _bench_queue_claim():
    tmp = tempfile.TemporaryDirectory()
    queue = WorkQueue(os.path.join(tmp.name, "q"))
    for seed in range(32):
        queue.submit(_tiny_spec(seed=seed))

    def claim_release():
        claim = queue.claim("bench")
        assert claim is not None
        # put the cell straight back so the workload is steady-state
        os.rename(queue.leased_dir / f"{claim.hash}.json",
                  queue.pending_dir / f"{claim.hash}.json")
        (queue.leased_dir / f"{claim.hash}.lease").unlink(missing_ok=True)

    return claim_release, tmp.cleanup


#: cell count for the end-to-end queue-executor bench — the ROADMAP's
#: thousand-cell fleet target.  The push-CI smoke sets
#: ``REPRO_QUEUE_BENCH_CELLS`` small; nightly and local acceptance runs
#: keep the real thousand.  ``REPRO_QUEUE_BENCH_WORKERS`` sizes the
#: launched fleet.
QUEUE_BENCH_CELLS = int(os.environ.get("REPRO_QUEUE_BENCH_CELLS", "1000"))
QUEUE_BENCH_WORKERS = int(os.environ.get("REPRO_QUEUE_BENCH_WORKERS", "4"))


def _queue_bench_config(queue_dir, cells: int):
    """A ``cells``-cell micro-experiment grid: 2 strategies x 2 seeds x
    however many compression points it takes.  Real cells (pretrain +
    prune + finetune on the 8px synthetic dataset, ~tens of ms each), so
    the bench exercises the full claim/run/publish/complete path."""
    from ..experiment.config import OptimizerConfig, SweepConfig, TrainConfig

    strategies = ("global_weight", "random")
    seeds = (0, 1)
    points = max(1, -(-cells // (len(strategies) * len(seeds))))
    train = TrainConfig(epochs=1, batch_size=32,
                        optimizer=OptimizerConfig("sgd", 0.01),
                        early_stop_patience=None)
    # distinct ratios > 1 (no baseline dedup eating cells), bounded well
    # under the 8px LeNet's ~63x reachable-compression cap even at the
    # thousand-cell default (250 points -> 1.05 + 0.05*249 ~= 13.5x)
    return SweepConfig(
        model="lenet-300-100",
        dataset="cifar10",
        strategies=strategies,
        compressions=tuple(1.05 + 0.05 * i for i in range(points)),
        seeds=seeds,
        model_kwargs=dict(input_size=8, in_channels=3),
        dataset_kwargs=dict(n_train=32, n_val=16, size=8, noise=0.5),
        pretrain=train,
        finetune=train,
        executor="queue",
        executor_options=dict(queue_dir=str(queue_dir), local_workers=0),
    )


@benchmark("queue_executor_e2e",
           f"end-to-end fleet sweep: plan + launch {QUEUE_BENCH_WORKERS} "
           f"local workers + coordinate {QUEUE_BENCH_CELLS} real micro-"
           "cells through the queue executor, then verify done-vs-cache")
def _bench_queue_executor_e2e():
    import shutil
    import signal as _signal

    from ..experiment.queue import QueueExecutor
    from ..fleet import HostSpec, fleet_plan, launch_fleet, verify_fleet

    tmp = tempfile.TemporaryDirectory()
    counter = iter(range(10**9))
    fleet_pids = []

    def sweep():
        queue_dir = os.path.join(tmp.name, f"q-{next(counter)}")
        config = _queue_bench_config(queue_dir, QUEUE_BENCH_CELLS)
        specs = config.expand()
        fleet_plan(config, queue_dir, batch_size=128)
        manifest = launch_fleet(
            [HostSpec(host="local", workers=QUEUE_BENCH_WORKERS)],
            queue_dir,
            idle_timeout=10.0,
            cache_dir=os.path.join(queue_dir, "cache"),
        )
        pids = [w["pid"] for w in manifest["workers"]]
        fleet_pids.extend(pids)
        try:
            executor = QueueExecutor(
                queue_dir=queue_dir, local_workers=0, wait_timeout=600.0,
                cache=ResultCache(os.path.join(queue_dir, "cache")),
            )
            rows = executor.run(specs)
            assert len(rows) == len(specs)
            audit, _ = verify_fleet(queue_dir)
            assert audit.clean, audit.problems()
        finally:
            for pid in pids:
                try:
                    os.kill(pid, _signal.SIGTERM)
                except OSError:
                    pass
            shutil.rmtree(queue_dir, ignore_errors=True)

    def cleanup():
        for pid in fleet_pids:
            try:
                os.kill(pid, _signal.SIGKILL)
            except OSError:
                pass
        tmp.cleanup()

    return sweep, cleanup


# --------------------------------------------------------------------------
# analysis (ResultFrame at 100k rows)
# --------------------------------------------------------------------------

#: row count for the frame benches — the ROADMAP's "100k+ rows" target
FRAME_ROWS = 100_000


def make_result_frame(rows: int = FRAME_ROWS, seed: int = 0) -> ResultFrame:
    """A synthetic sweep-shaped frame (also used by the equivalence tests)."""
    rng = np.random.default_rng(seed)
    strategies = np.array(
        ["global_weight", "layer_weight", "global_gradient", "random"],
        dtype=object,
    )
    models = np.array(["resnet-20", "vgg-11", "lenet-300-100"], dtype=object)
    compression = rng.choice([1.0, 2.0, 4.0, 8.0, 16.0, 32.0], rows)
    return ResultFrame({
        "model": models[rng.integers(0, len(models), rows)],
        "dataset": np.array(["cifar10"] * rows, dtype=object),
        "strategy": strategies[rng.integers(0, len(strategies), rows)],
        "compression": compression,
        "seed": rng.integers(0, 10, rows).astype(np.int64),
        "top1": rng.random(rows),
        "top5": rng.random(rows),
    })


def _rowloop_filter(frame: ResultFrame, **conditions) -> ResultFrame:
    """Naive per-row filter: the pre-columnar baseline the frame replaced."""
    def matches(i):
        for name, cond in conditions.items():
            v = frame.column(name)[i]
            if isinstance(cond, (list, tuple, set)):
                if v not in cond:
                    return False
            elif v != cond:
                return False
        return True

    return frame.take([i for i in range(len(frame)) if matches(i)])


@benchmark("frame_filter_vectorized",
           f"ResultFrame.filter (strategy + compression set) at {FRAME_ROWS} rows")
def _bench_frame_filter():
    frame = make_result_frame()
    return lambda: frame.filter(strategy="global_weight",
                                compression=[2.0, 4.0, 8.0])


@benchmark("frame_filter_rowloop",
           "same filter as a per-row Python loop (pre-frame baseline)")
def _bench_frame_filter_rowloop():
    frame = make_result_frame()
    return lambda: _rowloop_filter(frame, strategy="global_weight",
                                   compression=[2.0, 4.0, 8.0])


@benchmark("frame_group_by_vectorized",
           f"ResultFrame.group_by (strategy, compression) at {FRAME_ROWS} rows")
def _bench_frame_group_by():
    frame = make_result_frame()
    return lambda: frame.group_by(("strategy", "compression"))


@benchmark("frame_group_by_rowloop",
           "reference row-by-row group_by (equivalence twin)")
def _bench_frame_group_by_rowloop():
    frame = make_result_frame()
    return lambda: frame._group_by_rows(("strategy", "compression"),
                                        single=False, sort=True)


def _distinct_x_columns():
    """The sweep frame's columns plus ``x``: a continuous operating point
    per row, as ``actual_compression`` curves have."""
    frame = make_result_frame()
    rng = np.random.default_rng(2)
    columns = {name: frame.column(name) for name in frame.columns}
    columns["x"] = columns["compression"] * rng.uniform(0.9, 1.1, len(frame))
    return columns


@benchmark("frame_curve_vectorized",
           f"ResultFrame.curve over {FRAME_ROWS} distinct x values on a "
           "fresh frame (factorize, gather once, reduce slices)")
def _bench_frame_curve():
    columns = _distinct_x_columns()
    return lambda: ResultFrame(columns).curve(x="x", y="top1")


@benchmark("frame_curve_pergroup",
           "reference curve: one sub-frame per x value (equivalence twin)")
def _bench_frame_curve_pergroup():
    columns = _distinct_x_columns()
    return lambda: ResultFrame(columns)._curve_groups("x", "top1")


@benchmark("frame_join_baseline_vectorized",
           f"batched baseline join at {FRAME_ROWS} rows")
def _bench_frame_join_baseline():
    frame = make_result_frame()
    return lambda: frame._join_baseline_batched(("model", "dataset", "seed"))


@benchmark("frame_join_baseline_rowloop",
           "reference per-row dict-probe baseline join (equivalence twin)")
def _bench_frame_join_baseline_rowloop():
    frame = make_result_frame()
    return lambda: frame._join_baseline_rows(("model", "dataset", "seed"))


# --------------------------------------------------------------------------
# store (binary column store at corpus scale)
# --------------------------------------------------------------------------

#: row count for the store benches — the corpus-scale target from ROADMAP
#: item 2.  The default is a genuine million rows (the nightly CI leg and
#: local acceptance runs use it); the push-CI smoke sets
#: ``REPRO_STORE_BENCH_ROWS`` to a small value so the full suite stays
#: under its time budget.
STORE_BENCH_ROWS = int(os.environ.get("REPRO_STORE_BENCH_ROWS", "1000000"))


def make_sweep_frame(rows: int = STORE_BENCH_ROWS, seed: int = 0) -> ResultFrame:
    """A synthetic full-schema sweep frame (every PruningResult column), so
    ``build_report`` runs unmodified over it — the store benches' workload."""
    frame = make_result_frame(rows, seed)
    rng = np.random.default_rng(seed + 1)
    compression = frame.column("compression")
    backends = np.array([{"kernel_backend": "fast"}, {"kernel_backend": "reference"}],
                        dtype=object)
    top1 = frame.column("top1")
    return ResultFrame({
        **{name: frame.column(name) for name in frame.columns},
        "actual_compression": compression * rng.uniform(0.9, 1.1, rows),
        "theoretical_speedup": compression * rng.uniform(0.5, 0.9, rows),
        "total_params": np.full(rows, 266_610, dtype=np.int64),
        "nonzero_params": (266_610 / compression).astype(np.int64),
        "dense_flops": np.full(rows, 5.3e5),
        "effective_flops": 5.3e5 / compression,
        "baseline_top1": np.clip(top1 + rng.uniform(0.0, 0.1, rows), 0, 1),
        "baseline_top5": rng.random(rows),
        "pre_finetune_top1": rng.random(rows),
        "pre_finetune_top5": rng.random(rows),
        "pretrained_key": np.array(["bench"] * rows, dtype=object),
        "finetune_epochs_ran": rng.integers(0, 30, rows).astype(np.int64),
        "extra": backends[rng.integers(0, 2, rows)],
    }).derived()


def _store_workdir():
    """(tmpdir, results.json path, sealed store dir) for the store benches:
    the same ``STORE_BENCH_ROWS`` rows as both a JSON artifact and a
    compacted single-segment store — the two sides of the 10x claim."""
    from ..store import ColumnStore

    tmp = tempfile.TemporaryDirectory()
    frame = make_sweep_frame()
    json_path = os.path.join(tmp.name, "results.json")
    frame.save(json_path)
    store = ColumnStore(os.path.join(tmp.name, "store"))
    store.ingest(json_path, chunk_rows=262_144)
    store.compact()
    return tmp, json_path, store


@benchmark("store_ingest_1m",
           f"repro store ingest of a {STORE_BENCH_ROWS}-row results.json "
           "(streaming parse + chunked segment writes)")
def _bench_store_ingest():
    from ..store import ColumnStore

    tmp = tempfile.TemporaryDirectory()
    frame = make_sweep_frame()
    json_path = os.path.join(tmp.name, "results.json")
    frame.save(json_path)
    counter = iter(range(10**9))

    def ingest():
        store = ColumnStore(os.path.join(tmp.name, f"store-{next(counter)}"))
        store.ingest(json_path, chunk_rows=262_144)

    return ingest, tmp.cleanup


@benchmark("store_load_1m",
           f"ColumnStore.to_frame at {STORE_BENCH_ROWS} rows "
           "(mmap columns, no per-row parsing)")
def _bench_store_load():
    tmp, _, store = _store_workdir()
    return store.to_frame, tmp.cleanup


@benchmark("store_load_1m_json_twin",
           f"ResultFrame.from_json over the same {STORE_BENCH_ROWS} rows "
           "(the per-row JSON path the store replaces)")
def _bench_store_load_json_twin():
    tmp, json_path, _ = _store_workdir()
    return (lambda: ResultFrame.from_json(json_path)), tmp.cleanup


@benchmark("report_from_store_1m",
           f"build_report_from_store at {STORE_BENCH_ROWS} rows (the "
           "`repro report <store-dir>` pipeline: load the report's "
           "columns, build the report)")
def _bench_report_from_store():
    from ..analysis.report import build_report_from_store

    tmp, _, store = _store_workdir()
    return (lambda: build_report_from_store(store)), tmp.cleanup


@benchmark("report_from_store_1m_json_twin",
           f"load_frame(results.json) + build_report at {STORE_BENCH_ROWS} "
           "rows (the JSON-cache-path twin of report_from_store_1m)")
def _bench_report_from_json_twin():
    from ..analysis import build_report, load_frame

    tmp, json_path, _ = _store_workdir()
    return (lambda: build_report(load_frame(json_path))), tmp.cleanup


#: the pushdown benches' selective predicate: one seed value out of
#: ``PUSHDOWN_SEEDS``, over a store whose segments are seed-clustered —
#: so the zone maps rule out ~95% of segments (the ISSUE's "≤10% of
#: segments match" acceptance shape)
PUSHDOWN_SEEDS = 20
PUSHDOWN_SEGMENTS = 64
PUSHDOWN_QUERY = {
    "filter": {"seed": {"op": "==", "value": 7}},
    "columns": ["strategy", "compression", "seed", "top1"],
    "limit": 100,
}


def _pushdown_workdir():
    """(tmpdir, sealed multi-segment store) for the pushdown benches: the
    sweep rows re-seeded over ``PUSHDOWN_SEEDS`` values and sorted by seed
    before ingest, so each of the ``PUSHDOWN_SEGMENTS`` segments covers a
    narrow seed range and a single-seed predicate prunes almost all of
    them — the clustered-ingest layout the zone maps are designed for."""
    from ..store import ColumnStore

    tmp = tempfile.TemporaryDirectory()
    frame = make_sweep_frame()
    rows = len(frame)
    rng = np.random.default_rng(7)
    columns = {name: frame.column(name) for name in frame.columns}
    columns["seed"] = rng.integers(0, PUSHDOWN_SEEDS, rows).astype(np.int64)
    frame = ResultFrame(columns).sort_by("seed")
    json_path = os.path.join(tmp.name, "results.json")
    frame.save(json_path)
    store = ColumnStore(os.path.join(tmp.name, "store"))
    store.ingest(json_path, chunk_rows=max(1, -(-rows // PUSHDOWN_SEGMENTS)))
    return tmp, store


@benchmark("store_query_pushdown_1m",
           f"zone-map pushdown /query (seed == 7 over {PUSHDOWN_SEGMENTS} "
           f"seed-clustered segments, {STORE_BENCH_ROWS} rows): skip "
           "non-matching segments, load only referenced columns")
def _bench_store_query_pushdown():
    from ..analysis.query import compile_query

    tmp, store = _pushdown_workdir()
    query = compile_query(PUSHDOWN_QUERY)
    return (lambda: query.apply_store(store)), tmp.cleanup


@benchmark("store_query_fullscan_twin_1m",
           f"full-scan twin of store_query_pushdown_1m: materialize all "
           f"{STORE_BENCH_ROWS} rows, then apply the same query")
def _bench_store_query_fullscan_twin():
    from ..analysis.query import compile_query

    tmp, store = _pushdown_workdir()
    query = compile_query(PUSHDOWN_QUERY)
    return (lambda: query.apply(store.to_frame())), tmp.cleanup


# --------------------------------------------------------------------------
# serve (results server under concurrent load)
# --------------------------------------------------------------------------

#: the serve bench's client fan-out: threads × keep-alive requests each
SERVE_CLIENT_THREADS = 4
SERVE_REQUESTS_PER_THREAD = 25


@benchmark("serve_query_throughput",
           f"{SERVE_CLIENT_THREADS} client threads × "
           f"{SERVE_REQUESTS_PER_THREAD} keep-alive POST /query requests "
           f"(filter + aggregate) against a {FRAME_ROWS}-row frame")
def _bench_serve_query_throughput():
    import http.client
    import json as _json
    import threading

    from ..serve import FrameSource, ResultsServer

    server = ResultsServer(
        [FrameSource.from_frame("bench", make_result_frame())]
    )
    server.start()
    body = _json.dumps({
        "filter": {
            "strategy": "global_weight",
            "compression": {"op": ">=", "value": 4.0},
        },
        "aggregate": {"by": ["strategy", "compression"], "values": ["top1"]},
        "limit": 10,
    }).encode()
    headers = {"Content-Type": "application/json"}

    def client() -> None:
        conn = http.client.HTTPConnection(server.host, server.port)
        try:
            for _ in range(SERVE_REQUESTS_PER_THREAD):
                conn.request("POST", "/query", body=body, headers=headers)
                response = conn.getresponse()
                payload = response.read()
                assert response.status == 200, payload[:200]
        finally:
            conn.close()

    def run() -> None:
        threads = [threading.Thread(target=client)
                   for _ in range(SERVE_CLIENT_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    return run, server.stop
