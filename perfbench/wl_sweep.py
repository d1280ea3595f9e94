"""sweep_resnet20: the paper's own cell, run through ``run_config``.

ResNet-20 (width 0.5) on 16 px synthetic CIFAR-10, 256 train / 128 val
images, four strategies at §6's five compressions on one shared pretrained
model, serial executor, fresh result cache.  Set-up trains the 1-epoch
checkpoint; each cell fine-tunes for 1 epoch.  An op is one cell, from its
``start`` to its ``done`` progress event.  The grid is fixed work (about 30 s
on a 2-core x86 box) because its output check and digest need every cell.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time

from benchlib import Context, Outcome, split_setups

#: set-ups per run, half before the timed phase and half after the checks;
#: ``setup_s`` is their median
SETUP_REPEATS = 4
STRATEGIES = ("global_weight", "layer_weight", "global_gradient", "random")
COMPRESSIONS = (2, 4, 8, 16, 32)
#: relative distance allowed between a row's actual and target compression
COMPRESSION_TOLERANCE = 0.02
NUMERIC = ("actual_compression", "theoretical_speedup", "baseline_top1",
           "baseline_top5", "pre_finetune_top1", "pre_finetune_top5", "top1",
           "top5", "dense_flops", "effective_flops")


def make_config(seed: int):
    from repro.experiment.config import SweepConfig, cifar_finetune_config

    return SweepConfig(
        model="resnet-20",
        dataset="cifar10",
        strategies=STRATEGIES,
        compressions=COMPRESSIONS,
        seeds=(0,),
        model_kwargs={"width_scale": 0.5},
        dataset_kwargs={"n_train": 256, "n_val": 128, "size": 16, "seed": seed},
        pretrain=cifar_finetune_config(epochs=1),
        finetune=cifar_finetune_config(epochs=1),
        executor="serial",
    )


def run(ctx: Context) -> Outcome:
    from repro.experiment import ResultCache, run_config
    from repro.experiment.prune import PruningExperiment

    out = Outcome()
    config = make_config(ctx.seed)
    first = config.expand()[0]

    def setup(rep: int) -> None:
        # a fresh checkpoint store per set-up, so each one really pretrains
        os.environ["REPRO_ARTIFACTS"] = str(ctx.workdir / f"artifacts-{rep}")
        t0 = time.perf_counter()
        PruningExperiment(first).load_pretrained()
        out.setup_s.append(time.perf_counter() - t0)

    before, after = split_setups(SETUP_REPEATS)
    ctx.phase("setup")
    for rep in before:
        setup(rep)  # the last one's checkpoint serves the sweep

    started = {}

    def on_event(event) -> None:
        now = time.perf_counter()
        if event.kind == "start":
            started[event.label] = now
            ctx.begin_op()
        elif event.kind in ("done", "failed"):
            ctx.end_op()
            if event.kind == "done":
                out.ops_s.append(now - started[event.label])
            else:
                out.failed += 1

    ctx.phase("timed")
    cache = ResultCache(ctx.workdir / "cache")
    t0 = time.perf_counter()
    try:
        results = run_config(config, cache=cache, on_event=on_event)
    except Exception as exc:  # a failed cell aborts a serial sweep
        out.problems.append(f"run_config raised {type(exc).__name__}: {exc}")
        results = None
    out.timed_s = time.perf_counter() - t0
    out.attempted = len(out.ops_s) + out.failed
    ctx.phase("check")
    if results is not None:
        check(out, results)
    ctx.phase("setup")
    for rep in after:
        setup(rep)
    return out


def check(out: Outcome, results) -> None:
    """20 finite rows near their target compressions; print the digest."""
    rows = [row.to_dict() for row in results.results]
    expected = len(STRATEGIES) * len(COMPRESSIONS)
    out.check(len(rows) == expected, f"{len(rows)} rows, expected {expected}")
    errors = []
    for row in rows:
        cell = f"{row['strategy']} @ {row['compression']:g}x"
        bad = [k for k in NUMERIC if not math.isfinite(float(row[k]))]
        out.check(not bad, f"{cell}: non-finite {bad}")
        errors.append(abs(row["actual_compression"] / row["compression"] - 1.0))
        out.check(errors[-1] <= COMPRESSION_TOLERANCE,
                  f"{cell}: actual compression {row['actual_compression']:.4f}")
    out.info["worst_compression_error"] = f"{max(errors, default=0.0):.2e}"
    digest = hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]
    out.info["rows_digest"] = digest
