"""queue_microcells: fleet-planned queues drained by one in-process worker.

``fleet_plan`` puts 252 LeNet-300-100 / 8 px micro-cells into a fresh queue
(4 strategies x 5 compressions x 12 seeds, plus the 12 controls).  One
``QueueWorker`` with its default heartbeat and a fresh mirror ``ColumnStore``
(as ``repro worker --store-dir`` runs) drains it with ``run_once``; an op is
one ``run_once``.  A cell computes for about 20 ms, so claim, cache put,
store append and complete are most of each op.  After each drain,
``verify_fleet`` audits the queue and the standard report is built over the
mirror; together they are one ``report_s`` sample.

A run drains ``DRAINS`` such queues one after the other, each from its own
set-up and into its own mirror, so every drain repeats the same growth of
the mirror from 0 to 252 segments.  One drain lasts about 18 s on a 2-core
x86 VM, short enough for one slow stretch of a shared host to move a run's
figures; two drains measure twice as long, and the ops at each point of the
growth come from two stretches of the run.
"""

from __future__ import annotations

import os
import statistics
import time

from benchlib import Context, Outcome, split_setups

#: set-ups per run, half before the timed phase and half after the checks;
#: ``setup_s`` is their median.  A set-up takes about 0.3 s, short enough
#: for the host's second-to-second speed to move each sample, so there are
#: many of them.
SETUP_REPEATS = 10
#: queues drained in the timed phase, one after the other
DRAINS = 2
STRATEGIES = ("global_weight", "layer_weight", "global_gradient", "random")
COMPRESSIONS = (1, 2, 4, 8, 16, 32)
SEEDS = tuple(range(12))


def make_config(seed: int):
    from repro.experiment.config import SweepConfig, cifar_finetune_config

    return SweepConfig(
        model="lenet-300-100",
        dataset="cifar10",
        strategies=STRATEGIES,
        compressions=COMPRESSIONS,
        seeds=SEEDS,
        model_kwargs={"input_size": 8, "in_channels": 3},
        dataset_kwargs={"n_train": 128, "n_val": 64, "size": 8, "seed": seed},
        pretrain=cifar_finetune_config(epochs=1),
        finetune=cifar_finetune_config(epochs=1),
    )


def run(ctx: Context) -> Outcome:
    from repro.analysis.report import build_report_from_store, report_json_text
    from repro.experiment import QueueWorker, ResultCache, WorkQueue
    from repro.experiment.prune import PruningExperiment
    from repro.fleet import fleet_plan, verify_fleet
    from repro.store import ColumnStore

    out = Outcome()
    config = make_config(ctx.seed)
    first = config.expand()[0]

    plan_s, report_s, verify_s = [], [], []

    def setup(rep: int):
        queue_dir = ctx.workdir / f"queue-{rep}"
        os.environ["REPRO_ARTIFACTS"] = str(ctx.workdir / f"artifacts-{rep}")
        t0 = time.perf_counter()
        manifest = fleet_plan(config, queue_dir)
        t1 = time.perf_counter()
        PruningExperiment(first).load_pretrained()
        out.setup_s.append(time.perf_counter() - t0)
        plan_s.append(t1 - t0)
        return rep, queue_dir, manifest

    before, after = split_setups(SETUP_REPEATS)
    ctx.phase("setup")
    # the last DRAINS set-ups' queues are drained
    queues = [setup(rep) for rep in before][-DRAINS:]

    drains = []
    for i, (rep, queue_dir, manifest) in enumerate(queues):
        # the checkpoint of the set-up that planned this queue serves it
        os.environ["REPRO_ARTIFACTS"] = str(ctx.workdir / f"artifacts-{rep}")
        mirror_dir = ctx.workdir / f"mirror-{i}"
        queue = WorkQueue(queue_dir)
        worker = QueueWorker(queue, ResultCache(queue_dir / "cache"),
                             worker_id="perfbench", store=ColumnStore(mirror_dir))

        ctx.phase("timed")
        t_start = time.perf_counter()
        while True:
            ctx.begin_op()
            t0 = time.perf_counter()
            claimed = worker.run_once()
            dt = time.perf_counter() - t0
            ctx.end_op()
            if not claimed:
                break
            out.ops_s.append(dt)
        out.timed_s += time.perf_counter() - t_start
        done = queue.counts().get("done", 0)

        ctx.phase("post")
        t0 = time.perf_counter()
        audit, _ = verify_fleet(queue_dir, store_dir=mirror_dir)
        t1 = time.perf_counter()
        mirror = ColumnStore(mirror_dir)
        report_json_text(build_report_from_store(mirror))
        t2 = time.perf_counter()
        report_s.append(t2 - t0)
        verify_s.append(t1 - t0)
        drains.append((manifest, done, audit, mirror))

    out.attempted = len(out.ops_s)
    out.failed = out.attempted - sum(done for _, done, _, _ in drains)
    out.samples["report_s"] = (report_s, "s")
    out.layer["fleet.verify_s"] = statistics.median(verify_s)
    out.layer["fleet.verify.problems"] = sum(
        len(v) for _, _, audit, _ in drains for v in audit.problems().values())

    ctx.phase("check")
    with ctx.untraced():
        for i, (manifest, done, audit, mirror) in enumerate(drains):
            planned = {h for batch in manifest["batches"] for h in batch["hashes"]}
            out.check(audit.clean,
                      f"drain {i}: verify_fleet is not clean: {audit.problems()}")
            out.check(done == len(planned),
                      f"drain {i}: {done} cells done of {len(planned)}")
            frame = mirror.to_frame()
            keys = mirror.keys()
            out.check(len(frame) == len(planned) and keys == planned,
                      f"drain {i}: mirror holds {len(frame)} rows / {len(keys)} "
                      f"keys for {len(planned)} planned cells")
        out.layer["store.segments"] = len(mirror.segments())
    out.layer["store.manifest_kb"] = mirror.manifest_path.stat().st_size / 1024.0

    ctx.phase("setup")
    for rep in after:
        setup(rep)
    out.layer["fleet.plan_s"] = statistics.median(plan_s)
    return out
