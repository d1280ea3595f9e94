"""``python -m repro`` — the single reproduction command line.

Subcommands::

    python -m repro run sweep.json        # execute a declarative sweep
    python -m repro report SOURCE         # §6 standard report from a sweep
    python -m repro serve SOURCE...       # long-running JSON results server
    python -m repro worker QUEUE_DIR      # pull + run cells from a work queue
    python -m repro queue stats|retry-failed|compact|watch QUEUE_DIR
    python -m repro fleet plan sweep.json QUEUE_DIR    # batch-submit a sweep
    python -m repro fleet launch hosts.txt QUEUE_DIR   # start the workers
    python -m repro fleet verify QUEUE_DIR [--retry]   # audit done vs cache
    python -m repro bench [PATTERN]       # performance microbenchmark suite
    python -m repro expand sweep.json     # dry-run: list cells + spec hashes
    python -m repro ls [models|datasets|strategies|schedules|optimizers|executors|kernels]
    python -m repro cache stats|gc|clear  # result-cache maintenance
    python -m repro --version

``report`` closes the loop on a finished sweep: point it at a saved
``results.json``, a result-cache directory, or a work-queue directory
(all three yield point-for-point identical curves) and it prints the
paper's §6 standard report — per-strategy accuracy-vs-compression and
accuracy-vs-speedup curves, the seeds × strategies summary table,
Pareto-dominant operating points, and the Appendix B checklist audit —
with ``--csv`` exporting the curve data::

    python -m repro run sweep.json --out results.json
    python -m repro report results.json --csv curves.csv
    python -m repro report /shared/q      # straight off the queue directory

``run`` takes a :class:`~repro.experiment.config.SweepConfig` JSON file (the
schema is documented in :mod:`repro.experiment.config`) and drives
expand → (shard) → execute → assemble, with the same parallelism and
multi-machine sharding flags the old ``python -m repro.experiment.sweep``
CLI offered::

    python -m repro run sweep.json --workers 4 --out results.json
    machine A:  python -m repro run sweep.json --shard 0/2
    machine B:  python -m repro run sweep.json --shard 1/2
    afterwards: python -m repro run sweep.json   # assembles from cache hits

``expand`` prints every cell the config describes without executing
anything — useful for eyeballing a grid and for verifying that a config
edit didn't silently change cached-cell identities (hashes are stable
across processes and machines).

``run --executor queue --queue-dir DIR`` submits through the durable work
queue (:mod:`repro.experiment.queue`) instead of local processes; ``worker``
is the other half — run it on every machine that shares ``DIR`` (NFS,
sshfs, rsync) and cells are claimed, executed, and published through the
shared result cache (default ``DIR/cache``) with crash-safe leases and
bounded retries::

    terminal A:  python -m repro run sweep.json --executor queue --queue-dir /shared/q
    terminal B:  python -m repro worker /shared/q --idle-timeout 60

``worker --import MODULE`` imports MODULE first so custom registered
components (models, datasets, strategies) exist in the worker process too.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from typing import List, Optional

from .experiment.cache import ResultCache, spec_hash
from .experiment.config import SweepConfig
from .experiment.datasets import DATASETS
from .experiment.executor import (
    EXECUTORS,
    ProgressEvent,
    executor_for,
    shard_specs,
    spec_label,
)
from .experiment.queue import QueueWorker, WorkQueue
from .experiment.runner import assemble_results
from .kernels import KERNELS, set_backend
from .models import MODELS
from .optim import OPTIMIZERS
from .pruning import SCHEDULES, STRATEGIES

__all__ = ["build_parser", "main"]

#: the single source for ``ls`` — section name → shared Registry instance
REGISTRIES = {
    "models": MODELS,
    "datasets": DATASETS,
    "strategies": STRATEGIES,
    "schedules": SCHEDULES,
    "optimizers": OPTIMIZERS,
    "executors": EXECUTORS,
    "kernels": KERNELS,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _parse_shard(text: str):
    try:
        index, total = text.split("/")
        return int(index), int(total)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"--shard must look like 'i/n' (e.g. 0/4), got {text!r}"
        ) from exc


def _add_command(sub, name: str, help_line: str, example: str):
    """One subparser per command, uniformly documented: a one-line help
    (shown in ``python -m repro -h``) plus a worked example in its own
    ``--help`` epilog."""
    return sub.add_parser(
        name,
        help=help_line,
        description=help_line[0].upper() + help_line[1:] + ".",
        epilog="example:\n  " + example,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction toolkit for 'What is the State of Neural "
        "Network Pruning?' (Blalock et al., MLSys 2020).",
    )
    p.add_argument("--version", action="version",
                   version=f"repro {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    run = _add_command(
        sub, "run",
        "execute a declarative SweepConfig JSON sweep end-to-end",
        "python -m repro run sweep.json --workers 4 --out results.json",
    )
    run.add_argument("config", help="path to a sweep config JSON file")
    run.add_argument("--workers", type=int, default=None,
                     help="override config workers: 1 = serial, 0 = all cores")
    run.add_argument("--executor", default=None,
                     help=f"override config executor; one of {EXECUTORS.available()}")
    run.add_argument("--shard", type=_parse_shard, default=None, metavar="I/N",
                     help="run only round-robin shard I of N (0-based)")
    run.add_argument("--no-cache", action="store_true",
                     help="bypass the on-disk result cache entirely")
    run.add_argument("--cache-dir", default=None,
                     help="result cache root (default: artifacts/results/cache)")
    run.add_argument("--out", default=None,
                     help="write the assembled ResultSet JSON here")
    run.add_argument("--quiet", action="store_true",
                     help="suppress progress lines")
    run.add_argument("--queue-dir", default=None, metavar="DIR",
                     help="work-queue directory for --executor queue "
                          "(shared with `python -m repro worker DIR`)")
    run.add_argument("--lease-timeout", type=float, default=None, metavar="S",
                     help="queue executor: seconds without a heartbeat before "
                          "a worker's cell is re-enqueued")
    run.add_argument("--max-retries", type=int, default=None, metavar="N",
                     help="queue executor: failed-cell retries before "
                          "quarantine (cell runs at most 1+N times)")
    run.add_argument("--wait-timeout", type=float, default=None, metavar="S",
                     help="queue executor: give up if the sweep is still "
                          "unfinished after this many seconds")
    run.add_argument("--kernel-backend", default=None, metavar="NAME",
                     help=f"compute-kernel backend for every cell (one of "
                          f"{KERNELS.available()}); overrides the config's "
                          "executor_options and REPRO_KERNEL_BACKEND")
    run.add_argument("--store-dir", default=None, metavar="DIR",
                     help="after the run, mirror the result cache into this "
                          "binary column store (idempotent; requires the "
                          "cache, i.e. not --no-cache)")

    worker = _add_command(
        sub, "worker",
        "pull cells from a shared work-queue directory and execute them",
        "python -m repro worker /shared/q --idle-timeout 60",
    )
    worker.add_argument("queue_dir", help="queue directory created by "
                        "`python -m repro run --executor queue --queue-dir`")
    worker.add_argument("--cache-dir", default=None,
                        help="shared result cache root "
                             "(default: <queue-dir>/cache)")
    worker.add_argument("--import", dest="imports", action="append",
                        default=[], metavar="MODULE",
                        help="import MODULE before working (registers custom "
                             "models/datasets/strategies); repeatable")
    worker.add_argument("--worker-id", default=None,
                        help="lease owner name (default: <hostname>-<pid>)")
    worker.add_argument("--once", action="store_true",
                        help="process at most one cell, then exit "
                             "(exits immediately when the queue is empty)")
    worker.add_argument("--max-cells", type=int, default=None,
                        help="exit after claiming this many cells")
    worker.add_argument("--idle-timeout", type=float, default=None, metavar="S",
                        help="exit after the queue stays empty this long "
                             "(default: wait for work forever)")
    worker.add_argument("--quiet", action="store_true",
                        help="suppress progress lines")
    worker.add_argument("--kernel-backend", default=None, metavar="NAME",
                        help="compute-kernel backend for claimed cells "
                             "(default: the submitter's choice stored in "
                             "queue.json, else REPRO_KERNEL_BACKEND)")
    worker.add_argument("--store-dir", default=None, metavar="DIR",
                        help="also publish finished rows to this binary "
                             "column store (the JSON cache stays the "
                             "canonical interchange copy)")

    report = _add_command(
        sub, "report",
        "print the §6 standard report for a finished sweep "
        "(results.json, result-cache dir, or queue dir)",
        "python -m repro report results.json --csv curves.csv --json report.json",
    )
    report.add_argument("source", help="results JSON file, result-cache "
                        "directory, work-queue directory, or binary "
                        "column-store directory")
    report.add_argument("--y", default="top1", choices=["top1", "top5"],
                        help="quality metric on the curves (default: top1)")
    report.add_argument("--csv", default=None, metavar="PATH",
                        help="also export the curve data "
                             "(strategy, x_metric, x, mean, std, n) as CSV")
    report.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="queue-dir sources only: read rows from this "
                             "shared result cache instead of "
                             "<queue-dir>/cache (mirrors run/worker "
                             "--cache-dir)")
    report.add_argument("--json", default=None, metavar="PATH",
                        dest="json_out",
                        help="write the machine-readable report JSON "
                             "(schema in docs/FORMATS.md) here; '-' for stdout")
    report.add_argument("--width", type=int, default=64,
                        help="ASCII plot width in columns")

    serve = _add_command(
        sub, "serve",
        "serve sweep results over HTTP (report/curves/pareto/summary/query "
        "JSON endpoints with ETag caching)",
        "python -m repro serve results.json --port 8751\n"
        "  curl -s localhost:8751/report | python -m json.tool\n"
        "  curl -s localhost:8751/query -d "
        "'{\"filter\": {\"strategy\": \"global_weight\"}}'",
    )
    serve.add_argument("sources", nargs="+", metavar="SOURCE",
                       help="results JSON file, result-cache directory, "
                            "work-queue directory, or binary column-store "
                            "directory; repeatable (each becomes a named "
                            "frame, NAME=PATH to name explicitly)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=_nonneg_int, default=8751,
                       help="bind port; 0 picks a free one (default: 8751)")
    serve.add_argument("--reload-interval", type=_nonneg_float, default=0.0,
                       metavar="S",
                       help="poll path-backed sources every S seconds and "
                            "atomically reload changed ones (still-draining "
                            "queue dirs converge live; default: off)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="queue-dir sources only: read rows from this "
                            "shared result cache instead of <queue-dir>/cache")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request and reload log lines "
                            "(the startup URL line is always printed)")

    queue = _add_command(
        sub, "queue",
        "work-queue maintenance (stats, retry quarantined cells, GC markers)",
        "python -m repro queue stats /shared/q",
    )
    queue_sub = queue.add_subparsers(dest="queue_command", required=True)
    qstats = queue_sub.add_parser(
        "stats", help="pending/leased/done/failed counts, lease ages, "
                      "quarantine roster"
    )
    qretry = queue_sub.add_parser(
        "retry-failed",
        help="re-enqueue quarantined cells with a fresh retry budget",
    )
    qcompact = queue_sub.add_parser(
        "compact", help="GC done/ markers (results stay in the cache)"
    )
    qcompact.add_argument("--max-age-days", type=float, default=None,
                          help="only remove markers older than this many days "
                               "(default: all)")
    qwatch = queue_sub.add_parser(
        "watch", help="live progress dashboard (counts, per-worker "
                      "heartbeats, throughput, ETA); exits when the queue "
                      "drains"
    )
    qwatch.add_argument("--interval", type=_nonneg_float, default=2.0,
                        metavar="S",
                        help="seconds between refreshes (default: 2)")
    qwatch.add_argument("--iterations", type=_positive_int, default=None,
                        metavar="N",
                        help="stop after N refreshes even if not drained "
                             "(for scripts/CI; default: until drained)")
    qwatch.add_argument("--no-clear", action="store_true",
                        help="append refreshes instead of clearing the "
                             "screen (log-friendly)")
    for sp in (qstats, qretry, qcompact, qwatch):
        sp.add_argument("queue_dir", help="work-queue directory")

    fleet = _add_command(
        sub, "fleet",
        "fleet-scale sweep orchestration: plan batches, launch workers "
        "from a hosts file, verify done markers against the cache",
        "python -m repro fleet plan sweep.json /shared/q\n"
        "  python -m repro fleet launch hosts.txt /shared/q\n"
        "  python -m repro queue watch /shared/q\n"
        "  python -m repro fleet verify /shared/q --retry",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fplan = fleet_sub.add_parser(
        "plan",
        help="expand a sweep config and submit it in recorded batches "
             "(writes <queue-dir>/fleet/batch_manifest.json)",
    )
    fplan.add_argument("config", help="path to a sweep config JSON file")
    fplan.add_argument("queue_dir", help="work-queue directory "
                       "(created if missing)")
    fplan.add_argument("--batch-size", type=_positive_int, default=64,
                       metavar="N",
                       help="cells per recorded batch (default: 64)")
    fplan.add_argument("--dry-run", action="store_true",
                       help="write the batch manifest without submitting "
                            "anything to pending/")
    fplan.add_argument("--force", action="store_true",
                       help="replace an existing plan made from a "
                            "different config")
    fplan.add_argument("--lease-timeout", type=float, default=None,
                       metavar="S",
                       help="queue lease timeout (default: the config's "
                            "executor_options, else the queue default)")
    fplan.add_argument("--max-retries", type=_nonneg_int, default=None,
                       help="queue retry budget (default: the config's "
                            "executor_options, else the queue default)")
    fplan.add_argument("--kernel-backend", default=None, metavar="NAME",
                       help="kernel backend recorded in queue.json for "
                            "workers (default: the config's "
                            "executor_options)")
    flaunch = fleet_sub.add_parser(
        "launch",
        help="start `repro worker` processes on every host in a hosts "
             "file (logs + PID manifest under <queue-dir>/fleet/)",
    )
    flaunch.add_argument("hosts_file",
                         help="one host per line: `local workers=4`, "
                              "`gpu-box workers=8 launcher=ssh` "
                              "(# comments allowed)")
    flaunch.add_argument("queue_dir",
                         help="work-queue directory (plan it first)")
    flaunch.add_argument("--workers", type=_positive_int, default=1,
                         help="workers per host when a line has no "
                              "workers= option (default: 1)")
    flaunch.add_argument("--import", dest="imports", action="append",
                         default=[], metavar="MODULE",
                         help="passed through to every worker "
                              "(registers custom components); repeatable")
    flaunch.add_argument("--idle-timeout", type=float, default=None,
                         metavar="S",
                         help="workers exit after the queue stays empty "
                              "this long (default: wait forever)")
    flaunch.add_argument("--max-cells", type=int, default=None,
                         help="each worker exits after claiming this many "
                              "cells")
    flaunch.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="shared result cache for the workers "
                              "(default: <queue-dir>/cache)")
    flaunch.add_argument("--store-dir", default=None, metavar="DIR",
                         help="workers also publish rows to this binary "
                              "column store")
    flaunch.add_argument("--kernel-backend", default=None, metavar="NAME",
                         help="kernel backend for the workers (default: "
                              "the submitter's choice in queue.json)")
    fverify = fleet_sub.add_parser(
        "verify",
        help="audit done/ markers against the result cache (ghost-done "
             "cells, corrupt markers, orphan/mismatched cache entries); "
             "--retry re-enqueues the gaps",
    )
    fverify.add_argument("queue_dir", help="work-queue directory")
    fverify.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="shared result cache the workers published "
                              "to (default: <queue-dir>/cache)")
    fverify.add_argument("--store-dir", default=None, metavar="DIR",
                         help="also check done cells against this binary "
                              "column store's stored keys")
    fverify.add_argument("--retry", action="store_true",
                         help="repair: requeue expired leases, re-enqueue "
                              "ghost/corrupt/missing cells, drop orphan "
                              "cache entries, retry quarantined cells")
    fverify.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the audit (and repairs) as JSON")

    bench = _add_command(
        sub, "bench",
        "run the performance microbenchmark suite over the repo's hot paths",
        "python -m repro bench frame --json BENCH_dev.json --compare BENCH_main.json",
    )
    bench.add_argument("pattern", nargs="?", default=None,
                       help="only run benchmarks whose name matches this "
                            "glob or substring (default: the full suite)")
    bench.add_argument("--list", action="store_true", dest="list_only",
                       help="list matching benchmarks without running them")
    bench.add_argument("--json", default=None, metavar="PATH", dest="json_out",
                       help="write the machine-readable report "
                            "(schema in docs/FORMATS.md) here")
    bench.add_argument("--tag", default=None,
                       help="free-form label recorded in the JSON report")
    bench.add_argument("--compare", default=None, metavar="BASELINE",
                       help="compare medians against a previous --json "
                            "report; exit 1 on any regression")
    bench.add_argument("--threshold", type=_nonneg_float, default=20.0,
                       metavar="PCT",
                       help="median slowdown vs baseline that counts as a "
                            "regression (default: 20%%)")
    bench.add_argument("--repeats", type=_positive_int, default=5,
                       help="timed reps per benchmark (default: 5)")
    bench.add_argument("--warmup", type=_nonneg_int, default=1,
                       help="untimed warmup calls per benchmark (default: 1)")
    bench.add_argument("--min-time", type=_nonneg_float, default=0.05,
                       metavar="S",
                       help="minimum seconds per rep; fast functions are "
                            "looped to reach it (default: 0.05)")
    bench.add_argument("--no-mem", action="store_true",
                       help="skip RSS/allocation tracking")
    bench.add_argument("--kernel-backend", default=None, metavar="NAME",
                       help="run backend-dispatching benches under this "
                            "kernel backend (per-backend twin benches pin "
                            "their own backend regardless)")

    expand = _add_command(
        sub, "expand",
        "list a config's cells and spec hashes without running anything",
        "python -m repro expand sweep.json --json",
    )
    expand.add_argument("config", help="path to a sweep config JSON file")
    expand.add_argument("--json", action="store_true", dest="as_json",
                        help="emit machine-readable JSON (one spec per entry)")

    ls = _add_command(
        sub, "ls",
        "list registered components (models, strategies, executors, ...)",
        "python -m repro ls strategies",
    )
    ls.add_argument("registry", nargs="?", default=None,
                    choices=sorted(REGISTRIES), metavar="REGISTRY",
                    help=f"one of {sorted(REGISTRIES)} (default: all)")

    cache = _add_command(
        sub, "cache",
        "result-cache maintenance (stats, GC stale/aged entries, clear)",
        "python -m repro cache gc --max-age-days 30",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    stats = cache_sub.add_parser("stats", help="entry counts, size, schemas")
    gc = cache_sub.add_parser(
        "gc", help="drop stale-schema orphans; optionally evict by age/count"
    )
    gc.add_argument("--max-age-days", type=float, default=None,
                    help="also delete entries older than this many days")
    gc.add_argument("--max-entries", type=int, default=None,
                    help="also evict the oldest entries beyond this count")
    clear = cache_sub.add_parser("clear", help="delete every cache entry")
    for sp in (stats, gc, clear):
        sp.add_argument("--cache-dir", default=None,
                        help="result cache root (default: artifacts/results/cache)")

    store = _add_command(
        sub, "store",
        "binary column-store maintenance (ingest JSON artifacts, stats, "
        "compact)",
        "python -m repro store ingest results.json sweep_store/",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    singest = store_sub.add_parser(
        "ingest",
        help="chunked merge of a results.json / result-cache dir / "
             "work-queue dir into a store",
    )
    singest.add_argument("source", help="results JSON file, result-cache "
                         "directory, or work-queue directory")
    singest.add_argument("store_dir", help="column-store directory "
                         "(created on first ingest)")
    singest.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="queue-dir sources only: read rows from this "
                              "shared result cache instead of "
                              "<queue-dir>/cache")
    singest.add_argument("--chunk-rows", type=_positive_int, default=65536,
                         metavar="N",
                         help="rows per sealed segment while streaming "
                              "(default: 65536)")
    singest.add_argument("--no-skip-existing", action="store_true",
                         help="re-append rows whose spec hash is already "
                              "stored (the new generation supersedes on "
                              "read; compact makes it physical)")
    singest.add_argument("--quiet", action="store_true",
                         help="suppress the per-chunk progress lines")
    sstats = store_sub.add_parser(
        "stats", help="rows, segments, columns, size, fingerprint"
    )
    sstats.add_argument("--segments", action="store_true",
                        help="also list every segment with its rows, "
                             "columns, and zone-map min/max stats")
    scompact = store_sub.add_parser(
        "compact",
        help="coalesce segments into one and drop superseded generations "
             "(also backfills zone-map stats)",
    )
    sanalyze = store_sub.add_parser(
        "analyze",
        help="backfill zone-map stats into segments written before stats "
             "existed (in place; the fingerprint does not change)",
    )
    for sp in (sstats, scompact, sanalyze):
        sp.add_argument("store_dir", help="column-store directory")
    return p


def _cmd_ls(args) -> int:
    names = [args.registry] if args.registry else list(REGISTRIES)
    for name in names:
        if len(names) > 1:
            print(f"{name}:")
            for entry in REGISTRIES[name].available():
                print(f"  {entry}")
        else:
            for entry in REGISTRIES[name].available():
                print(entry)
    return 0


def _cmd_expand(args) -> int:
    config = SweepConfig.load(args.config)
    specs = config.expand()
    if args.as_json:
        print(json.dumps(
            [{"hash": spec_hash(s), **s.to_dict()} for s in specs],
            indent=1, default=float,
        ))
    else:
        for spec in specs:
            print(f"{spec_hash(spec)}  {spec_label(spec)}")
        print(f"{len(specs)} cell(s)")
    return 0


def _progress_printer():
    def on_event(event: ProgressEvent) -> None:
        who = f" w{event.worker}" if event.worker is not None else ""
        if event.kind == "cache-hit":
            print(f"  [{event.done}/{event.total} {event.elapsed:.1f}s] "
                  f"{event.label} [cache hit]", flush=True)
        elif event.kind == "done":
            print(f"  [{event.done}/{event.total}{who} {event.elapsed:.1f}s] "
                  f"{event.label} [done]", flush=True)
        elif event.kind == "failed":
            # last traceback line = the exception itself ("CrashyError: ...")
            reason = ""
            if event.failure:
                reason = " — " + event.failure.strip().splitlines()[-1]
            print(f"  [{event.done}/{event.total} {event.elapsed:.1f}s] "
                  f"{event.label} [FAILED]{reason}", flush=True)
        elif event.kind == "pretrain":
            print(f"  pretraining shared checkpoint {event.label}", flush=True)

    return on_event


def _cmd_run(args) -> int:
    config = SweepConfig.load(args.config)
    specs = config.expand()
    if args.shard is not None:
        index, total = args.shard
        specs = shard_specs(specs, index, total)

    executor_name = args.executor or config.executor
    # config-file executor options belong to the config's executor; an
    # --executor override switches to a different constructor, so only
    # flag-provided options apply there
    options = dict(config.executor_options) if executor_name == config.executor else {}
    queue_flags = {
        key: getattr(args, key)
        for key in ("queue_dir", "lease_timeout", "max_retries", "wait_timeout")
        if getattr(args, key) is not None
    }
    if queue_flags and executor_name != "queue":
        flags = ", ".join("--" + k.replace("_", "-") for k in queue_flags)
        raise ValueError(
            f"{flags} only apply to the queue executor — add "
            f"--executor queue (current executor: {executor_name!r})"
        )
    options.update(queue_flags)
    if args.kernel_backend is not None:
        # precedence: REPRO_KERNEL_BACKEND env < executor_options < CLI flag
        options["kernel_backend"] = args.kernel_backend
    if args.no_cache and executor_name == "queue":
        raise ValueError(
            "--no-cache cannot be combined with the queue executor: the "
            "shared result cache is how workers deliver rows back (clear "
            "<queue-dir>/cache instead to force re-execution)"
        )
    if args.no_cache and args.store_dir is not None:
        raise ValueError(
            "--store-dir mirrors the result cache into the binary store, "
            "so it cannot be combined with --no-cache"
        )

    if args.no_cache:
        cache = None
    elif (executor_name == "queue" and args.cache_dir is None
            and "queue_dir" in options):
        # queue runs default the cache INTO the queue directory so workers
        # started with just `python -m repro worker <queue-dir>` share it
        cache = ResultCache(Path(options["queue_dir"]) / "cache")
    else:
        cache = ResultCache(args.cache_dir)
    on_event = None if args.quiet else _progress_printer()
    workers = args.workers if args.workers is not None else config.workers
    if (args.executor is None and args.workers is not None
            and config.executor in ("serial", "parallel")
            and not (options.keys() - {"kernel_backend"})):
        # a bare --workers override on a builtin executor picks
        # serial/parallel from the count, like the old CLI; a custom
        # registered executor keeps its name and just gets the new count
        executor = executor_for(
            workers, cache=cache, on_event=on_event,
            kernel_backend=options.get("kernel_backend"),
        )
    else:
        executor = EXECUTORS.create(
            executor_name, workers=workers or None, cache=cache,
            on_event=on_event, **options,
        )

    backend = getattr(executor, "kernel_backend", None)
    print(f"{len(specs)} spec(s) to execute via "
          f"{type(executor).__name__}(workers={executor.workers})"
          + (f" [kernel backend: {backend}]" if backend else ""),
          flush=True)
    rows = executor.run(specs)
    results = assemble_results(
        specs, rows, config.strategies,
        replicate_baselines=config.dedupe_baselines,
    )

    if args.store_dir is not None and cache is not None:
        from .store import ColumnStore

        stats = ColumnStore(args.store_dir).ingest(cache.root)
        print(f"store {args.store_dir}: +{stats['rows_appended']} row(s), "
              f"{stats['rows_skipped']} already stored")

    failed = [r for r in results if r.extra.get("failed")]
    if args.out:
        results.save(args.out)
        print(f"wrote {len(results)} rows to {args.out}")
    else:
        for r in results:
            if r.extra.get("failed"):
                print(f"{r.strategy:16s} c={r.compression:<5g} seed={r.seed} "
                      f"FAILED after {r.extra.get('attempts', '?')} attempt(s)")
            else:
                print(f"{r.strategy:16s} c={r.compression:<5g} seed={r.seed} "
                      f"top1={r.top1:.3f} (Δ{r.delta_top1:+.3f}) "
                      f"actual={r.actual_compression:.2f}x")
    if failed:
        print(f"WARNING: {len(failed)} quarantined cell(s) — see each row's "
              "extra['failures'] for tracebacks", file=sys.stderr)
        return 1  # scripted callers must not mistake a partial table for success
    return 0


def _cmd_report(args) -> int:
    from .analysis import (
        build_report,
        is_queue_dir,
        load_frame,
        queue_outstanding,
        render_report,
        write_report_csv,
    )

    from .store import is_store_dir

    source = Path(args.source)
    if args.cache_dir is not None and not (source.is_dir() and is_queue_dir(source)):
        print("--cache-dir only applies when SOURCE is a work-queue "
              "directory", file=sys.stderr)
        return 2
    # a queue directory may still be draining: a report over it is partial,
    # and the JSON document says so (``outstanding``), not just stderr
    counts = queue_outstanding(source)
    outstanding = sum(counts.values())
    try:
        if source.is_dir() and is_store_dir(source):
            # load only the columns the report reads (byte-identical to
            # reporting over the whole frame)
            from .analysis.report import build_report_from_store
            from .store import ColumnStore

            store = ColumnStore(source)
            if not store.rows():
                print(f"no result rows found in {args.source}",
                      file=sys.stderr)
                return 2
            report = build_report_from_store(store, y=args.y,
                                             outstanding=counts)
        else:
            frame = load_frame(source, cache_dir=args.cache_dir)
            if not len(frame):
                print(f"no result rows found in {args.source}",
                      file=sys.stderr)
                return 2
            report = build_report(frame, y=args.y, outstanding=counts)
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json_out == "-":
        from .analysis import report_json_text

        print(report_json_text(report))
    else:
        print(render_report(report, width=args.width))
    if args.csv:
        path = write_report_csv(report, args.csv)
        # with the JSON document on stdout, notices must not corrupt it
        notice = sys.stderr if args.json_out == "-" else sys.stdout
        print(f"\ncurve data -> {path}", file=notice)
    if args.json_out and args.json_out != "-":
        from .analysis import write_report_json

        path = write_report_json(report, args.json_out)
        print(f"report JSON -> {path}")
    if outstanding:
        print(f"WARNING: {outstanding} cell(s) still pending/leased in "
              f"{source} — this report is partial", file=sys.stderr)
    return 1 if (report.n_failed or outstanding) else 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from .serve import FrameSource, ResultsServer

    sources = []
    taken = set()
    for raw in args.sources:
        name, sep, path_text = raw.partition("=")
        if not sep:
            name, path_text = "", raw
        path = Path(path_text)
        if not name:
            name = path.name or str(path)
        if name in taken:  # two results.json from different dirs, say
            base, n = name, 2
            while name in taken:
                name, n = f"{base}-{n}", n + 1
        taken.add(name)
        sources.append(FrameSource(name, path, cache_dir=args.cache_dir))

    log = None if args.quiet else (lambda msg: print(msg, flush=True))
    server = ResultsServer(
        sources, host=args.host, port=args.port,
        reload_interval=args.reload_interval, log=log,
    )
    try:
        server.start()  # loads every source up front: bad paths fail here
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    # always printed (even --quiet): with --port 0 this line is the only
    # place scripts can learn the assigned port
    print(f"serving {len(sources)} frame(s) on {server.url}", flush=True)

    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    try:
        stop.wait()
    finally:
        server.stop()
    if not args.quiet:
        print("shut down cleanly", flush=True)
    return 0


def _cmd_queue(args) -> int:
    from .analysis import is_queue_dir

    # WorkQueue() scaffolds the layout on construction; a maintenance
    # command must not do that to an arbitrary (e.g. cache) directory
    if not is_queue_dir(args.queue_dir):
        print(f"no work queue at {args.queue_dir} (missing queue.json)",
              file=sys.stderr)
        return 2
    if args.queue_command == "watch":
        from .fleet import watch_queue

        return watch_queue(
            args.queue_dir,
            interval=args.interval,
            iterations=args.iterations,
            clear=not args.no_clear,
        )
    queue = WorkQueue(args.queue_dir)
    if args.queue_command == "stats":
        stats = queue.stats()
        print(f"queue         : {stats['root']}")
        print(f"lease timeout : {stats['lease_timeout']:g}s")
        print(f"max retries   : {stats['max_retries']}")
        for state in ("pending", "leased", "done", "failed"):
            print(f"{state:14s}: {stats['counts'][state]}")
        if stats["leases"]:
            print("live leases:")
            for lease in stats["leases"]:
                flag = "  EXPIRED" if lease["expired"] else ""
                print(f"  {lease['hash']}  worker={lease['worker']} "
                      f"age={lease['age']:.1f}s{flag}")
        if stats["failed"]:
            print("quarantined:")
            for cell in stats["failed"]:
                print(f"  {cell['hash']}  attempts={cell['attempts']}"
                      + (f"  {cell['error']}" if cell["error"] else ""))
    elif args.queue_command == "retry-failed":
        retried = queue.retry_failed()
        print(f"re-enqueued {len(retried)} quarantined cell(s); "
              f"queue: {queue.counts()}")
    else:
        max_age = None
        if args.max_age_days is not None:
            max_age = args.max_age_days * 86400.0
        removed = queue.compact(max_age=max_age)
        print(f"removed {removed} done marker(s); queue: {queue.counts()}")
    return 0


def _cmd_fleet(args) -> int:
    from . import fleet

    if args.fleet_command == "plan":
        config = SweepConfig.load(args.config)
        try:
            manifest = fleet.fleet_plan(
                config,
                args.queue_dir,
                batch_size=args.batch_size,
                lease_timeout=args.lease_timeout,
                max_retries=args.max_retries,
                kernel_backend=args.kernel_backend,
                submit=not args.dry_run,
                force=args.force,
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        verb = "planned (dry run)" if args.dry_run else "planned"
        print(f"{verb} {manifest['n_cells']} cell(s) in "
              f"{len(manifest['batches'])} batch(es) of "
              f"<= {manifest['batch_size']} "
              f"(config {manifest['config_hash']}) -> "
              f"{fleet.batch_manifest_path(args.queue_dir)}")
        for batch in manifest["batches"]:
            print(f"  batch {batch['index']:>3}: "
                  f"{len(batch['hashes'])} cell(s), "
                  f"{batch['submitted']} submitted, "
                  f"{batch['already_done']} done, "
                  f"{batch['already_queued']} queued")
        return 0

    if args.fleet_command == "launch":
        try:
            hosts = fleet.parse_hosts_file(
                args.hosts_file, default_workers=args.workers
            )
            manifest = fleet.launch_fleet(
                hosts,
                args.queue_dir,
                imports=args.imports,
                idle_timeout=args.idle_timeout,
                max_cells=args.max_cells,
                cache_dir=args.cache_dir,
                store_dir=args.store_dir,
                kernel_backend=args.kernel_backend,
                progress=lambda msg: print(msg, flush=True),
            )
        except (OSError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        total = sum(h.workers for h in hosts)
        print(f"launched {total} worker(s) on {len(hosts)} host(s); "
              f"manifest: {fleet.fleet_manifest_path(args.queue_dir)}")
        return 0

    # verify
    from .analysis import is_queue_dir

    if not is_queue_dir(args.queue_dir):
        print(f"no work queue at {args.queue_dir} (missing queue.json)",
              file=sys.stderr)
        return 2
    cache_dir = args.cache_dir or Path(args.queue_dir) / "cache"
    audit, repairs = fleet.verify_fleet(
        args.queue_dir,
        cache_dir=cache_dir,
        store_dir=args.store_dir,
        retry=args.retry,
    )
    if args.as_json:
        print(json.dumps({"audit": audit.to_dict(), "repairs": repairs},
                         indent=1))
        return 0 if audit.clean else 1
    print(f"queue   : {audit.queue_dir}")
    print(f"cache   : {audit.cache_dir}")
    print(f"planned : {audit.planned}   done: {audit.done}   "
          f"cached: {audit.cached}")
    if audit.clean:
        print("audit   : clean — every done marker is backed by a cache row")
    else:
        print("audit   : PROBLEMS")
        for name, hashes in audit.problems().items():
            shown = ", ".join(hashes[:4]) + (" ..." if len(hashes) > 4 else "")
            print(f"  {name:<16} {len(hashes):>4}  {shown}")
    if args.retry:
        for action, hashes in repairs.items():
            if hashes:
                print(f"repair  : {action} x{len(hashes)}")
        if not any(repairs.values()):
            print("repair  : nothing to do")
    return 0 if audit.clean else 1


def _cmd_worker(args) -> int:
    for module in args.imports:
        importlib.import_module(module)
    queue = WorkQueue(args.queue_dir)
    cache = ResultCache(args.cache_dir or Path(args.queue_dir) / "cache")
    progress = None if args.quiet else lambda msg: print(msg, flush=True)
    worker = QueueWorker(queue, cache, worker_id=args.worker_id, progress=progress,
                         kernel_backend=args.kernel_backend,
                         store=args.store_dir)
    if not args.quiet:
        counts = queue.counts()
        backend = f"; kernel backend: {worker.kernel_backend}" \
            if worker.kernel_backend else ""
        print(f"worker {worker.worker_id} on {queue.root} "
              f"(cache {cache.root}{backend}; queue: {counts})", flush=True)
    max_cells = 1 if args.once else args.max_cells
    idle_timeout = args.idle_timeout
    if args.once and idle_timeout is None:
        idle_timeout = 0.0  # "at most one" must not block on an empty queue
    claimed = worker.run(max_cells=max_cells, idle_timeout=idle_timeout)
    if not args.quiet:
        print(f"worker {worker.worker_id} exiting after {claimed} cell(s); "
              f"queue: {queue.counts()}", flush=True)
    return 0


def _fmt_seconds(seconds: float) -> str:
    """Human scale: µs below 1 ms, ms below 1 s, else seconds."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:8.2f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:8.2f}ms"
    return f"{seconds:8.3f}s "


def _cmd_bench(args) -> int:
    from .perf import (
        Timer,
        compare_results,
        load_bench_report,
        report_to_dict,
        run_benchmark,
        select_benchmarks,
    )

    if args.kernel_backend is not None:
        set_backend(args.kernel_backend)
    benches = select_benchmarks(args.pattern)
    if not benches:
        print(f"no benchmarks match {args.pattern!r} "
              f"(see `python -m repro bench --list`)", file=sys.stderr)
        return 2
    if args.list_only:
        for bench in benches:
            print(f"{bench.name:34s} {bench.description}")
        return 0

    timer = Timer(warmup=args.warmup, repeats=args.repeats,
                  min_time=args.min_time)
    results = []
    print(f"{len(benches)} benchmark(s), {args.repeats} rep(s), "
          f"min {args.min_time:g}s/rep", flush=True)
    for bench in benches:
        result = run_benchmark(bench, timer, track_mem=not args.no_mem)
        results.append(result)
        alloc = (f"  alloc {result.alloc_peak_kb / 1024:.1f}MiB"
                 if result.alloc_peak_kb is not None else "")
        print(f"  {result.name:34s} median {_fmt_seconds(result.median)}  "
              f"mean {_fmt_seconds(result.mean)} ±{result.std * 1e3:.2f}ms  "
              f"({result.reps}×{result.inner}){alloc}", flush=True)

    if args.json_out:
        payload = report_to_dict(results, tag=args.tag)
        path = Path(args.json_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1))
        print(f"report -> {path}")

    if args.compare:
        try:
            baseline = load_bench_report(args.compare)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"cannot load baseline {args.compare}: {exc}",
                  file=sys.stderr)
            return 2
        comparisons = compare_results(results, baseline["results"],
                                      threshold_pct=args.threshold)
        print(f"\nvs baseline {args.compare} "
              f"(threshold {args.threshold:g}%):")
        for comp in comparisons:
            print(f"  {comp.describe()}")
        regressions = [c for c in comparisons if c.status == "regression"]
        if regressions:
            print(f"FAIL: {len(regressions)} benchmark(s) regressed by more "
                  f"than {args.threshold:g}%", file=sys.stderr)
            return 1
    return 0


def _cmd_cache(args) -> int:
    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        stats = cache.stats()
        print(f"root          : {stats['root']}")
        print(f"entries       : {stats['entries']}")
        print(f"size          : {stats['size_bytes'] / 1024:.1f} KiB")
        print(f"schema        : {stats['schema_version']}")
        print(f"stale entries : {stats['stale_entries']}")
        for schema, count in sorted(stats["by_schema"].items()):
            print(f"  schema {schema}: {count}")
    elif args.cache_command == "gc":
        max_age = None
        if args.max_age_days is not None:
            max_age = args.max_age_days * 86400.0
        removed = cache.gc(max_age=max_age, max_entries=args.max_entries)
        print(f"stale-schema orphans removed : {removed['stale']}")
        print(f"expired (age) removed        : {removed['expired']}")
        print(f"evicted (count) removed      : {removed['evicted']}")
        print(f"entries kept                 : {removed['kept']}")
    else:
        print(f"removed {cache.clear()} entries")
    return 0


def _cmd_store(args) -> int:
    from .store import ColumnStore

    store = ColumnStore(args.store_dir)
    if args.store_command == "ingest":
        source = Path(args.source)
        from .analysis import is_queue_dir

        if args.cache_dir is not None and not (
            source.is_dir() and is_queue_dir(source)
        ):
            print("--cache-dir only applies when SOURCE is a work-queue "
                  "directory", file=sys.stderr)
            return 2
        progress = None if args.quiet else (lambda line: print(line))
        try:
            stats = store.ingest(
                source,
                cache_dir=args.cache_dir,
                chunk_rows=args.chunk_rows,
                skip_existing=not args.no_skip_existing,
                progress=progress,
            )
        except FileNotFoundError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(f"ingested {stats['source']} -> {store.root}")
        print(f"rows appended  : {stats['rows_appended']}")
        print(f"rows skipped   : {stats['rows_skipped']}")
        print(f"segments added : {stats['segments_added']}")
        print(f"store rows     : {store.rows()}")
        return 0
    try:
        if args.store_command == "compact":
            result = store.compact()
            print(f"segments : {result['segments_before']} -> "
                  f"{result['segments_after']}")
            print(f"rows     : {result['rows_before']} -> "
                  f"{result['rows_after']}")
            print(f"swept    : {result['swept_dirs']} stray dir(s)")
            return 0
        if args.store_command == "analyze":
            result = store.analyze()
            print(f"segments : {result['segments']}")
            print(f"analyzed : {result['analyzed']} "
                  "(zone-map stats backfilled)")
            return 0
        stats = store.stats()
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"root        : {stats['root']}")
    print(f"rows        : {stats['rows']}")
    print(f"segments    : {stats['segments']} "
          f"({stats['keyed_segments']} keyed)")
    print(f"columns     : {', '.join(stats['columns'])}")
    print(f"size        : {stats['size_bytes'] / 1024:.1f} KiB")
    print(f"schema      : {stats['schema']}")
    print(f"fingerprint : {stats['fingerprint']}")
    if getattr(args, "segments", False):
        for entry in store.segments():
            _print_segment_stats(entry)
    return 0


def _print_segment_stats(entry) -> None:
    """One ``store stats --segments`` block: rows + per-column zone maps."""
    from .utils.jsonio import restore_nonfinite

    keyed = "keyed" if entry.get("keyed") else "unkeyed"
    print(f"\nsegment {entry['name']} : {entry['rows']} row(s), {keyed}")
    stats = entry.get("stats")
    if not isinstance(stats, dict):
        print("  (no zone-map stats — run `repro store analyze` or "
              "`repro store compact` to backfill)")
        return
    for name, kind in entry["columns"].items():
        col = stats.get(name)
        if not isinstance(col, dict):
            continue
        if kind == "object":
            values = col.get("values")
            pool = (f"{len(values)} distinct value(s)" if values is not None
                    else "pool too large for zone map")
            print(f"  {name:<22}: {kind:<8} {pool}, "
                  f"nulls {col.get('nulls', 0)}")
        else:
            lo = restore_nonfinite(col.get("min"))
            hi = restore_nonfinite(col.get("max"))
            span = "all-null" if lo is None else f"min {lo}, max {hi}"
            print(f"  {name:<22}: {kind:<8} {span}, "
                  f"nulls {col.get('nulls', 0)}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "queue":
        return _cmd_queue(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "expand":
        return _cmd_expand(args)
    if args.command == "ls":
        return _cmd_ls(args)
    if args.command == "store":
        return _cmd_store(args)
    return _cmd_cache(args)


if __name__ == "__main__":
    sys.exit(main())
