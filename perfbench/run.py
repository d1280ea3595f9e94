"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads, metric names and units are listed in ``BENCHMARK.json``; why each
workload exists and what it loads is in ``perfbench/NOTES.md``.

Every run is one process running one workload, with its own scratch
directory under ``.perfbench_work/`` (a fresh ``REPRO_ARTIFACTS``, so no
checkpoint or cached row from another run can serve this one), removed at
exit.  The program's default kernel backend is used with
``REPRO_BLAS_THREADS=1``.  Every workload is fixed work, sized to fit in
``--seconds`` on a 2-core x86 VM: the sweeps' output checks need every
cell, and a fixed request sequence keeps the store workload's mix of cheap
requests and multi-second rebuilds the same however fast the host is.  The
timed phase's length is printed beside ``--seconds``.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` is a separate run that wraps
each layer's public functions and prints per-layer metrics instead.  Output
checks run in both; a wrong output prints ``"correct": false`` and exits 1.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

from benchlib import TAIL_SAMPLES, Context, tail_percentile
from spans import (END, NAME, PHASE, PHASES, START, Recorder, calibrate,
                   install, reduce_spans)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = {
    "sweep_resnet20": "wl_sweep",
    "queue_microcells": "wl_queue",
    "serve_store": "wl_serve",
}
#: per-layer self time is reported for these layers; the rest of op time
#: is unattributed
LAYERS = ("kernels", "autograd", "data", "pruning", "metrics", "experiment",
          "store", "analysis", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(out, ctx) -> dict:
    return {
        "setup_s": statistics.median(out.setup_s),
        "throughput_per_s": len(out.ops_s) / out.timed_s,
        "op_p50_ms": 1000.0 * statistics.median(out.ops_s),
        "peak_rss_mb": ctx.peak_rss_mb,
    }


def print_end_to_end(out, values: dict, units: dict) -> None:
    counts = {"setup_s": len(out.setup_s), "throughput_per_s": len(out.ops_s),
              "op_p50_ms": len(out.ops_s), "peak_rss_mb": 1}
    rows = [(name, values[name], units[name], counts[name]) for name in values]
    q = tail_percentile(len(out.ops_s))
    if q is None:
        print(f"# op tail percentile: none has {TAIL_SAMPLES} samples beyond it "
              f"(n={len(out.ops_s)})")
    else:
        rows.append((f"op_p{q}_ms", 1000.0 * np.percentile(out.ops_s, q), "ms",
                     len(out.ops_s)))
    rows.append(("error_rate", out.failed / max(out.attempted, 1), "fraction",
                 out.attempted))
    for name, (samples, unit) in out.samples.items():
        rows.append((name, statistics.median(samples), unit, len(samples)))
    for name, value, unit, n in rows:
        print(f"# {name:<18} {value:>14.6g} {unit:<9} n={n}")
    print("# setup_s samples: " + " ".join(f"{t:.4f}" for t in out.setup_s))


def layer_metrics(rec, out) -> dict:
    """Per-layer values of a traced run, by the names in BENCHMARK.json."""
    red = reduce_spans(rec)
    busy, calls, work, counts = red["busy"], red["calls"], red["work"], rec.counts
    op_time = red["op_time"]
    values = {
        "kernels.conv2d.busy_s": busy["kernels.conv2d"],
        "kernels.conv2d.calls": calls["kernels.conv2d"],
        "kernels.conv2d.gflop": work["kernels.conv2d"] / 1e9,
        "kernels.other.busy_s": busy["kernels.other"],
        "kernels.other.calls": calls["kernels.other"],
        "autograd.backward.self_s": red["self_by_name"]["autograd.backward"],
        "autograd.backward.calls": calls["autograd.backward"],
        "data.dataset_build.busy_s": busy["data.dataset_build"],
        "data.dataset_build.calls": calls["data.dataset_build"],
        "data.batches.busy_s": busy["data.batches"],
        "pruning.prune.busy_s": busy["pruning.prune"],
        "pruning.mask_apply.busy_s": busy["pruning.mask_apply"],
        "pruning.mask_apply.calls": calls["pruning.mask_apply"],
        "metrics.evaluate.busy_s": busy["metrics.evaluate"],
        "metrics.evaluate.calls": calls["metrics.evaluate"],
        "metrics.flops.busy_s": busy["metrics.flops"],
        "experiment.cell.busy_s": busy["experiment.cell"],
        "experiment.cell.calls": calls["experiment.cell"],
        "experiment.train_epoch.busy_s": busy["experiment.train_epoch"],
        "experiment.train_epoch.calls": calls["experiment.train_epoch"],
        "experiment.pretrain.hits": counts["experiment.pretrain.hits"],
        "experiment.pretrain.misses": counts["experiment.pretrain.misses"],
        "experiment.pretrain.busy_s": busy["experiment.pretrain"],
        "experiment.cache.get_s": busy["experiment.cache.get"],
        "experiment.cache.put_s": busy["experiment.cache.put"],
        "experiment.cache.hits": counts["experiment.cache.hits"],
        "experiment.cache.misses": counts["experiment.cache.misses"],
        "experiment.queue.claim_s": busy["experiment.queue.claim"],
        "experiment.queue.claims": counts["experiment.queue.claims"],
        "experiment.queue.empty_claims": counts["experiment.queue.empty_claims"],
        "experiment.queue.complete_s": busy["experiment.queue.complete"],
        "experiment.queue.requeue_s": busy["experiment.queue.requeue"],
        "experiment.executor.overhead_s": (
            op_time - busy["experiment.cell"] if calls["experiment.cell"] else 0.0),
        "fleet.plan_s": 0.0,
        "fleet.verify_s": 0.0,
        "fleet.verify.problems": 0,
        "store.append.busy_s": busy["store.append"],
        "store.append.calls": calls["store.append"],
        "store.append.last_ms": 0.0,
        "store.manifest_kb": 0.0,
        "store.segments": 0,
        "store.to_frame.busy_s": busy["store.to_frame"],
        "store.to_frame.calls": calls["store.to_frame"],
        "store.scan.segments_selected": 0,
        "store.scan.segments_total": 0,
        "analysis.report.busy_s": busy["analysis.report"],
        "analysis.report.calls": calls["analysis.report"],
        "analysis.report_json.busy_s": busy["analysis.report_json"],
        "analysis.group_by.busy_s": busy["analysis.group_by"],
        "analysis.group_by.calls": calls["analysis.group_by"],
        "analysis.replicate_baselines.busy_s": busy["analysis.replicate_baselines"],
        "analysis.replicate_baselines.calls": calls["analysis.replicate_baselines"],
        "analysis.query.busy_s": busy["analysis.query"],
        "analysis.query.calls": calls["analysis.query"],
        "serve.dispatch.busy_s": busy["serve.dispatch"],
        "serve.dispatch.calls": calls["serve.dispatch"],
        "serve.reload.busy_s": busy["serve.reload"],
        "serve.errors": 0,
    }
    for route in ("query", "summary", "curves", "report", "pareto", "healthz"):
        values[f"serve.route.{route}.p50_ms"] = 0.0
    values["serve.transport_p50_ms"] = 0.0
    values["serve.not_modified.dispatch_p50_ms"] = 0.0
    appends = [s for s in rec.spans
               if s[NAME] == "store.append" and s[PHASE] in PHASES]
    if appends:
        last = appends[-1]
        values["store.append.last_ms"] = 1000.0 * (last[END] - last[START])
    values.update(out.layer)

    for layer in LAYERS:
        values[f"{layer}.self_s"] = red["self"][layer]
    unattributed = op_time - sum(red["self"][layer] for layer in LAYERS)
    values["trace.op_s"] = op_time
    values["trace.unattributed_pct"] = \
        100.0 * unattributed / op_time if op_time else 0.0
    overhead = red["op_spans"] * calibrate(rec)
    values["trace.overhead_pct"] = (
        100.0 * overhead / (op_time - overhead) if op_time > overhead else 0.0)
    return {name: value for name, value in values.items()
            if not any(name.startswith(m) for m in rec.missing)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # before the program is imported: it pins the BLAS pool at import time
    os.environ["REPRO_BLAS_THREADS"] = "1"
    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    os.environ["REPRO_ARTIFACTS"] = str(workdir / "artifacts")
    tempfile.tempdir = str(workdir)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.experiment  # noqa: F401 (package first: import cycles)
        import repro.fleet  # noqa: F401
        import repro.serve.server  # noqa: F401
        from repro.kernels import active_backend

        backend = active_backend()
        rec = None
        if args.trace:
            rec = Recorder()
            install(rec, backend)
        module = importlib.import_module(MODULES[args.workload])
        ctx = Context(seed=args.seed, seconds=args.seconds, workdir=workdir, rec=rec)
        out = module.run(ctx)
        ctx.phase("done")
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run's directory is still there

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"kernel backend {backend.name}, REPRO_BLAS_THREADS="
          f"{os.environ['REPRO_BLAS_THREADS']}")
    for key, value in out.info.items():
        print(f"# {key}: {value}")
    print(f"# timed phase: {out.timed_s:.1f} s of fixed work "
          f"(--seconds {args.seconds:g})")
    if not ctx.peak_reset:
        print("# note: /proc/self/clear_refs is not writable; peak_rss_mb "
              "covers the whole process, set-up included")
    if not out.ops_s:
        out.problems.append("no operation completed")
    for problem in out.problems:
        print(f"# CHECK FAILED: {problem}")
    if args.trace:
        for message in rec.notes:
            print(f"# {message}")
        values = layer_metrics(rec, out)
        wanted = spec["per_layer"]
        for name in sorted(values):
            print(f"# {name:<40} {values[name]:>14.6g}")
    elif out.ops_s:
        values = end_to_end(out, ctx)
        wanted = spec["end_to_end"]
        print_end_to_end(out, values, {m["name"]: m["unit"] for m in wanted})
    else:
        values, wanted = {}, []
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    correct = not out.problems and out.attempted > 0
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
