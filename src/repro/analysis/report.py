"""The §6 standard report: one artifact bundle per finished sweep.

Blalock et al. close with concrete reporting recommendations (§6): tradeoff
*curves* rather than single points, mean ± std over seeds, raw accuracy
plus the delta vs the unpruned control, and both the compression and the
speedup axis.  :func:`build_report` reduces a
:class:`~repro.analysis.frame.ResultFrame` to exactly that bundle and
:func:`render_report` / :func:`write_report_csv` emit it as terminal text
and machine-readable CSV.  ``python -m repro report <source>`` wraps the
three for any finished sweep artifact (``results.json``, a result-cache
directory, or a work-queue directory — all produce identical curve data).

Report contents
---------------
* accuracy-vs-compression and accuracy-vs-speedup tradeoff curves per
  strategy (ASCII rendering + CSV rows ``strategy, x_metric, x, y_mean,
  y_std, n``);
* a seeds × strategies summary table (mean ± std at every operating
  point, with the per-cell seed count);
* Pareto-dominant operating points (no other strategy/ratio pair is at
  least as compressed *and* at least as accurate);
* the Appendix B checklist audit;
* quarantined-cell accounting for fault-tolerant queue sweeps.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..experiment.results import CurvePoint
from ..utils.jsonio import json_text
from .frame import ResultFrame

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "StandardReport",
    "build_report",
    "build_report_from_store",
    "render_report",
    "report_csv_rows",
    "report_json_text",
    "report_to_json",
    "write_report_csv",
    "write_report_json",
]

#: bump when the ``repro report --json`` document layout changes
#: incompatibly (schema documented in docs/FORMATS.md)
REPORT_SCHEMA_VERSION = 1

#: the two x-axes §6 requires; labels keep the CSV self-describing
X_METRICS: Sequence[Tuple[str, str]] = (
    ("compression", "compression ratio"),
    ("theoretical_speedup", "theoretical speedup"),
)


@dataclass
class StandardReport:
    """Everything ``python -m repro report`` prints/exports, as data."""

    #: prepared rows (baselines replicated, derived cols); a store's are
    #: projected to the columns the report reads
    #: (:func:`build_report_from_store`).  Render/export never touch it:
    #: everything they need lives in the explicit fields below
    frame: Optional[ResultFrame] = None
    y: str = "top1"
    #: {x_metric: {strategy: [CurvePoint]}}
    curves: Dict[str, Dict[str, List[CurvePoint]]] = field(default_factory=dict)
    #: one row per (strategy, compression): <y>_mean/std, n, speedup stats
    summary: ResultFrame = field(
        default_factory=lambda: ResultFrame.from_records([])
    )
    #: Pareto-dominant pruned operating points (strategy, x, y columns)
    pareto: ResultFrame = field(
        default_factory=lambda: ResultFrame.from_records([])
    )
    #: Appendix B audit verdicts (:class:`~repro.meta.checklist.ChecklistItem`)
    checklist: List[Any] = field(default_factory=list)
    n_failed: int = 0
    #: distinct compute backends recorded in row metadata (sorted); rows from
    #: before backends existed carry none and contribute nothing
    kernel_backends: List[str] = field(default_factory=list)
    #: partial-sweep accounting for queue sources: cells not yet executed
    #: (``{"pending": N, "leased": N}``, zeros for finished/non-queue
    #: sources) — see :func:`repro.analysis.frame.queue_outstanding`
    outstanding: Dict[str, int] = field(
        default_factory=lambda: {"pending": 0, "leased": 0}
    )
    #: prepared-row accounting, populated by every build path so render /
    #: export never have to touch ``frame``
    n_rows: int = 0
    strategies: List[Any] = field(default_factory=list)
    seeds: List[Any] = field(default_factory=list)

    @property
    def n_outstanding(self) -> int:
        """Total cells still pending/leased — nonzero means partial."""
        return sum(self.outstanding.values())


def build_report(
    frame: ResultFrame,
    y: str = "top1",
    outstanding: Optional[Dict[str, int]] = None,
) -> StandardReport:
    """Reduce raw sweep rows to the §6 report bundle.

    The input frame may come from any constructor; deduped baseline
    sentinel rows are replicated across strategies first, so curve data is
    identical whether the source was a saved ``results.json``, the result
    cache, or a queue directory.  Quarantined cells are excluded from all
    statistics and surfaced via ``n_failed``; for queue sources callers
    pass :func:`~repro.analysis.frame.queue_outstanding` counts so a
    still-draining sweep is visibly partial in the report itself.
    A frame that already is ``replicate_baselines().derived()`` passes
    through both unchanged (the results server hands in the one it
    prepared for every endpoint).
    """
    from ..meta.checklist import audit_results  # lazy: avoid import cycle

    prepared = frame.replicate_baselines().derived()
    n_failed = int(prepared.failed_mask().sum())
    ok = prepared.ok()
    curves = {
        x_metric: ok.tradeoff_curves(group="strategy", x=x_metric, y=y)
        for x_metric, _ in X_METRICS
    }
    summary = ok.aggregate(
        by=("strategy", "compression"),
        values=[c for c in (y, f"delta_{y}", "actual_compression",
                            "theoretical_speedup") if c in ok],
    )
    pruned = summary.filter(compression=lambda c: c > 1.0)
    pareto = pruned.pareto_frontier(x="compression", y=f"{y}_mean")
    checklist = audit_results(ok) if len(ok) else []
    backends = sorted(
        {e["kernel_backend"] for e in ok.column("extra")
         if isinstance(e, dict) and e.get("kernel_backend")}
    ) if "extra" in ok and len(ok) else []
    counts = {"pending": 0, "leased": 0}
    counts.update(outstanding or {})
    return StandardReport(
        frame=prepared,
        y=y,
        curves=curves,
        summary=summary,
        pareto=pareto,
        checklist=checklist,
        n_failed=n_failed,
        kernel_backends=backends,
        outstanding=counts,
        n_rows=len(prepared),
        strategies=(
            prepared.unique("strategy") if "strategy" in prepared else []
        ),
        seeds=prepared.unique("seed") if "seed" in prepared else [],
    )


#: the columns :func:`build_report` reads, besides ``y`` and its
#: ``baseline_``/``delta_`` companions
_REPORT_COLUMNS = (
    "model", "dataset", "strategy", "extra", "compression", "seed", "top1",
    "baseline_top1", "actual_compression", "theoretical_speedup",
    "dense_flops", "effective_flops",
)


def build_report_from_store(
    store,
    y: str = "top1",
    outstanding: Optional[Dict[str, int]] = None,
    manifest: Optional[Dict[str, Any]] = None,
) -> StandardReport:
    """``build_report(store.to_frame())``, loading only the columns the
    report reads.

    The projection keeps the load to the report's dozen-odd columns (no
    other column is read or decoded); the output is byte-identical
    to the unprojected build.  ``manifest`` pins a previously read
    manifest (see ``ColumnStore.to_frame``).
    """
    from ..store.columnar import ColumnStore

    if not isinstance(store, ColumnStore):
        store = ColumnStore(store)
    if manifest is None:
        manifest = store._require_manifest()
    wanted = set(_REPORT_COLUMNS) | {y, f"baseline_{y}", f"delta_{y}"}
    columns = [name for name in manifest["columns"] if name in wanted]
    frame = store.to_frame(columns=columns, manifest=manifest)
    return build_report(frame, y=y, outstanding=outstanding)



def _fmt(value: float, digits: int = 3) -> str:
    """Fixed-width float that keeps inf/nan readable instead of exploding."""
    return f"{value:.{digits}f}" if np.isfinite(value) else str(value)


def _summary_table(report: StandardReport) -> List[str]:
    """Seeds × strategies matrix: mean±std(n) per operating point."""
    summary = report.summary
    if not len(summary):
        return ["(no rows)"]
    comps = summary.unique("compression")
    header = f"{'strategy':18s} " + " ".join(f"{'c=' + format(c, 'g'):>14s}" for c in comps)
    lines = [header]
    for strat, sub in summary.group_by("strategy", sort=True):
        by_comp = {
            rec["compression"]: rec for rec in sub.to_records()
        }
        cells = []
        for c in comps:
            rec = by_comp.get(c)
            if rec is None:
                cells.append(f"{'—':>14s}")
            else:
                cells.append(
                    f"{_fmt(rec[report.y + '_mean']):>8s}"
                    f"±{_fmt(rec[report.y + '_std'], 2)}({rec['n']})"
                )
        lines.append(f"{strat:18s} " + " ".join(cells))
    return lines


def render_report(report: StandardReport, width: int = 64) -> str:
    """The full terminal report (curves, summary, Pareto, checklist)."""
    from ..plotting import TradeoffCurve, render_curves  # lazy: import cycle

    out: List[str] = []
    strategies = [s for s, _ in report.curves.get("compression", {}).items()]
    seeds = report.seeds
    out.append("== standard report (Blalock et al., §6) ==")
    out.append(
        f"rows: {report.n_rows}   strategies: {len(strategies)}   "
        f"seeds: {seeds}   quarantined: {report.n_failed}"
    )
    if report.n_outstanding:
        out.append(
            f"PARTIAL: {report.outstanding['pending']} pending + "
            f"{report.outstanding['leased']} leased cell(s) not yet executed"
        )
    if report.kernel_backends:
        line = f"kernel backends: {', '.join(report.kernel_backends)}"
        if len(report.kernel_backends) > 1:
            line += "   (mixed — rows are not bit-for-bit comparable)"
        out.append(line)
    for x_metric, x_label in X_METRICS:
        by_strategy = report.curves.get(x_metric, {})
        curves = [
            TradeoffCurve.from_points(str(strategy), points)
            for strategy, points in by_strategy.items()
            if points
        ]
        out.append("")
        out.append(f"-- {report.y} vs {x_label} (mean ± std over seeds) --")
        out.append(
            render_curves(
                curves, width=width,
                title=f"{report.y} vs {x_label}", x_label=x_label,
            )
        )
    out.append("")
    out.append(f"-- summary: {report.y} mean±std(n seeds) per operating point --")
    out.extend(_summary_table(report))
    out.append("")
    out.append("-- Pareto-dominant operating points (compression vs "
               f"{report.y}) --")
    if len(report.pareto):
        for rec in report.pareto.to_records():
            out.append(
                f"  {rec['strategy']:18s} @ {rec['compression']:g}x  "
                f"{report.y}={_fmt(rec[report.y + '_mean'])}"
                f"±{_fmt(rec[report.y + '_std'], 2)}  "
                f"speedup={_fmt(rec.get('theoretical_speedup_mean', float('nan')), 2)}x"
            )
    else:
        out.append("  (no pruned operating points)")
    out.append("")
    out.append("-- Appendix B checklist audit --")
    if report.checklist:
        out.extend(f"  {item}" for item in report.checklist)
    else:
        out.append("  (no rows to audit)")
    if report.n_failed:
        out.append("")
        out.append(
            f"WARNING: {report.n_failed} quarantined cell(s) excluded from "
            "all statistics — see each row's extra['failures'] for tracebacks"
        )
    return "\n".join(out)


def report_csv_rows(report: StandardReport) -> List[List[Any]]:
    """Curve data as CSV rows (header included): the §6 artifact.

    Long format — one row per (strategy, x-axis, operating point) with
    mean, sample std and seed count, so downstream plots carry error bars.
    Non-finite values render as ``inf``/``nan``, which ``float()`` parses
    back.
    """
    rows: List[List[Any]] = [
        ["strategy", "x_metric", "x", f"{report.y}_mean", f"{report.y}_std", "n"]
    ]
    for x_metric, _ in X_METRICS:
        for strategy, points in report.curves.get(x_metric, {}).items():
            for p in points:
                rows.append([strategy, x_metric, p.x, p.mean, p.std, p.n])
    return rows


def write_report_csv(report: StandardReport, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(report_csv_rows(report))
    return path


def report_to_json(report: StandardReport) -> Dict[str, Any]:
    """The machine-readable ``repro report --json`` document.

    Everything :func:`render_report` prints, as data: curves per x-axis and
    strategy, the aggregated summary and Pareto rows (as record lists),
    the checklist verdicts, and failure accounting.  The layout is
    versioned by :data:`REPORT_SCHEMA_VERSION` and documented in
    ``docs/FORMATS.md``.  Non-finite values stay as floats; the CLI
    serializes them as bare ``Infinity``/``NaN`` tokens (Python's default
    JSON dialect), which ``json.load`` parses back.
    """
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "y": report.y,
        "rows": report.n_rows,
        "n_failed": report.n_failed,
        "outstanding": dict(report.outstanding),
        "strategies": report.strategies,
        "seeds": report.seeds,
        "kernel_backends": report.kernel_backends,
        "curves": {
            x_metric: {
                str(strategy): [
                    {"x": p.x, "mean": p.mean, "std": p.std, "n": p.n}
                    for p in points
                ]
                for strategy, points in by_strategy.items()
            }
            for x_metric, by_strategy in report.curves.items()
        },
        "summary": report.summary.to_records(),
        "pareto": report.pareto.to_records(),
        "checklist": [
            {"item": item.item, "passed": item.passed, "detail": item.detail}
            for item in report.checklist
        ],
    }


def report_json_text(report: StandardReport) -> str:
    """The serialized report document — the one dialect both the ``--json
    PATH`` file and the ``--json -`` stdout stream emit."""
    return json_text(report_to_json(report))


def write_report_json(report: StandardReport, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report_json_text(report))
    return path
