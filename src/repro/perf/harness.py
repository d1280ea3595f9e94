"""Microbenchmark harness: registry, timer, memory tracking, comparison.

The paper's core complaint is that pruning results are incomparable
because setups are under-specified and under-measured; this package holds
the repo to the same bar for its *own* performance.  Every hot path gets a
named, registered microbenchmark (:data:`BENCHMARKS`, the same
:class:`~repro.registry.Registry` mechanism behind models/strategies/...),
``python -m repro bench`` runs them with a calibrated timer, and the
resulting JSON reports are stable artifacts that later runs compare
against (``--compare``, nonzero exit on regression) — so "measurably
faster" and "accidentally slower" are both one command away.

Benchmark protocol
------------------
A benchmark is registered as a *factory*: a zero-argument callable that
builds the workload (allocates arrays, seeds caches, fills queues) and
returns either the function to time, or ``(fn, cleanup)`` when it owns
resources (temp directories) that must be released afterwards::

    @benchmark("experiment_cache_hit", "ResultCache.get on a stored spec")
    def _bench_cache_hit():
        tmp = tempfile.TemporaryDirectory()
        cache = ResultCache(tmp.name)
        cache.put(spec, row)
        return (lambda: cache.get(spec)), tmp.cleanup

Setup cost is thus excluded from the timing, and the timed function is
called many times (see :class:`Timer`), so it must be steady-state: leave
the workload the way you found it.

Timing model
------------
:class:`Timer` runs ``warmup`` untimed calls, calibrates an inner
iteration count so one *rep* lasts at least ``min_time`` seconds (shields
sub-microsecond benches from clock granularity), then measures ``repeats``
reps.  Each rep yields one per-call time (rep duration / inner); the
:class:`BenchResult` statistics (median/mean/std/min/max) are over reps.
Peak RSS (``resource.getrusage``) and the timed function's allocation
peak (``tracemalloc``, measured in a separate non-timed pass so tracing
overhead never pollutes timings) are recorded where the platform provides
them.

The JSON report schema is documented in ``docs/FORMATS.md`` and versioned
by :data:`BENCH_SCHEMA_VERSION`; non-finite or negative timings are
rejected at construction time so a corrupted baseline can never silently
win or lose a comparison.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import json
import math
import os
import platform
import re
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import __version__
from ..registry import Registry

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BENCHMARKS",
    "Benchmark",
    "BenchResult",
    "Comparison",
    "Timer",
    "benchmark",
    "compare_results",
    "environment_info",
    "load_bench_report",
    "report_to_dict",
    "run_benchmark",
    "select_benchmarks",
]

#: bump when the ``--json`` report layout changes incompatibly; old
#: baselines are then rejected by :func:`load_bench_report` instead of
#: being compared apples-to-oranges
BENCH_SCHEMA_VERSION = 1

#: name → :class:`Benchmark`; the perf twin of MODELS/STRATEGIES/...
BENCHMARKS = Registry("benchmark")


@dataclass
class Benchmark:
    """One registered microbenchmark: a named workload factory."""

    name: str
    #: zero-arg callable returning ``fn`` or ``(fn, cleanup)``
    factory: Callable[[], Any]
    description: str = ""


def benchmark(name: str, description: str = ""):
    """Decorator registering a workload factory in :data:`BENCHMARKS`."""

    def decorator(factory):
        BENCHMARKS.register(name, Benchmark(name, factory, description))
        return factory

    return decorator


def _regex_search(pattern: str, name: str) -> bool:
    try:
        return re.search(pattern, name) is not None
    except re.error:
        return False


def select_benchmarks(pattern: Optional[str] = None) -> List[Benchmark]:
    """Registered benchmarks whose name matches ``pattern``, sorted by name.

    ``pattern`` is a regular expression searched anywhere in the name
    (``store_.*``, ``'^(store_load|report_from_store)_1m$'``), a shell
    glob (``frame_*``) or a plain substring (``cache``).  The whole
    pattern is tried as a regex first; for the glob and substring forms
    ``|`` separates alternatives, any of which may match
    (``'*_rowloop|cache'``).  ``None`` selects everything.
    """
    names = BENCHMARKS.available()
    if pattern is not None:
        alternatives = [p for p in pattern.split("|") if p]
        names = [
            n for n in names
            if _regex_search(pattern, n) or any(
                fnmatch.fnmatchcase(n, p) or p in n for p in alternatives
            )
        ]
    return [BENCHMARKS.get(n) for n in names]


@dataclass
class BenchResult:
    """Statistics for one benchmark run (all times are seconds per call)."""

    name: str
    reps: int
    inner: int  # calibrated calls per rep
    warmup: int
    median: float
    mean: float
    std: float
    min: float
    max: float
    #: process-lifetime RSS high-water mark after the run, KiB (None where
    #: unsupported).  ``ru_maxrss`` never decreases, so in a multi-bench
    #: run this reflects the largest workload executed *so far*, not this
    #: bench alone — comparable only between runs of the same pattern.
    rss_peak_kb: Optional[float] = None
    #: tracemalloc peak of one call, KiB (None when tracking disabled)
    alloc_peak_kb: Optional[float] = None

    def __post_init__(self) -> None:
        for stat in ("median", "mean", "std", "min", "max"):
            value = getattr(self, stat)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(
                    f"benchmark {self.name!r}: non-finite {stat} timing "
                    f"{value!r} (clock misbehaving or corrupted report)"
                )
            if value < 0:
                raise ValueError(
                    f"benchmark {self.name!r}: negative {stat} timing {value!r}"
                )
        if self.reps < 1 or self.inner < 1:
            raise ValueError(
                f"benchmark {self.name!r}: reps/inner must be >= 1, "
                f"got {self.reps}/{self.inner}"
            )

    @classmethod
    def from_times(
        cls, name: str, times: Sequence[float], inner: int, warmup: int
    ) -> "BenchResult":
        """Reduce per-rep times to the stored statistics."""
        arr = sorted(float(t) for t in times)
        n = len(arr)
        if not n:
            raise ValueError(f"benchmark {name!r}: no timings collected")
        mid = n // 2
        median = arr[mid] if n % 2 else (arr[mid - 1] + arr[mid]) / 2.0
        mean = sum(arr) / n
        std = math.sqrt(sum((t - mean) ** 2 for t in arr) / (n - 1)) if n > 1 else 0.0
        return cls(
            name=name, reps=n, inner=inner, warmup=warmup,
            median=median, mean=mean, std=std, min=arr[0], max=arr[-1],
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "BenchResult":
        if not isinstance(d, dict):
            raise ValueError(
                f"benchmark entry must be an object, got {type(d).__name__}"
            )
        required = [
            k for k, f in cls.__dataclass_fields__.items()
            if f.default is dataclasses.MISSING
        ]
        missing = [k for k in required if k not in d]
        if missing:
            raise ValueError(
                f"benchmark entry {d.get('name', '<unnamed>')!r} is missing "
                f"required field(s) {missing}"
            )
        known = {k: d[k] for k in cls.__dataclass_fields__ if k in d}
        return cls(**known)


class Timer:
    """Calibrated repeat timer (see the module docstring's timing model)."""

    def __init__(
        self,
        warmup: int = 1,
        repeats: int = 5,
        min_time: float = 0.05,
        max_inner: int = 1_000_000,
    ) -> None:
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        if min_time < 0:
            raise ValueError(f"min_time must be >= 0, got {min_time}")
        self.warmup = warmup
        self.repeats = repeats
        self.min_time = min_time
        self.max_inner = max_inner

    def calibrate(self, fn: Callable[[], Any]) -> int:
        """Inner iterations per rep so one rep lasts ≥ ``min_time``."""
        elapsed = 0.0
        calls = 0
        while elapsed < max(self.min_time / 8.0, 1e-4) and calls < self.max_inner:
            start = time.perf_counter()
            fn()
            elapsed += time.perf_counter() - start
            calls += 1
        per_call = elapsed / max(calls, 1)
        if per_call >= self.min_time:
            return 1
        return min(self.max_inner, max(1, math.ceil(self.min_time / max(per_call, 1e-9))))

    def measure(self, fn: Callable[[], Any]) -> Tuple[List[float], int]:
        """``(per-call seconds, one per rep; calibrated inner count)``."""
        for _ in range(self.warmup):
            fn()
        inner = self.calibrate(fn)
        times: List[float] = []
        for _ in range(self.repeats):
            start = time.perf_counter()
            for _ in range(inner):
                fn()
            times.append((time.perf_counter() - start) / inner)
        return times, inner


def rss_peak_kb() -> Optional[float]:
    """Process peak RSS in KiB, or None where the platform can't say."""
    try:
        import resource
    except ImportError:  # non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return peak / 1024.0 if platform.system() == "Darwin" else float(peak)


def traced_alloc_kb(fn: Callable[[], Any]) -> Optional[float]:
    """Python-allocation peak of one ``fn()`` call in KiB (tracemalloc).

    NumPy routes array buffers through the Python allocator, so this
    captures temporaries too.  Runs outside the timed section — tracing
    slows execution severely and must never pollute the statistics.
    """
    try:
        import tracemalloc
    except ImportError:
        return None
    if tracemalloc.is_tracing():
        return None  # a caller owns tracing; don't reset their snapshot
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return max(0.0, (peak - baseline) / 1024.0)


def run_benchmark(
    bench: Benchmark, timer: Optional[Timer] = None, track_mem: bool = True
) -> BenchResult:
    """Build, time, and (optionally) memory-profile one benchmark."""
    timer = timer or Timer()
    made = bench.factory()
    fn, cleanup = made if isinstance(made, tuple) else (made, None)
    try:
        times, inner = timer.measure(fn)
        alloc = traced_alloc_kb(fn) if track_mem else None
    finally:
        if cleanup is not None:
            cleanup()
    result = BenchResult.from_times(bench.name, times, inner, timer.warmup)
    if track_mem:
        result.rss_peak_kb = rss_peak_kb()
        result.alloc_peak_kb = alloc
    return result


def environment_info() -> Dict[str, Any]:
    """The environment block of the JSON report (§6 in spirit: report the
    setup alongside the numbers, or they are incomparable)."""
    import numpy as np

    return {
        "repro_version": __version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "blas_threads": os.environ.get("REPRO_BLAS_THREADS"),
    }


def report_to_dict(
    results: Sequence[BenchResult], tag: Optional[str] = None
) -> Dict[str, Any]:
    """The stable ``--json`` document (schema in ``docs/FORMATS.md``)."""
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "tag": tag,
        "created": time.time(),
        "environment": environment_info(),
        "benchmarks": [r.to_dict() for r in results],
    }


def load_bench_report(path) -> Dict[str, Any]:
    """Parse + validate a ``--json`` report; results under ``"results"``.

    Raises ``ValueError`` on a wrong schema version or on entries with
    non-finite statistics (see :class:`BenchResult`), so regression
    comparisons only ever run against well-formed baselines.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or payload.get("schema") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: not a bench report with schema {BENCH_SCHEMA_VERSION} "
            f"(got {payload.get('schema') if isinstance(payload, dict) else type(payload).__name__!r})"
        )
    results = [BenchResult.from_dict(d) for d in payload.get("benchmarks", [])]
    return {**payload, "results": results}


@dataclass
class Comparison:
    """One benchmark's current-vs-baseline verdict."""

    name: str
    status: str  # "ok" | "regression" | "faster" | "no-baseline" | "missing"
    current: Optional[float] = None  # median, seconds per call
    baseline: Optional[float] = None
    ratio: Optional[float] = None  # current / baseline

    def describe(self) -> str:
        if self.status == "no-baseline":
            return f"{self.name}: new benchmark (no baseline entry)"
        if self.status == "missing":
            return f"{self.name}: in baseline but not in this run"
        return (
            f"{self.name}: {self.current * 1e3:.3f}ms vs "
            f"{self.baseline * 1e3:.3f}ms baseline "
            f"({self.ratio:.2f}x) [{self.status}]"
        )


def compare_results(
    current: Sequence[BenchResult],
    baseline: Sequence[BenchResult],
    threshold_pct: float = 20.0,
) -> List[Comparison]:
    """Median-vs-median comparison, one entry per bench in either run.

    A bench regresses when its median slows down by more than
    ``threshold_pct`` percent; symmetric speedups are flagged ``"faster"``.
    Benches present on only one side are reported (``"no-baseline"`` /
    ``"missing"``) but never count as regressions — a baseline written
    before a benchmark existed must not fail the comparison.
    """
    if threshold_pct < 0:
        raise ValueError(f"threshold_pct must be >= 0, got {threshold_pct}")
    base_by_name = {r.name: r for r in baseline}
    cur_by_name = {r.name: r for r in current}
    out: List[Comparison] = []
    for name in sorted(set(base_by_name) | set(cur_by_name)):
        cur, base = cur_by_name.get(name), base_by_name.get(name)
        if base is None:
            out.append(Comparison(name, "no-baseline", current=cur.median))
            continue
        if cur is None:
            out.append(Comparison(name, "missing", baseline=base.median))
            continue
        if base.median > 0:
            ratio = cur.median / base.median
        else:
            ratio = math.inf if cur.median > 0 else 1.0
        if ratio > 1.0 + threshold_pct / 100.0:
            status = "regression"
        elif ratio < 1.0 - threshold_pct / 100.0:
            status = "faster"
        else:
            status = "ok"
        out.append(
            Comparison(name, status, current=cur.median,
                       baseline=base.median, ratio=ratio)
        )
    return out
