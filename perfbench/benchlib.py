"""What the workloads share: the run context, the outcome record, peak RSS."""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from spans import PHASES, Recorder

#: samples a percentile needs beyond it before it is reported
TAIL_SAMPLES = 10


@dataclass
class Context:
    seed: int
    seconds: float
    workdir: Path
    rec: Optional[Recorder] = None
    timed_entered: bool = False
    #: whether the peak-RSS count restarted with the timed phase
    peak_reset: bool = False
    #: peak RSS in MiB over the program's work, read on entering ``check``
    peak_rss_mb: Optional[float] = None

    def phase(self, name: str) -> None:
        """Enter ``setup``, ``timed``, ``post`` (the program's work after the
        timed phase), ``check`` (the benchmark's output checks) or ``done``.

        Spans record in ``timed`` and ``post``, which a workload may enter
        more than once.  ``peak_rss_mb`` covers them: the count restarts on
        first entering ``timed`` and is read on entering ``check``."""
        if name == "timed" and not self.timed_entered:
            self.timed_entered = True
            self.peak_reset = reset_peak_rss()
        elif name == "check":
            self.peak_rss_mb = peak_rss_mb()
        if self.rec is not None:
            self.rec.phase = name
            self.rec.active = name in PHASES

    def begin_op(self, root: str = "op") -> Optional[int]:
        """Open one operation's root span; returns its id (None untraced)."""
        return self.rec.begin_op(root) if self.rec is not None else None

    def end_op(self) -> None:
        if self.rec is not None:
            self.rec.end_op()

    @contextlib.contextmanager
    def untraced(self):
        """Benchmark-side work (output checks) that must not count as layers."""
        if self.rec is None:
            yield
            return
        was, self.rec.active = self.rec.active, False
        try:
            yield
        finally:
            self.rec.active = was


@dataclass
class Outcome:
    setup_s: List[float] = field(default_factory=list)
    #: latency of every completed operation, in seconds
    ops_s: List[float] = field(default_factory=list)
    #: length of the timed phase, in seconds
    timed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: failed output checks; any entry makes the run incorrect
    problems: List[str] = field(default_factory=list)
    #: further end-to-end samples printed beside the gated metrics:
    #: name -> (samples, unit)
    samples: Dict[str, tuple] = field(default_factory=dict)
    #: per-layer values only the workload can measure (traced runs)
    layer: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, str] = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.problems.append(problem)
        return ok


def tail_percentile(n: int) -> Optional[int]:
    """The highest whole percentile with ``TAIL_SAMPLES`` samples beyond it."""
    q = min(95, math.floor(100.0 * (1.0 - TAIL_SAMPLES / max(n, 1))))
    return q if q > 50 else None


def split_setups(n: int):
    """Set-up repetitions to run before the timed phase and after the checks.

    ``setup_s`` is the median of all ``n``.  Half of them run at the end, so
    the samples span the whole run instead of its first seconds: a shared
    host's speed can change from one second to the next."""
    return range(n - n // 2), range(n - n // 2, n)


def reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS count (VmHWM) from the current RSS, so
    set-up does not count.  False where ``/proc/self/clear_refs`` is not
    writable; the peak then covers the whole process."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Peak RSS in MiB since the last :func:`reset_peak_rss` (VmHWM)."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Stopwatch:
    """Wall time of a phase minus the benchmark's own check work inside it."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.excluded = 0.0

    @contextlib.contextmanager
    def exclude(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - t0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.excluded
