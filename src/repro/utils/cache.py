"""On-disk artifact cache (pretrained weights, experiment results).

Location precedence: ``REPRO_ARTIFACTS`` env var, else ``./artifacts`` under
the current working directory.  Pretraining a model once and reusing the
checkpoint across every pruning run is both a speed optimization and a
correctness requirement — Section 7.3 of the paper shows that comparing
methods from *different* initial models is a classic pitfall.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path

__all__ = ["artifacts_dir", "atomic_writer", "atomic_write_text"]


def artifacts_dir(subdir: str = "") -> Path:
    """Return (and create) the artifacts directory, optionally a subdir."""
    root = Path(os.environ.get("REPRO_ARTIFACTS", "artifacts"))
    path = root / subdir if subdir else root
    path.mkdir(parents=True, exist_ok=True)
    return path


@contextmanager
def atomic_writer(path: Path):
    """Yield a temp path next to ``path``; rename over it on clean exit.

    The write-then-``os.replace`` dance makes concurrent readers see either
    the old complete file or the new complete file, never a torn one —
    required for checkpoint/result stores shared by parallel sweep workers.
    The temp name carries the process id and the thread ident, so two
    threads writing the same path never share a temp file.  On an
    exception (or a crash) the target is untouched and the temp file is
    cleaned up where possible.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename)."""
    with atomic_writer(path) as tmp:
        tmp.write_text(text)
