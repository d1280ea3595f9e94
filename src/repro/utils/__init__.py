"""Shared utilities: BLAS thread control, artifact cache paths, strict JSON,
per-process memos."""

from .threads import configure_blas_threads_from_env, set_blas_threads
from .cache import artifacts_dir, atomic_write_text, atomic_writer
from .jsonio import (
    NONFINITE_KEY,
    canonical_json,
    restore_nonfinite,
    sanitize_nonfinite,
)
from .memo import MEMO_SIZE, BoundedMemo

__all__ = [
    "configure_blas_threads_from_env",
    "set_blas_threads",
    "artifacts_dir",
    "atomic_writer",
    "atomic_write_text",
    "NONFINITE_KEY",
    "canonical_json",
    "restore_nonfinite",
    "sanitize_nonfinite",
    "MEMO_SIZE",
    "BoundedMemo",
]
