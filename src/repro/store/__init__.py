"""Append-only binary columnar store for million-row sweep results.

The one-JSON-file-per-spec :class:`~repro.experiment.cache.ResultCache` is
the *interchange* format — human-auditable, atomic, concurrency-safe — but
re-parsing 10⁶ small JSON files to answer one report query is the wrong
cost model at corpus scale (the paper's central complaint, applied to our
own tooling).  :class:`ColumnStore` is the *serving* format: results land
once as segment files (one file per append: a JSON header, then each
column's bytes) under a fingerprinted JSON manifest, and ``to_frame()``
memory-maps them straight into :class:`~repro.analysis.frame.ResultFrame`
columns with no per-row parsing.  See docs/FORMATS.md for the on-disk
layout and docs/ARCHITECTURE.md for where the store sits in the pipeline.
"""

from .columnar import (
    STORE_SCHEMA_VERSION,
    ZONE_MAP_MAX_VALUES,
    ColumnStore,
    StoreError,
    StoreLockTimeout,
    is_store_dir,
)

__all__ = [
    "STORE_SCHEMA_VERSION",
    "ZONE_MAP_MAX_VALUES",
    "ColumnStore",
    "StoreError",
    "StoreLockTimeout",
    "is_store_dir",
]
