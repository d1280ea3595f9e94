"""The schema-1 column-store writer, kept as the twin of the segment file.

:class:`SchemaOneStore` appends as the last release that wrote schema-1
stores did: each segment a directory holding one ``.npy`` per numeric
column, a ``.codes.npy`` and a ``.values.json`` pool per object column and
``keys.npy``, fingerprinted by reading every file back, under a schema-1
manifest.  ``_seal_segment``, ``_write_column`` and
``_fingerprint_segment`` are that release's code verbatim;
``test_store.py::TestManifestSplice::test_fingerprint_is_pinned`` pins the
manifest fingerprint they produce, which proves it.  Everything else
(lock, manifest encoding, sequence numbers) is the current store's, which
that test also covers.
"""

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.store import ColumnStore, columnar
from repro.store.columnar import (
    _check_column_name,
    _encode_object_column,
    _numeric_stats,
    _object_stats,
)


class SchemaOneStore(ColumnStore):
    """A :class:`ColumnStore` that writes schema-1 segments and manifests."""

    def append_frame(self, frame, keys=None):
        entry = super().append_frame(frame, keys=keys)
        if entry is not None:
            # the manifest as a schema-1 writer publishes it
            manifest = json.loads(self.manifest_path.read_text())
            manifest["schema"] = 1
            self.manifest_path.write_text(columnar._encode_manifest(manifest))
        return entry

    def _seal_segment(
        self,
        seq: int,
        columns: Dict[str, np.ndarray],
        keys: Optional[Sequence[str]],
    ) -> Dict[str, Any]:
        tmp = self.segments_dir / f".tmp-{os.getpid()}-{seq}"
        tmp.mkdir(parents=True)
        col_kinds: Dict[str, str] = {}
        col_stats: Dict[str, Dict[str, Any]] = {}
        for name, arr in columns.items():
            _check_column_name(name)
            col_kinds[name], col_stats[name] = self._write_column(tmp, name, arr)
        if keys is not None:
            np.save(tmp / "keys.npy", np.asarray(list(keys), dtype=np.str_))
        fingerprint = self._fingerprint_segment(tmp)
        name = f"seg-{seq:08d}-{fingerprint[:8]}"
        tmp.rename(self.segments_dir / name)
        n_rows = len(next(iter(columns.values()))) if columns else 0
        return {
            "name": name,
            "rows": n_rows,
            "keyed": keys is not None,
            "fingerprint": fingerprint,
            "columns": col_kinds,
            "stats": col_stats,
        }

    @staticmethod
    def _write_column(
        seg_dir: Path, name: str, arr: np.ndarray
    ) -> Tuple[str, Dict[str, Any]]:
        kind = arr.dtype.kind
        if kind in "iu":
            data = np.ascontiguousarray(arr, np.int64)
            np.save(seg_dir / f"{name}.npy", data)
            return "int64", _numeric_stats(data)
        if kind == "f":
            data = np.ascontiguousarray(arr, np.float64)
            np.save(seg_dir / f"{name}.npy", data)
            return "float64", _numeric_stats(data)
        codes, pool = _encode_object_column(np.asarray(arr, dtype=object))
        np.save(seg_dir / f"{name}.codes.npy", codes)
        (seg_dir / f"{name}.values.json").write_text(
            json.dumps(pool, allow_nan=False, default=str)
        )
        return "object", _object_stats(codes, pool)

    @staticmethod
    def _fingerprint_segment(seg_dir: Path) -> str:
        digest = hashlib.sha256()
        for path in sorted(seg_dir.iterdir()):
            data = path.read_bytes()
            digest.update(f"{path.name}:{len(data)}:".encode())
            digest.update(data)
        return digest.hexdigest()
