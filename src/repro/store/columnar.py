"""The :class:`ColumnStore` implementation (see package docstring).

On-disk layout
--------------
::

    <store>/
      manifest.json               atomic: the store IS this file's contents
      .lock                       writer mutex (O_EXCL create; advisory)
      segments/
        seg-00000003-9aa0c3f1     one file: seal order + first 8 hex of
                                  the sha256 of its bytes
        .tmp-<pid>-<seq>          in-flight write; never read, swept by compact

A segment file is a 16-byte preamble (the magic ``REPROSG2`` and the
header's byte length as a little-endian uint64), a compact strict-JSON
header, then the data region, which starts at the next multiple of 8::

    {"rows": 2,
     "columns": [{"name": "top1", "kind": "float64", "dtype": "<f8",
                  "offset": 0, "length": 16},
                 {"name": "strategy", "kind": "object", "dtype": "<i4",
                  "offset": 16, "length": 8,
                  "pool_offset": 24, "pool_length": 17}],
     "keys": {"dtype": "<U16", "offset": 48, "length": 128}}

Offsets count from the start of the data region and every range starts
8-byte aligned.  A numeric column is its raw little-endian values; an
object column is int32 codes into a deduplicated strict-JSON value pool;
``keys`` (null when unkeyed) holds the rows' spec hashes.  A reader maps
the file once: numeric columns and keys are read-only views of that map,
and an object column's pool is parsed only when the column is read.

Schema 1 stores kept each segment as a directory of ``.npy`` files (one
per numeric column, ``<name>.codes.npy`` + ``<name>.values.json`` per
object column, ``keys.npy``).  :class:`_LegacySegment` still reads them,
and is the only code that knows that layout; appends and ``compact``
write segment files only, and the first append to a schema-1 store
publishes a schema-2 manifest.

Writers serialize on ``.lock``, write a segment as one temp file, seal it
with ``rename`` and only then rewrite the manifest (atomic temp +
``os.replace``), so readers — which take no lock — either see the old
manifest or the new one, never a torn segment: a crash mid-append leaves
an unreferenced file that ``compact`` sweeps.  Readers trust only the
manifest; anything on disk it does not name does not exist.

The manifest is compact single-line JSON.  Each store instance remembers
the exact text of its last append's manifest; when the manifest on disk
is still that text, the next append splices its entry onto the end of the
segment list and re-encodes only the small head (schema, fingerprint,
rows, columns) instead of parsing and re-encoding every entry.  Any other
manifest — another writer's append, ``compact``, ``analyze``, a hand edit,
an older indented file — is parsed and re-encoded whole, the reference
path the splice is byte-equal to.

Row identity and supersession: a segment written with ``keys`` (spec
hashes) is *keyed*.  When every segment is keyed, ``to_frame()``
deduplicates by key with the last-sealed occurrence winning — re-running a
cell supersedes its old row exactly like a cache overwrite — and
``compact`` makes the supersession physical by rewriting the survivors as
one segment and deleting the rest.

Zone maps: each manifest segment entry may carry a ``"stats"`` mapping —
per-column min/max/NaN-count for numeric columns, null count plus (small)
distinct value pool for dict-encoded object columns.  ``to_frame(columns=
..., where=...)`` uses them to skip whole segments whose stats prove no
row can match, and reads only the referenced columns.  Stats are
optional (legacy manifests keep loading, just without pruning) and are
backfilled by ``compact`` or ``analyze``; they are deliberately excluded
from the manifest fingerprint so a backfill never changes row identity.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import shutil
import stat
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.frame import ResultFrame, is_queue_dir
from ..utils import (
    atomic_write_text,
    canonical_json,
    restore_nonfinite,
    sanitize_nonfinite,
)

__all__ = [
    "STORE_SCHEMA_VERSION",
    "ZONE_MAP_MAX_VALUES",
    "ColumnStore",
    "StoreError",
    "StoreLockTimeout",
    "is_store_dir",
]

#: bump when the manifest/segment layout changes incompatibly; readers
#: refuse (loudly — a store is one artifact, not a cache of many) rather
#: than skip, because silently dropping segments would corrupt reports.
STORE_SCHEMA_VERSION = 2
#: the schema whose segments are directories: read, never written
_LEGACY_SCHEMA = 1

_MANIFEST = "manifest.json"
_SEGMENTS = "segments"
_NUMERIC_KINDS = ("int64", "float64")

#: a segment file's preamble: magic bytes, then the header's byte length
_PREAMBLE = struct.Struct("<8sQ")
_MAGIC = b"REPROSG2"
#: every range of a segment file starts at a multiple of this
_ALIGN = 8

#: object-column zone maps record the segment's distinct value pool only
#: up to this size — beyond it the pool stops being selective and would
#: bloat the manifest, so only the null count is kept.
ZONE_MAP_MAX_VALUES = 64


class StoreError(RuntimeError):
    """A store directory violates the documented layout/schema."""


class StoreLockTimeout(StoreError, TimeoutError):
    """Could not acquire the writer lock within the timeout."""


def is_store_dir(path) -> bool:
    """True when ``path`` has the binary-store layout (a manifest file).

    The single definition of "looks like a store", mirrored on
    :func:`repro.analysis.frame.is_queue_dir` — shared by ``load_frame``'s
    sniffing, the results server and the CLI guards.
    """
    return (Path(path) / _MANIFEST).is_file()


def _check_column_name(name: str) -> str:
    # the cache/frame vocabulary is [a-z0-9_]; "keys" names the identity
    # range (and, in schema 1, the identity file)
    if not name or not name.replace("_", "a").isalnum() or name == "keys":
        raise StoreError(f"column name {name!r} is not storable")
    return name


def _encode_object_column(arr: np.ndarray) -> Tuple[np.ndarray, List[Any]]:
    """Dictionary-encode an object column: int32 codes + strict-JSON pool."""
    codes = np.empty(len(arr), dtype=np.int32)
    pool: List[Any] = []
    index: Dict[Any, int] = {}
    for i, value in enumerate(arr):
        # most values are plain strings, which sanitizing returns as they are
        safe = value if type(value) is str else sanitize_nonfinite(value)
        if isinstance(safe, str):
            key: Any = ("s", safe)
        else:
            key = ("j", json.dumps(safe, sort_keys=True, default=str))
        code = index.get(key)
        if code is None:
            code = len(pool)
            index[key] = code
            pool.append(safe)
        codes[i] = code
    return codes, pool


def _decode_object_column(codes: np.ndarray, pool: List[Any]) -> np.ndarray:
    values = np.empty(len(pool), dtype=object)
    values[:] = [restore_nonfinite(v) for v in pool]
    return values[np.asarray(codes)]


def _to_object(arr: np.ndarray) -> np.ndarray:
    out = np.empty(len(arr), dtype=object)
    out[:] = arr.tolist()
    return out


def _encode_column(
    arr: np.ndarray,
) -> Tuple[str, np.ndarray, Optional[bytes], Dict[str, Any]]:
    """``(kind, values or codes, pool bytes or None, zone map)``: one
    column as a segment stores it."""
    kind = arr.dtype.kind
    if kind in "iu":
        data = np.ascontiguousarray(arr, np.int64)
        return "int64", data, None, _numeric_stats(data)
    if kind == "f":
        data = np.ascontiguousarray(arr, np.float64)
        return "float64", data, None, _numeric_stats(data)
    codes, pool = _encode_object_column(np.asarray(arr, dtype=object))
    text = json.dumps(pool, allow_nan=False, default=str)
    return "object", codes, text.encode(), _object_stats(codes, pool)


# -- zone-map statistics ---------------------------------------------------
def _json_bound(value: Any) -> Any:
    """A numeric bound as a manifest-storable JSON value.

    The manifest is written with ``allow_nan=False``, so non-finite bounds
    use the same sentinel convention as result entries (jsonio).
    """
    if isinstance(value, np.integer):
        return int(value)
    return sanitize_nonfinite(float(value))


def _numeric_stats(arr: np.ndarray) -> Dict[str, Any]:
    """Zone map for one numeric segment column: min/max over non-NaN rows
    (None when every row is NaN) plus the NaN count."""
    arr = np.asarray(arr)
    nulls = int(np.isnan(arr).sum()) if arr.dtype.kind == "f" else 0
    if nulls == len(arr) or not len(arr):
        lo: Any = None
        hi: Any = None
    elif nulls:
        lo, hi = _json_bound(np.nanmin(arr)), _json_bound(np.nanmax(arr))
    else:
        lo, hi = _json_bound(arr.min()), _json_bound(arr.max())
    return {"min": lo, "max": hi, "nulls": nulls}


def _object_stats(codes: np.ndarray, pool: List[Any]) -> Dict[str, Any]:
    """Zone map for one dict-encoded object column: null (None) row count
    plus, for small pools, the distinct sanitized value pool itself."""
    none_codes = [i for i, value in enumerate(pool) if value is None]
    nulls = int(np.isin(np.asarray(codes), none_codes).sum()) if none_codes else 0
    stats: Dict[str, Any] = {"nulls": nulls}
    if len(pool) <= ZONE_MAP_MAX_VALUES:
        # round-trip through the exact dialect a segment stores its pool
        # in, so the manifest pool is bit-identical to what a read decodes
        stats["values"] = json.loads(
            json.dumps(pool, allow_nan=False, default=str)
        )
    return stats


def _normalize_condition(cond: Any) -> Optional[Tuple[str, Any]]:
    """``(op, value)`` for a frame.mask-style condition, or None when the
    condition's shape could make the full scan raise (planner must keep)."""
    if isinstance(cond, dict):
        op = cond.get("op")
        if set(cond) != {"op", "value"} or not isinstance(op, str):
            return None
        return op, cond.get("value")
    if isinstance(cond, (list, tuple, set, frozenset, np.ndarray)):
        return "in", list(cond)
    return "==", cond


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating))


def _plain_members(value: Any) -> Optional[List[Any]]:
    """Membership list as plain scalars, or None when it contains anything
    the full-scan membership test could choke on (keep the segment)."""
    if not isinstance(value, (list, tuple, set, frozenset, np.ndarray)):
        return None
    members = list(value)
    for member in members:
        if not isinstance(member, (int, float, str, bool, type(None))):
            return None
    return members


def _numeric_may_match(cond: Any, stats: Dict[str, Any]) -> bool:
    """Conservative zone-map test for one condition against one numeric
    segment column: False only when *provably* no row can match.

    Mirrors ``ResultFrame._op_mask`` semantics exactly: NaN rows compare
    False under ==/</<=/>/>=/in and True under !=/not-in; conditions whose
    evaluation could raise on real data always keep the segment so the
    full-scan error surfaces.
    """
    normalized = _normalize_condition(cond)
    if normalized is None:
        return True
    op, value = normalized
    lo = restore_nonfinite(stats.get("min"))
    hi = restore_nonfinite(stats.get("max"))
    nulls = stats.get("nulls", 0)
    has_values = lo is not None and hi is not None
    if op == "==":
        if not _is_number(value) or value != value:
            return False  # non-numeric / NaN never equals a numeric row
        return has_values and lo <= value <= hi
    if op == "!=":
        # only a constant segment with no NaN rows can fail to match
        return not (
            nulls == 0
            and has_values
            and _is_number(value)
            and value == value
            and lo == hi == value
        )
    if op in ("<", "<=", ">", ">="):
        if not _is_number(value):
            return True  # full scan may raise (e.g. None/str bound): keep
        if value != value or not has_values:
            return False  # NaN bound or all-NaN column: comparisons are False
        if op == "<":
            return lo < value
        if op == "<=":
            return lo <= value
        if op == ">":
            return hi > value
        return hi >= value
    if op == "in":
        members = _plain_members(value)
        if members is None:
            return True
        if not has_values:
            return False
        return any(
            _is_number(m) and m == m and lo <= m <= hi for m in members
        )
    if op == "not-in":
        members = _plain_members(value)
        if members is None:
            return True
        if nulls > 0 or not has_values or lo != hi:
            return True
        return not any(_is_number(m) and m == lo for m in members)
    return True  # unknown op: the full scan will raise; keep the segment


def _values_may_match(name: str, cond: Any, values: np.ndarray) -> bool:
    """Evaluate one condition against a small value array through the real
    mask machinery — exact semantics for every op; any error keeps the
    segment so the full scan raises it instead."""
    if not len(values):
        return False
    try:
        return bool(ResultFrame({name: values}).mask(**{name: cond}).any())
    except Exception:
        return True


def _pool_may_match(name: str, cond: Any, stats: Dict[str, Any]) -> bool:
    """Zone-map test for an object column: every pool value has at least
    one row, so "some pool value matches" == "some row matches"."""
    pool = stats.get("values")
    if pool is None:
        return True  # pool too large to record: cannot prune
    values = np.empty(len(pool), dtype=object)
    values[:] = [restore_nonfinite(v) for v in pool]
    return _values_may_match(name, cond, values)


# -- manifest encoding ---------------------------------------------------
def _segment_identity(entry: Dict[str, Any]) -> List[Any]:
    """What the manifest fingerprint hashes of one segment entry (stats are
    deliberately left out, so a backfill never changes row identity)."""
    return [entry["name"], entry["rows"], entry["fingerprint"]]


def _manifest_fingerprint(
    schema: Any, columns: List[str], identities: List[List[Any]]
) -> str:
    return hashlib.sha256(
        canonical_json(
            {"schema": schema, "columns": columns, "segments": identities}
        ).encode()
    ).hexdigest()


def _union_columns(columns: List[str], entry: Dict[str, Any]) -> List[str]:
    """``columns`` extended by the entry's new columns, in entry order."""
    return columns + [name for name in entry["columns"] if name not in columns]


def _encode_manifest(manifest: Dict[str, Any]) -> str:
    """Recompute ``rows``/``fingerprint`` and encode the whole manifest —
    the reference encoding every spliced append is byte-equal to."""
    segments = manifest["segments"]
    manifest["rows"] = sum(s["rows"] for s in segments)
    manifest["fingerprint"] = _manifest_fingerprint(
        manifest["schema"],
        manifest["columns"],
        [_segment_identity(s) for s in segments],
    )
    return json.dumps(manifest, allow_nan=False)


def _segments_prefix(head: Dict[str, Any]) -> str:
    """The encoded manifest up to its first segment entry, for a manifest
    whose keys are ``head``'s followed by ``"segments"``."""
    return json.dumps(head, allow_nan=False)[:-1] + ', "segments": ['


@dataclass(frozen=True)
class _Published:
    """A manifest this store instance wrote, in a form an append can extend
    without parsing it: the exact text, the manifest minus ``segments``,
    and the fingerprint's inputs per segment."""

    text: str
    head: Dict[str, Any]
    identities: List[List[Any]]

    @classmethod
    def of(cls, manifest: Dict[str, Any], text: str) -> Optional["_Published"]:
        """State for ``text`` (``_encode_manifest(manifest)``), or None when
        ``segments`` is not its last key and so cannot be spliced onto."""
        head = {k: v for k, v in manifest.items() if k != "segments"}
        if not (text.startswith(_segments_prefix(head)) and text.endswith("]}")):
            return None
        return cls(text, head, [_segment_identity(s) for s in manifest["segments"]])

    def append(self, entry: Dict[str, Any]) -> "_Published":
        """This manifest with ``entry`` sealed onto its end: the text
        ``_encode_manifest`` would produce, built from the old text."""
        head = dict(self.head)
        head["columns"] = _union_columns(self.head["columns"], entry)
        identities = self.identities + [_segment_identity(entry)]
        head["rows"] = sum(identity[1] for identity in identities)
        head["fingerprint"] = _manifest_fingerprint(
            head["schema"], head["columns"], identities
        )
        entries = self.text[len(_segments_prefix(self.head)) : -2]
        new_entry = (", " if entries else "") + json.dumps(entry, allow_nan=False)
        text = "".join((_segments_prefix(head), entries, new_entry, "]}"))
        return _Published(text, head, identities)


def _fill_may_match(name: str, cond: Any, target: str) -> bool:
    """Whether the union fill value (NaN / None) of a column absent from a
    segment can satisfy the condition."""
    if target == "object":
        fill = np.empty(1, dtype=object)
    else:
        fill = np.full(1, np.nan)
    return _values_may_match(name, cond, fill)


# -- segment readers -------------------------------------------------------
class _SegmentFile:
    """A sealed segment file (layout in the module docstring), mapped once.

    Numeric columns and keys are read-only views of the map, so a
    single-segment store is zero-copy; an object column's pool is parsed
    only when that column is read.  The magic bytes, the header length and
    every range read are checked against the file size, and a mismatch
    raises :class:`StoreError` naming the store, the segment and the
    column.  The bytes are not hashed: that would read every byte of a
    million-row segment on each load.
    """

    def __init__(self, where: str, buf: Any, rows: int) -> None:
        self.where = where
        self.buf = buf
        self.rows = rows
        if buf[: len(_MAGIC)] != _MAGIC:
            raise StoreError(f"{where} is not a segment file (bad magic bytes)")
        if len(buf) < _PREAMBLE.size:
            raise StoreError(f"{where} is truncated inside its preamble")
        _, header_length = _PREAMBLE.unpack_from(buf)
        end = _PREAMBLE.size + header_length
        if end > len(buf):
            raise StoreError(
                f"{where}: its {header_length}-byte header runs past the end "
                f"of the {len(buf)}-byte file"
            )
        try:
            header = json.loads(buf[_PREAMBLE.size : end])
            self.columns = {spec["name"]: spec for spec in header["columns"]}
            self.key_spec = header["keys"]
            stored_rows = header["rows"]
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreError(f"{where}: unreadable header ({exc!r})") from None
        if stored_rows != rows:
            raise StoreError(
                f"{where} holds {stored_rows!r} rows, its manifest entry {rows}"
            )
        self.start = end + (-end % _ALIGN)

    def _range(self, column: str, offset: Any, length: Any) -> Tuple[int, int]:
        """Absolute ``(start, end)`` of a range of ``column`` in the data
        region."""
        if not (
            isinstance(offset, int)
            and isinstance(length, int)
            and offset >= 0
            and length >= 0
            and self.start + offset + length <= len(self.buf)
        ):
            raise StoreError(
                f"{self.where} column {column!r}: data bytes at offset "
                f"{offset!r}, length {length!r} run past the end of the "
                f"{len(self.buf)}-byte file"
            )
        return self.start + offset, self.start + offset + length

    def _view(self, column: str, spec: Dict[str, Any]) -> np.ndarray:
        """The ``rows`` values a header entry describes, as a view."""
        try:
            dtype = np.dtype(spec["dtype"])
        except (KeyError, TypeError) as exc:
            raise StoreError(
                f"{self.where} column {column!r}: no readable dtype ({exc!r})"
            ) from None
        start, end = self._range(column, spec.get("offset"), spec.get("length"))
        if end - start != self.rows * dtype.itemsize:
            raise StoreError(
                f"{self.where} column {column!r}: {end - start} bytes cannot "
                f"hold {self.rows} {dtype} values"
            )
        return np.frombuffer(self.buf, dtype, self.rows, start)

    def _spec(self, column: str, kind: str) -> Dict[str, Any]:
        spec = self.columns.get(column)
        if not isinstance(spec, dict) or spec.get("kind") != kind:
            raise StoreError(f"{self.where} has no {kind} column {column!r}")
        return spec

    def numeric(self, column: str, kind: str) -> np.ndarray:
        return self._view(column, self._spec(column, kind))

    def encoded(self, column: str) -> Tuple[np.ndarray, List[Any]]:
        """An object column's int32 codes and its parsed value pool."""
        spec = self._spec(column, "object")
        codes = self._view(column, spec)
        start, end = self._range(
            column, spec.get("pool_offset"), spec.get("pool_length")
        )
        try:
            pool = json.loads(self.buf[start:end])
        except ValueError as exc:
            raise StoreError(
                f"{self.where} column {column!r}: unreadable value pool ({exc})"
            ) from None
        return codes, pool

    def keys(self) -> np.ndarray:
        if not isinstance(self.key_spec, dict):
            raise StoreError(f"{self.where} holds no keys")
        return self._view("keys", self.key_spec)


class _LegacySegment:
    """A schema-1 segment: a directory holding ``<name>.npy`` per numeric
    column, ``<name>.codes.npy`` and ``<name>.values.json`` per object
    column, and ``keys.npy`` when keyed.  The only code that knows that
    layout: this build reads it and never writes it."""

    def __init__(self, path: Path, where: str) -> None:
        self.path = path
        self.where = where

    def _read(self, column: str, file_name: str, read) -> Any:
        try:
            return read(self.path / file_name)
        except (OSError, ValueError) as exc:
            raise StoreError(
                f"{self.where} column {column!r}: unreadable {file_name} ({exc})"
            ) from exc

    def numeric(self, column: str, kind: str) -> np.ndarray:
        return self._read(
            column, f"{column}.npy", lambda path: np.load(path, mmap_mode="r")
        )

    def encoded(self, column: str) -> Tuple[np.ndarray, List[Any]]:
        codes = self._read(column, f"{column}.codes.npy", np.load)
        pool = self._read(
            column, f"{column}.values.json", lambda path: json.loads(path.read_text())
        )
        return codes, pool

    def keys(self) -> np.ndarray:
        return self._read("keys", "keys.npy", np.load)

    @staticmethod
    def size(path: Path) -> int:
        return sum(child.stat().st_size for child in path.iterdir())


class ColumnStore:
    """Append-only columnar result store (layout in the module docstring).

    Usage::

        store = ColumnStore("artifacts/store")
        store.ingest(cache_dir)          # chunked merge from JSON artifacts
        frame = store.to_frame()         # mmap-backed ResultFrame
        store.compact()                  # coalesce segments, drop superseded
    """

    #: a writer lock older than this is presumed crashed and is broken
    LOCK_STALE_SECONDS = 300.0

    def __init__(self, root, lock_timeout: float = 30.0) -> None:
        self.root = Path(root)
        self.lock_timeout = float(lock_timeout)
        #: the manifest this instance's last append published
        self._published: Optional[_Published] = None

    # -- paths / manifest -------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / _MANIFEST

    @property
    def segments_dir(self) -> Path:
        return self.root / _SEGMENTS

    def exists(self) -> bool:
        return self.manifest_path.is_file()

    def _read_manifest_text(self) -> Optional[str]:
        try:
            return self.manifest_path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StoreError(f"unreadable store manifest {self.manifest_path}: {exc}")

    def _parse_manifest(self, text: str) -> Dict[str, Any]:
        try:
            manifest = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreError(f"unreadable store manifest {self.manifest_path}: {exc}")
        if not isinstance(manifest, dict) or not isinstance(
            manifest.get("segments"), list
        ):
            raise StoreError(f"{self.manifest_path} is not a store manifest")
        if manifest.get("schema") not in (STORE_SCHEMA_VERSION, _LEGACY_SCHEMA):
            raise StoreError(
                f"store {self.root} has schema {manifest.get('schema')!r}, "
                f"this build reads {STORE_SCHEMA_VERSION} and {_LEGACY_SCHEMA}"
            )
        return manifest

    def _require_manifest(self) -> Dict[str, Any]:
        text = self._read_manifest_text()
        if text is None:
            raise FileNotFoundError(f"no store at {self.root} (missing {_MANIFEST})")
        return self._parse_manifest(text)

    def _empty_manifest(self) -> Dict[str, Any]:
        return {
            "schema": STORE_SCHEMA_VERSION,
            "fingerprint": "",
            "rows": 0,
            "columns": [],
            "segments": [],
        }

    def _write_manifest(self, text: str) -> None:
        """Publish ``text`` as the manifest (atomic replace)."""
        atomic_write_text(self.manifest_path, text)

    def fingerprint(self) -> str:
        """The manifest fingerprint: changes iff the stored rows change."""
        return self._require_manifest()["fingerprint"]

    def rows(self) -> int:
        return self._require_manifest()["rows"]

    # -- writer lock ------------------------------------------------------
    def _lock_path(self) -> Path:
        return self.root / ".lock"

    def _acquire_lock(self) -> None:
        lock = self._lock_path()
        deadline = time.monotonic() + self.lock_timeout
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, f"{os.getpid()}\n".encode())
                os.close(fd)
                return
            except FileExistsError:
                pass
            try:
                age = time.time() - lock.stat().st_mtime
            except OSError:
                continue  # holder just released; retry immediately
            if age > self.LOCK_STALE_SECONDS:
                lock.unlink(missing_ok=True)  # crashed writer; break the lock
                continue
            if time.monotonic() >= deadline:
                raise StoreLockTimeout(
                    f"store {self.root} writer lock held for {age:.0f}s "
                    f"(waited {self.lock_timeout:.0f}s); remove {lock} if the "
                    "holder is dead"
                )
            time.sleep(0.05)

    def _release_lock(self) -> None:
        self._lock_path().unlink(missing_ok=True)

    # -- append -----------------------------------------------------------
    def append_frame(
        self, frame: ResultFrame, keys: Optional[Sequence[str]] = None
    ) -> Optional[Dict[str, Any]]:
        """Seal ``frame``'s rows as one new segment; returns its manifest
        entry (None for an empty frame).

        ``keys`` (one spec hash per row) makes the segment *keyed* — see
        the module docstring for the supersession semantics.  Column values
        must be JSON-native; appends are serialized on the writer lock and
        the manifest is rewritten only after the segment is sealed, so a
        crash can never publish a torn segment.
        """
        if keys is not None and len(keys) != len(frame):
            raise ValueError(
                f"got {len(keys)} keys for {len(frame)} rows"
            )
        if not len(frame):
            return None
        columns = {name: frame[name] for name in frame.columns}
        self.root.mkdir(parents=True, exist_ok=True)
        self._acquire_lock()
        try:
            on_disk = self._read_manifest_text()
            published = self._published
            if published is not None and on_disk == published.text:
                # our own last publish: splice, no parse or full encode
                entry = self._seal_segment(
                    self._next_seq(name for name, _, _ in published.identities),
                    columns,
                    keys,
                )
                published = published.append(entry)
                text = published.text
            else:
                if on_disk is None:
                    manifest = self._empty_manifest()
                else:
                    manifest = self._parse_manifest(on_disk)
                    # a segment file in a schema-1 store makes it schema 2
                    manifest["schema"] = STORE_SCHEMA_VERSION
                entry = self._seal_segment(
                    self._next_seq(s["name"] for s in manifest["segments"]),
                    columns,
                    keys,
                )
                manifest["segments"].append(entry)
                manifest["columns"] = _union_columns(manifest["columns"], entry)
                text = _encode_manifest(manifest)
                published = _Published.of(manifest, text)
            self._write_manifest(text)
            self._published = published
        finally:
            self._release_lock()
        return entry

    def append_rows(
        self, rows: Iterable[Any], keys: Optional[Sequence[str]] = None
    ) -> Optional[Dict[str, Any]]:
        """``append_frame`` over result rows (:class:`PruningResult` or
        plain record dicts)."""
        rows = list(rows)
        if rows and hasattr(rows[0], "to_dict"):
            frame = ResultFrame.from_results(rows)
        else:
            frame = ResultFrame.from_records(rows)
        return self.append_frame(frame, keys=keys)

    def _next_seq(self, names: Iterable[str]) -> int:
        """One past every sequence number in ``names`` (the manifest's
        segments) and in the segments directory."""
        seqs = [0]
        for name in names:
            try:
                seqs.append(int(name.split("-")[1]) + 1)
            except (IndexError, ValueError):
                pass
        if self.segments_dir.is_dir():
            # also step past unreferenced (crashed/stray) segments so a
            # recovered writer can never collide with one
            for path in self.segments_dir.glob("seg-*"):
                try:
                    seqs.append(int(path.name.split("-")[1]) + 1)
                except (IndexError, ValueError):
                    pass
        return max(seqs)

    def _seal_segment(
        self,
        seq: int,
        columns: Dict[str, np.ndarray],
        keys: Optional[Sequence[str]],
    ) -> Dict[str, Any]:
        """Write ``columns`` (and ``keys``) as one segment file, built and
        hashed in memory, so nothing is read back; returns its manifest
        entry."""
        n_rows = len(next(iter(columns.values()))) if columns else 0
        data: List[Any] = []  # the data region's buffers, padding included
        size = 0

        def place(buf: Any) -> Tuple[int, int]:
            nonlocal size
            offset, length = size, memoryview(buf).nbytes
            data.append(buf)
            pad = -length % _ALIGN
            if pad:
                data.append(bytes(pad))
            size += length + pad
            return offset, length

        layout: List[Dict[str, Any]] = []
        col_kinds: Dict[str, str] = {}
        col_stats: Dict[str, Dict[str, Any]] = {}
        for name, arr in columns.items():
            _check_column_name(name)
            kind, values, pool, col_stats[name] = _encode_column(arr)
            col_kinds[name] = kind
            offset, length = place(values)
            spec = {"name": name, "kind": kind, "dtype": values.dtype.str,
                    "offset": offset, "length": length}
            if pool is not None:
                spec["pool_offset"], spec["pool_length"] = place(pool)
            layout.append(spec)
        key_spec = None
        if keys is not None:
            key_array = np.asarray(list(keys), dtype=np.str_)
            offset, length = place(key_array)
            key_spec = {"dtype": key_array.dtype.str, "offset": offset,
                        "length": length}
        header = json.dumps(
            {"rows": n_rows, "columns": layout, "keys": key_spec},
            allow_nan=False, separators=(",", ":"),
        ).encode()
        head = _PREAMBLE.pack(_MAGIC, len(header)) + header
        head += bytes(-len(head) % _ALIGN)
        digest = hashlib.sha256(head)
        for buf in data:
            digest.update(buf)
        fingerprint = digest.hexdigest()
        name = f"seg-{seq:08d}-{fingerprint[:8]}"
        # truncate, not exclusive: under the writer lock a file of this
        # name is a dead writer's whose pid recurs, and would otherwise
        # block every append and compact until removed by hand
        tmp = self.segments_dir / f".tmp-{os.getpid()}-{seq}"
        try:
            out = open(tmp, "wb")
        except FileNotFoundError:  # the store's first segment
            self.segments_dir.mkdir(parents=True, exist_ok=True)
            out = open(tmp, "wb")
        with out:
            out.write(head)
            for buf in data:
                out.write(buf)
        os.rename(tmp, self.segments_dir / name)
        return {
            "name": name,
            "rows": n_rows,
            "keyed": keys is not None,
            "fingerprint": fingerprint,
            "columns": col_kinds,
            "stats": col_stats,
        }

    # -- read -------------------------------------------------------------
    def _open_segment(self, entry: Dict[str, Any]) -> Any:
        """The reader of one manifest entry's segment: a
        :class:`_SegmentFile`, or a :class:`_LegacySegment` when the entry
        names a schema-1 directory."""
        path = self.segments_dir / entry["name"]
        where = f"store {self.root} segment {entry['name']}"
        try:
            with open(path, "rb") as fh:
                try:
                    buf: Any = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                except ValueError:  # an empty file cannot be mapped
                    buf = b""
        except IsADirectoryError:
            return _LegacySegment(path, where)
        except OSError as exc:
            raise StoreError(f"{where} is unreadable ({exc})") from exc
        return _SegmentFile(where, buf, entry["rows"])

    def _load_segment(
        self, entry: Dict[str, Any], subset: Optional[Sequence[str]] = None
    ) -> Dict[str, np.ndarray]:
        segment = self._open_segment(entry)
        out: Dict[str, np.ndarray] = {}
        for name, kind in entry["columns"].items():
            if subset is not None and name not in subset:
                continue
            if kind in _NUMERIC_KINDS:
                out[name] = segment.numeric(name, kind)
            elif kind == "object":
                out[name] = _decode_object_column(*segment.encoded(name))
            else:
                raise StoreError(
                    f"segment {entry['name']} column {name!r} has unknown "
                    f"kind {kind!r}"
                )
        return out

    def _segment_keys(self, entry: Dict[str, Any]) -> np.ndarray:
        # a copy: a read holds every segment's keys at once, and a view
        # would hold every segment's map with them
        return np.array(self._open_segment(entry).keys())

    def to_frame(
        self,
        columns: Optional[Sequence[str]] = None,
        where: Optional[Dict[str, Any]] = None,
        manifest: Optional[Dict[str, Any]] = None,
    ) -> ResultFrame:
        """The store (or a projected/filtered slice of it) as one
        :class:`ResultFrame`.

        Numeric columns of a single-segment store stay memory-mapped
        (zero-copy); multi-segment stores concatenate.  When every segment
        is keyed, rows are deduplicated by key — last sealed wins — so a
        re-ingested/re-run cell supersedes its old row without a compact.

        ``columns`` restricts the load to the named columns (projection —
        the bytes of unreferenced columns are never read).  ``where`` takes
        :meth:`ResultFrame.mask`-style conditions (scalar equality, list
        membership, ``{"op": ..., "value": ...}``) and is the pushdown
        read path: segments whose zone-map statistics prove no row can
        match are skipped without touching their data files, and surviving
        segments are masked with the exact ``mask`` semantics, so the
        result is byte-identical to ``to_frame().filter(**where)``
        projected to ``columns``.  Callable conditions cannot be pushed
        down — filter the materialized frame instead.  ``manifest`` pins a
        previously read manifest (the server uses this to keep one
        snapshot's reads self-consistent).
        """
        frame, _ = self._load_frame(columns=columns, where=where, manifest=manifest)
        return frame

    def keys(self) -> set:
        """Spec hashes present in keyed segments (for idempotent ingest)."""
        out: set = set()
        for entry in self._require_manifest()["segments"]:
            if entry.get("keyed"):
                out.update(self._open_segment(entry).keys().tolist())
        return out

    @staticmethod
    def _union_kind(kinds: Sequence[Optional[str]]) -> str:
        """The dtype a column takes in the union frame, given its kind in
        each segment (None where the segment lacks the column)."""
        if "object" in kinds:
            return "object"
        if "float64" in kinds or None in kinds:
            return "float64"  # missing segments fill with NaN
        return "int64"

    @staticmethod
    def _empty_column(target: str, rows: int = 0) -> np.ndarray:
        if target == "object":
            return np.empty(rows, dtype=object)
        return np.empty(rows, np.int64 if target == "int64" else np.float64)

    def _check_where(
        self, where: Optional[Dict[str, Any]], names: Sequence[str]
    ) -> Optional[Dict[str, Any]]:
        if not where:
            return None
        for name, cond in where.items():
            if name not in names:
                raise KeyError(
                    f"unknown filter column {name!r}; available: {list(names)}"
                )
            if callable(cond):
                raise ValueError(
                    f"filter for column {name!r} is a callable; only "
                    "mask-style conditions push down — use "
                    "to_frame().filter(...) instead"
                )
        return dict(where)

    def _segment_may_match(
        self,
        entry: Dict[str, Any],
        where: Dict[str, Any],
        targets: Dict[str, str],
    ) -> bool:
        """Conservative planner predicate: False only when the segment's
        zone maps *prove* no row can satisfy every condition.  Segments
        from legacy (pre-stats) manifests always load."""
        stats = entry.get("stats") or {}
        for name, cond in where.items():
            kind = entry["columns"].get(name)
            if kind is None:
                # the column is absent here: every row holds the union fill
                if not _fill_may_match(name, cond, targets[name]):
                    return False
                continue
            col_stats = stats.get(name)
            if not isinstance(col_stats, dict):
                continue  # no stats recorded for this column: cannot prune
            if kind == "object":
                if not _pool_may_match(name, cond, col_stats):
                    return False
            elif not _numeric_may_match(cond, col_stats):
                return False
        return True

    def scan_plan(
        self,
        where: Optional[Dict[str, Any]] = None,
        columns: Optional[Sequence[str]] = None,
        manifest: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """What a pushdown read would touch, without touching it.

        Returns ``{"segments_total", "segments_selected", "rows_total",
        "rows_selected", "columns_loaded"}`` — the observable planner
        decision, used by tests and ``repro store stats`` to prove a skip
        actually skips.
        """
        manifest = manifest or self._require_manifest()
        segments = manifest["segments"]
        names = list(manifest["columns"])
        where = self._check_where(where, names)
        if columns is None:
            needed = list(names)
        else:
            needed = [self._check_column(name, names) for name in columns]
            for name in where or ():
                if name not in needed:
                    needed.append(name)
        targets = {
            name: self._union_kind([e["columns"].get(name) for e in segments])
            for name in needed
        }
        chosen = [
            entry
            for entry in segments
            if not where or self._segment_may_match(entry, where, targets)
        ]
        return {
            "segments_total": len(segments),
            "segments_selected": len(chosen),
            "rows_total": sum(e["rows"] for e in segments),
            "rows_selected": sum(e["rows"] for e in chosen),
            "columns_loaded": needed,
        }

    @staticmethod
    def _check_column(name: str, names: Sequence[str]) -> str:
        if name not in names:
            raise KeyError(f"unknown column {name!r}; available: {list(names)}")
        return name

    def _dedup_keep_masks(
        self, segments: Sequence[Dict[str, Any]]
    ) -> Tuple[Optional[List[np.ndarray]], Optional[List[np.ndarray]]]:
        """Global key-supersession masks, one boolean mask per segment.

        Keys are loaded from *every* segment (they are small) even when the
        planner skips a segment's data, because a superseded row in a loaded
        segment may be shadowed by a newer generation in a skipped one.
        Returns ``(key_parts, keep_masks)`` — ``(None, None)`` when any
        segment is unkeyed, ``(parts, None)`` when no key repeats.
        """
        if not segments or not all(e.get("keyed") for e in segments):
            return None, None
        parts = [self._segment_keys(entry) for entry in segments]
        keys = parts[0] if len(parts) == 1 else np.concatenate(parts)
        keep = self._last_occurrence(keys)
        if keep is None:
            return parts, None
        keep_all = np.zeros(len(keys), dtype=bool)
        keep_all[keep] = True
        masks: List[np.ndarray] = []
        offset = 0
        for entry in segments:
            masks.append(keep_all[offset : offset + entry["rows"]])
            offset += entry["rows"]
        return parts, masks

    def _load_frame(
        self,
        columns: Optional[Sequence[str]] = None,
        where: Optional[Dict[str, Any]] = None,
        manifest: Optional[Dict[str, Any]] = None,
    ) -> Tuple[ResultFrame, Optional[np.ndarray]]:
        manifest = manifest or self._require_manifest()
        segments = manifest["segments"]
        all_names = list(manifest["columns"])
        if columns is None:
            names = all_names
        else:
            names = [self._check_column(name, all_names) for name in columns]
        where = self._check_where(where, all_names)
        if not segments:
            return ResultFrame.from_records([], columns=names), None
        needed = list(names)
        for name in where or ():
            if name not in needed:
                needed.append(name)
        # union dtypes come from ALL segments — a skipped segment still
        # widens int64 to float64, exactly as the full scan would
        targets = {
            name: self._union_kind([e["columns"].get(name) for e in segments])
            for name in needed
        }
        key_parts, keep_masks = self._dedup_keep_masks(segments)
        keyed = key_parts is not None
        chosen = [
            i for i, entry in enumerate(segments)
            if not where or self._segment_may_match(entry, where, targets)
        ]
        # A segment's column views pin its map, and each map holds a file
        # descriptor, so no view may outlive its segment's turn: views kept
        # for one final concatenation run a read of ~1,000 segments out of
        # descriptors.  An unfiltered read of several segments copies each
        # into its slice of preallocated columns, sized by the manifest and
        # the keep masks; a filtered read's parts are masked copies already.
        fill = not where and len(chosen) > 1
        out_columns: Dict[str, np.ndarray] = {}
        if fill:
            total = sum(segments[i]["rows"] if keep_masks is None
                        else np.count_nonzero(keep_masks[i])
                        for i in chosen)
            out_columns = {name: self._empty_column(targets[name], total)
                           for name in names}
        col_parts: Dict[str, List[np.ndarray]] = {name: [] for name in names}
        key_out: List[np.ndarray] = []
        filled = 0
        for i in chosen:
            entry = segments[i]
            loaded = self._load_segment(entry, subset=needed)
            arrays: Dict[str, np.ndarray] = {}
            for name in needed:
                if name in loaded:
                    arrays[name] = self._cast(loaded[name], targets[name])
                elif targets[name] == "object":
                    arrays[name] = np.empty(entry["rows"], dtype=object)
                else:
                    arrays[name] = np.full(entry["rows"], np.nan, dtype=np.float64)
            mask: Optional[np.ndarray] = None
            if keep_masks is not None:
                mask = keep_masks[i]
            if where:
                row_mask = ResultFrame(arrays).mask(**where)
                mask = row_mask if mask is None else (mask & row_mask)
            rows = entry["rows"] if mask is None else np.count_nonzero(mask)
            for name in names:
                part = arrays[name] if mask is None else arrays[name][mask]
                if fill:
                    out_columns[name][filled : filled + rows] = part
                else:
                    col_parts[name].append(part)
            filled += rows
            if keyed:
                seg_keys = key_parts[i]
                key_out.append(seg_keys if mask is None else seg_keys[mask])
        if not fill:
            for name, parts in col_parts.items():
                if not parts:
                    out_columns[name] = self._empty_column(targets[name])
                elif len(parts) == 1:
                    out_columns[name] = parts[0]
                else:
                    out_columns[name] = np.concatenate(parts)
        keys: Optional[np.ndarray] = None
        if keyed:
            if not key_out:
                keys = np.asarray([], dtype=np.str_)
            elif len(key_out) == 1:
                keys = key_out[0]
            else:
                keys = np.concatenate(key_out)
        return ResultFrame(out_columns), keys

    @staticmethod
    def _cast(arr: np.ndarray, target: str) -> np.ndarray:
        if target == "object" and arr.dtype.kind != "O":
            return _to_object(arr)
        if target == "float64" and arr.dtype.kind in "iu":
            return arr.astype(np.float64)
        return arr

    @staticmethod
    def _last_occurrence(keys: np.ndarray) -> Optional[np.ndarray]:
        """Row indices keeping the last occurrence of each key, in original
        order — or None when all keys are already unique."""
        reversed_first = np.unique(keys[::-1], return_index=True)[1]
        if len(reversed_first) == len(keys):
            return None
        return np.sort(len(keys) - 1 - reversed_first)

    # -- ingest -----------------------------------------------------------
    def ingest(
        self,
        source,
        cache_dir=None,
        chunk_rows: int = 65536,
        skip_existing: bool = True,
        progress=None,
    ) -> Dict[str, Any]:
        """Chunked/streaming merge of a JSON artifact into the store.

        ``source`` is sniffed exactly like ``load_frame``: a
        ``results.json`` file, a result-cache directory, or a work-queue
        directory (done cells from its cache — ``cache_dir`` mirrors the
        CLI override — plus quarantined placeholder rows).  Cache and queue
        rows are keyed by spec hash, so with ``skip_existing`` (default)
        re-ingest is idempotent and without it re-runs supersede old rows;
        ``results.json`` rows carry no identity and always append.  Rows
        stream in ``chunk_rows`` batches — a million-row cache never
        materializes in memory.  ``progress`` (a callable taking one
        string) receives a ``chunk i/N (rows)`` line per sealed chunk; N
        counts source candidates, so skipped rows can finish short of it.
        Returns ``{"rows_appended", "rows_skipped", "segments_added",
        "source"}``.
        """
        source = Path(source)
        stats = {
            "rows_appended": 0,
            "rows_skipped": 0,
            "segments_added": 0,
            "source": str(source),
        }
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        chunks_total = 0

        def flush_frame(frame: ResultFrame, keys: Optional[List[str]]) -> None:
            entry = self.append_frame(frame, keys=keys)
            if entry is not None:
                stats["rows_appended"] += entry["rows"]
                stats["segments_added"] += 1
                if progress is not None:
                    progress(
                        f"chunk {stats['segments_added']}/{chunks_total} "
                        f"({entry['rows']} rows)"
                    )

        if source.is_file():
            frame = ResultFrame.from_json(source)
            chunks_total = -(-len(frame) // chunk_rows) if len(frame) else 0
            for start in range(0, len(frame), chunk_rows):
                idx = np.arange(start, min(start + chunk_rows, len(frame)))
                flush_frame(frame.take(idx), None)
            return stats
        if not source.is_dir():
            raise FileNotFoundError(f"nothing to ingest at {source}")

        candidates = self._count_source_rows(source, cache_dir)
        chunks_total = -(-candidates // chunk_rows) if candidates else 0
        existing = self.keys() if skip_existing and self.exists() else set()
        rows: List[Any] = []
        keys: List[str] = []

        def flush_rows() -> None:
            if rows:
                flush_frame(ResultFrame.from_results(rows), list(keys))
                rows.clear()
                keys.clear()

        for key, row in self._iter_source_rows(source, cache_dir):
            if key in existing:
                stats["rows_skipped"] += 1
                continue
            rows.append(row)
            keys.append(key)
            if len(rows) >= chunk_rows:
                flush_rows()
        flush_rows()
        return stats

    @staticmethod
    def _count_source_rows(source: Path, cache_dir) -> int:
        """Candidate row count of a cache/queue source — a cheap directory
        listing (no JSON parsing) sizing the ingest progress denominator."""
        from ..experiment.cache import ResultCache

        queue = is_queue_dir(source)
        entries_root = (cache_dir or source / "cache") if queue else source
        count = sum(1 for _ in ResultCache(entries_root)._entries())
        if queue:
            count += sum(1 for _ in (source / "failed").glob("*.json"))
        return count

    @staticmethod
    def _iter_source_rows(source: Path, cache_dir) -> Iterator[Tuple[str, Any]]:
        """(spec-hash, PruningResult) rows of a cache or queue directory, in
        the exact order ``from_cache``/``from_queue`` assemble them."""
        from ..experiment.cache import iter_cache_entries
        from ..experiment.prune import ExperimentSpec
        from ..experiment.queue import QueueExecutor
        from ..experiment.results import PruningResult

        queue = is_queue_dir(source)
        entries_root = (cache_dir or source / "cache") if queue else source
        for key, result in iter_cache_entries(entries_root):
            yield key, PruningResult.from_dict(result)
        if not queue:
            return
        for path in sorted((source / "failed").glob("*.json")):
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if not isinstance(payload, dict) or "spec" not in payload:
                continue
            spec = ExperimentSpec.from_dict(payload["spec"])
            yield path.stem, QueueExecutor._quarantine_row(spec, payload)

    # -- maintenance ------------------------------------------------------
    def compact(self) -> Dict[str, Any]:
        """Rewrite the store as one sealed segment and sweep everything else.

        Coalesces small segments (a queue worker publishing row-at-a-time
        produces many), makes key-supersession physical (superseded
        generations are dropped, not just masked at read time), and removes
        every unreferenced entry of ``segments/``: segment files sealed but
        never published, ``.tmp-`` files of killed writers, and schema-1
        directories.  Readers racing a compact are safe: the manifest swap
        is atomic and old segments are deleted only after the new manifest
        is down.  Returns before/after segment and row counts and the
        number of entries swept.
        """
        self._require_manifest()  # compacting a non-store is a caller bug
        self._acquire_lock()
        try:
            manifest = self._require_manifest()  # re-read under the lock
            before_segments = len(manifest["segments"])
            before_rows = manifest["rows"]
            frame, keys = self._load_frame()
            seq = self._next_seq(s["name"] for s in manifest["segments"])
            manifest["schema"] = STORE_SCHEMA_VERSION
            manifest["segments"] = []
            if len(frame):
                columns = {name: frame[name] for name in frame.columns}
                entry = self._seal_segment(
                    seq, columns, None if keys is None else keys.tolist()
                )
                manifest["segments"] = [entry]
            self._write_manifest(_encode_manifest(manifest))
            swept = self._sweep_unreferenced(manifest)
        finally:
            self._release_lock()
        return {
            "segments_before": before_segments,
            "segments_after": len(manifest["segments"]),
            "rows_before": before_rows,
            "rows_after": manifest["rows"],
            "swept": swept,
        }

    def analyze(self) -> Dict[str, Any]:
        """Backfill zone-map statistics for segments sealed before stats
        existed, rewriting only the manifest.

        Segments are immutable, so the stats are computed once from disk
        and recorded next to each entry.  The manifest
        fingerprint hashes only row identity (name/rows/segment digest),
        not stats, so a backfill keeps it, and with it the ETag of a
        served ``/report``; the schema is kept too.  Returns
        ``{"segments", "analyzed"}``; segments that already carry stats are
        left untouched (``compact`` also produces stats as a side effect).
        """
        self._require_manifest()
        self._acquire_lock()
        try:
            manifest = self._require_manifest()  # re-read under the lock
            analyzed = 0
            for entry in manifest["segments"]:
                if isinstance(entry.get("stats"), dict):
                    continue
                entry["stats"] = self._stats_from_disk(entry)
                analyzed += 1
            if analyzed:
                self._write_manifest(_encode_manifest(manifest))
        finally:
            self._release_lock()
        return {"segments": len(manifest["segments"]), "analyzed": analyzed}

    def _stats_from_disk(self, entry: Dict[str, Any]) -> Dict[str, Any]:
        segment = self._open_segment(entry)
        stats: Dict[str, Any] = {}
        for name, kind in entry["columns"].items():
            if kind in _NUMERIC_KINDS:
                stats[name] = _numeric_stats(segment.numeric(name, kind))
            else:
                stats[name] = _object_stats(*segment.encoded(name))
        return stats

    def segments(self) -> List[Dict[str, Any]]:
        """The manifest's segment entries (name/rows/keyed/columns/stats) —
        the read API behind ``repro store stats --segments``."""
        return list(self._require_manifest()["segments"])

    def _sweep_unreferenced(self, manifest: Dict[str, Any]) -> int:
        live = {entry["name"] for entry in manifest["segments"]}
        swept = 0
        if not self.segments_dir.is_dir():
            return swept
        for path in self.segments_dir.iterdir():
            if path.name in live:
                continue
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()
            swept += 1
        return swept

    def stats(self) -> Dict[str, Any]:
        """Store statistics (for ``python -m repro store stats``)."""
        manifest = self._require_manifest()
        size_bytes = 0
        for entry in manifest["segments"]:
            path = self.segments_dir / entry["name"]
            try:
                st = path.stat()
                size_bytes += (
                    _LegacySegment.size(path)
                    if stat.S_ISDIR(st.st_mode)
                    else st.st_size
                )
            except OSError:
                pass
        return {
            "root": str(self.root),
            "schema": manifest["schema"],
            "fingerprint": manifest["fingerprint"],
            "rows": manifest["rows"],
            "columns": list(manifest["columns"]),
            "segments": len(manifest["segments"]),
            "keyed_segments": sum(
                1 for entry in manifest["segments"] if entry.get("keyed")
            ),
            "size_bytes": size_bytes,
        }
