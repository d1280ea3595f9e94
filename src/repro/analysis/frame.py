"""Columnar ResultFrame: the vectorized analysis layer over result rows.

The paper's §6 prescribes *how* results must be aggregated — mean ± std
over seeds, raw accuracy plus deltas vs the unpruned control, both the
compression and the speedup axis — and §4's figures are all tradeoff
curves and Pareto frontiers over a corpus of such rows.  A sweep can now
produce thousands of rows across processes and machines; this module is
the single place they are filtered, grouped, joined to their baselines,
and reduced to curves.

Column schema
-------------
A :class:`ResultFrame` is a mapping of column name → 1-D NumPy array, all
of equal length (one entry per result row).  Frames built from experiment
rows (:class:`~repro.experiment.results.PruningResult`) carry one column
per dataclass field plus three derived columns:

=====================  =========  =========================================
column                 dtype      meaning
=====================  =========  =========================================
model, dataset,        object     registry names identifying the cell
strategy
compression            float64    target whole-model compression
seed                   int64      fine-tuning seed
actual_compression     float64    achieved compression (may be ``inf``)
theoretical_speedup    float64    dense FLOPs / effective FLOPs
total_params,          int64      parameter counts
nonzero_params
dense_flops,           float64    FLOP counts
effective_flops
baseline_top1/5        float64    unpruned control accuracy (§6)
pre_finetune_top1/5    float64    accuracy right after pruning
top1, top5             float64    accuracy after fine-tuning
pretrained_key         object     shared-checkpoint provenance (§7.3)
finetune_epochs_ran    int64      epochs actually run (early stopping)
extra                  object     free-form dict (``extra["failed"]`` marks
                                  quarantined queue cells)
delta_top1/5           float64    derived: top1/5 − baseline_top1/5
speedup                float64    derived: alias of theoretical_speedup
=====================  =========  =========================================

Frames are *generic*: :meth:`ResultFrame.from_records` builds a frame with
whatever columns its records carry (the meta-analysis corpus uses this),
and every query method works on arbitrary columns.

Frames are immutable (columns are read-only views), so a frame keeps the
factorized codes of every object column it has grouped by.

Constructors are lossless and interchangeable: ``from_results`` /
``from_json`` / ``from_cache`` / ``from_queue`` all yield frames whose
curve data is point-for-point identical for the same sweep — a finished
multi-machine queue run and its saved ``results.json`` produce the same
report (``python -m repro report`` accepts any of the three).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..experiment.prune import BASELINE_STRATEGY
from ..experiment.results import CurvePoint, PruningResult, ResultSet

__all__ = [
    "FILTER_OPS",
    "ResultFrame",
    "is_queue_dir",
    "load_frame",
    "queue_outstanding",
]

#: operators a ``{"op": ..., "value": ...}`` filter spec may use — the
#: serializable comparison vocabulary of :meth:`ResultFrame.mask` and the
#: results-server query language (callables cannot travel over HTTP)
FILTER_OPS: Tuple[str, ...] = ("==", "!=", "<", "<=", ">", ">=", "in", "not-in")

#: derived column → the base columns it is computed from
_DERIVED = {
    "delta_top1": ("top1", "baseline_top1"),
    "delta_top5": ("top5", "baseline_top5"),
    "speedup": ("theoretical_speedup",),
}


def _infer_column(values: List[Any]) -> np.ndarray:
    """Pack a list of Python values into the narrowest sensible array.

    ints → int64, numbers (or None, encoded as NaN) → float64, everything
    else (strings, dicts) → object.  Bools count as objects, not ints, so
    flag columns keep their identity.  An all-None column is float64 NaN —
    "metric never reported" must still answer ``np.isfinite`` filters.
    """
    non_null = [v for v in values if v is not None]
    if values and not non_null:
        return np.full(len(values), np.nan, dtype=np.float64)
    if non_null and all(
        isinstance(v, int) and not isinstance(v, bool) for v in non_null
    ):
        if len(non_null) == len(values):
            return np.asarray(values, dtype=np.int64)
        return np.asarray(
            [float("nan") if v is None else float(v) for v in values],
            dtype=np.float64,
        )
    if non_null and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in non_null
    ):
        return np.asarray(
            [float("nan") if v is None else float(v) for v in values],
            dtype=np.float64,
        )
    out = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        out[i] = v
    return out


def _json_safe(value: Any) -> Any:
    """Unwrap NumPy scalars so records serialize/compare like plain Python."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.str_):
        return str(value)
    return value


#: ``(order, starts, sizes)``: see :meth:`ResultFrame._grouping`
_Grouping = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _check_stat(stat: str) -> None:
    if stat not in ("mean", "std", "min", "max"):
        raise ValueError(f"unknown stat {stat!r} (expected mean/std/min/max)")


class ResultFrame:
    """Typed columns + vectorized queries over result rows (see module doc).

    Usage::

        frame = ResultFrame.from_json("results.json")
        gw = frame.filter(strategy="global_weight", compression=[2, 4, 8])
        curves = frame.ok().tradeoff_curves(x="compression", y="top1")
        best = frame.pareto_frontier(x="actual_compression", y="top1")
    """

    def __init__(self, columns: Dict[str, np.ndarray]) -> None:
        self._columns: Dict[str, np.ndarray] = {}
        length: Optional[int] = None
        for name, values in columns.items():
            arr = values.view() if isinstance(values, np.ndarray) \
                else _infer_column(list(values))
            # frames never change after construction; a read-only view
            # makes an in-place write raise instead of serving stale groups
            arr.flags.writeable = False
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D, got shape {arr.shape}")
            if length is None:
                length = len(arr)
            elif len(arr) != length:
                raise ValueError(
                    f"column {name!r} has {len(arr)} rows, expected {length}"
                )
            self._columns[name] = arr
        self._length = length or 0
        #: object column → (sorted distinct values, int64 codes), or None
        #: when it cannot be factorized; filled by the first grouping
        self._codes: Dict[str, Optional[Tuple[np.ndarray, np.ndarray]]] = {}

    # -- construction ----------------------------------------------------
    @classmethod
    def from_records(
        cls,
        records: Iterable[Dict[str, Any]],
        columns: Optional[Sequence[str]] = None,
    ) -> "ResultFrame":
        """Frame over a list of dicts; missing keys become None/NaN.

        Column order is first-appearance order (or the explicit ``columns``
        sequence, which also fixes the schema of an empty frame).
        """
        records = list(records)
        names: List[str] = list(columns) if columns is not None else []
        for rec in records:
            for key in rec:
                if key not in names:
                    names.append(key)
        cols = {
            name: _infer_column([rec.get(name) for rec in records])
            for name in names
        }
        return cls(cols)

    @classmethod
    def from_results(
        cls, results: Union[ResultSet, Iterable[PruningResult]]
    ) -> "ResultFrame":
        """Lossless frame from a :class:`ResultSet` (or any row iterable)."""
        rows = list(results)
        field_names = list(PruningResult.__dataclass_fields__)
        frame = cls.from_records([r.to_dict() for r in rows], columns=field_names)
        return frame.derived()

    @classmethod
    def from_json(cls, path) -> "ResultFrame":
        """Frame from a saved ``ResultSet`` JSON file (``results.json``)."""
        data = json.loads(Path(path).read_text())
        return cls.from_results(PruningResult.from_dict(d) for d in data)

    @classmethod
    def from_cache(cls, root) -> "ResultFrame":
        """Frame from a :class:`~repro.experiment.cache.ResultCache` directory.

        Reads every current-schema entry (layout documented in
        :mod:`repro.experiment.cache`); torn or stale-schema files are
        skipped, matching the cache's own hit rules.  Entry order is the
        sorted hash order, which is stable across machines.
        """
        from ..experiment.cache import iter_cache_entries

        return cls.from_results(
            PruningResult.from_dict(result)
            for _, result in iter_cache_entries(root)
        )

    @classmethod
    def from_store(cls, root) -> "ResultFrame":
        """Frame from a binary :class:`~repro.store.ColumnStore` directory.

        Numeric segment columns are memory-mapped straight into frame
        columns — no per-row JSON parsing — which is what makes
        million-row sweeps loadable in well under a second (see
        docs/FORMATS.md for the on-disk layout).
        """
        from ..store import ColumnStore

        return ColumnStore(root).to_frame()

    @classmethod
    def from_queue(cls, root, cache_dir=None) -> "ResultFrame":
        """Frame from a finished work-queue directory.

        Done cells live in the queue's shared result cache — by default
        ``<queue-dir>/cache``, or ``cache_dir`` when the sweep ran with an
        explicit ``--cache-dir`` override; quarantined cells are surfaced
        as placeholder rows with ``extra["failed"]`` — exactly the rows a
        ``python -m repro run --executor queue`` invocation assembles.
        """
        from ..experiment.prune import ExperimentSpec
        from ..experiment.queue import QueueExecutor

        root = Path(root)
        rows = list(cls.from_cache(cache_dir or root / "cache").to_results())
        for path in sorted((root / "failed").glob("*.json")):
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if not isinstance(payload, dict) or "spec" not in payload:
                continue
            spec = ExperimentSpec.from_dict(payload["spec"])
            rows.append(QueueExecutor._quarantine_row(spec, payload))
        return cls.from_results(rows)

    # -- export ----------------------------------------------------------
    def to_records(self) -> List[Dict[str, Any]]:
        """Row dicts in column order (NumPy scalars unwrapped)."""
        names = self.columns
        return [
            {name: _json_safe(self._columns[name][i]) for name in names}
            for i in range(len(self))
        ]

    def to_results(self) -> ResultSet:
        """Back to a :class:`ResultSet` of :class:`PruningResult` rows.

        Derived/extra columns that are not dataclass fields are dropped;
        ``from_results(rs).to_results()`` is an identity on the rows.
        """
        return ResultSet(PruningResult.from_dict(rec) for rec in self.to_records())

    def save(self, path) -> Path:
        """Persist as the standard ``results.json`` row-list format."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {k: v for k, v in rec.items()
             if k in PruningResult.__dataclass_fields__}
            for rec in self.to_records()
        ]
        path.write_text(json.dumps(rows, indent=1, default=float))
        return path

    # -- introspection ---------------------------------------------------
    @property
    def columns(self) -> List[str]:
        return list(self._columns)

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: object) -> bool:
        return name in self._columns

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"unknown column {name!r}; available: {self.columns}"
            ) from None

    __getitem__ = column

    def unique(self, name: str) -> List[Any]:
        """Sorted distinct values of a column.

        Unwraps only the factorized distinct values where their identity
        is certain: ints, floats without zeros (``0.0`` and ``-0.0`` are
        one set member) and plain strings; else :meth:`_unique_rows`.
        """
        col = self.column(name)
        try:
            uniq = self._factorize(name)[0]
        except ValueError:
            return self._unique_rows(name)
        kind = col.dtype.kind
        if kind in "iu" or (kind == "f" and not (uniq == 0).any()) or (
            kind == "O" and all(type(v) is str for v in uniq)
        ):
            return [_json_safe(v) for v in uniq]
        return self._unique_rows(name)

    def _unique_rows(self, name: str) -> List[Any]:
        """Reference :meth:`unique`: the set of every row's value."""
        return sorted({_json_safe(v) for v in self.column(name)})

    def __repr__(self) -> str:
        return f"ResultFrame({len(self)} rows × {len(self._columns)} columns)"

    def fingerprint(self) -> str:
        """Content hash of the frame: columns, dtypes, and every value.

        Two frames holding the same rows in the same order fingerprint
        identically regardless of how they were loaded — the
        content-addressed identity behind the results server's ``ETag``s
        (a row's identity columns are its spec hash inputs, so this is
        transitively keyed on spec hashes).  Numeric columns hash their
        raw bytes; object columns hash their JSON rendering, so free-form
        ``extra`` dicts participate too.
        """
        h = hashlib.sha256()
        h.update(str(len(self)).encode())
        for name, col in self._columns.items():
            h.update(b"\x00" + name.encode() + b"\x00" + col.dtype.str.encode())
            if col.dtype.kind == "O":
                h.update(json.dumps(
                    [_json_safe(v) for v in col.tolist()],
                    sort_keys=True, default=str,
                ).encode())
            else:
                h.update(col.tobytes())
        return h.hexdigest()

    # -- row selection ---------------------------------------------------
    def take(self, indices) -> "ResultFrame":
        """Subframe of the given row indices (or a boolean mask)."""
        indices = np.asarray(indices)
        return ResultFrame(
            {name: col[indices] for name, col in self._columns.items()}
        )

    @staticmethod
    def _membership_mask(col: np.ndarray, values) -> np.ndarray:
        """Row ∈ values.  Numeric columns go through :func:`np.isin`;
        object columns keep the per-element hash-set semantics."""
        allowed = values if isinstance(values, (set, frozenset)) else set(values)
        if col.dtype.kind in "iuf" and all(
            isinstance(v, (int, float)) and v == v for v in allowed
        ):
            return np.isin(col, list(allowed))
        return np.fromiter(
            (v in allowed for v in col), dtype=bool, count=len(col)
        )

    @staticmethod
    def _equality_mask(col: np.ndarray, value) -> np.ndarray:
        eq = col == value
        if not isinstance(eq, np.ndarray):  # incomparable types
            eq = np.fromiter(
                (v == value for v in col), dtype=bool, count=len(col)
            )
        return eq.astype(bool)

    @staticmethod
    def _op_mask(name: str, col: np.ndarray, spec: Dict[str, Any]) -> np.ndarray:
        """Mask for a ``{"op": ..., "value": ...}`` comparison spec.

        The serializable subset of the filter language (see
        :data:`FILTER_OPS`): range predicates an HTTP client can express
        without shipping Python callables.  NaN rows compare False under
        every ordering operator, matching NumPy semantics.
        """
        extra = set(spec) - {"op", "value"}
        if extra or "op" not in spec or "value" not in spec:
            raise ValueError(
                f"filter spec for column {name!r} must be "
                f"{{'op': ..., 'value': ...}}, got keys {sorted(spec)}"
            )
        op, value = spec["op"], spec["value"]
        if op not in FILTER_OPS:
            raise ValueError(
                f"unknown filter op {op!r} for column {name!r}; "
                f"expected one of {list(FILTER_OPS)}"
            )
        if op in ("in", "not-in"):
            if not isinstance(value, (list, tuple, set, frozenset, np.ndarray)):
                raise ValueError(
                    f"filter op {op!r} on column {name!r} needs a sequence "
                    f"value, got {type(value).__name__}"
                )
            member = ResultFrame._membership_mask(col, value)
            return member if op == "in" else ~member
        if op == "==":
            return ResultFrame._equality_mask(col, value)
        if op == "!=":
            return ~ResultFrame._equality_mask(col, value)
        compare = {"<": np.less, "<=": np.less_equal,
                   ">": np.greater, ">=": np.greater_equal}[op]
        try:
            with np.errstate(invalid="ignore"):
                result = np.asarray(compare(col, value))
            if result.shape != (len(col),):
                raise TypeError("non-elementwise comparison")
            return result.astype(bool)
        except TypeError:
            pass
        try:  # object columns (e.g. strings): per-element Python ordering
            return np.fromiter(
                (v is not None and bool(compare(v, value)) for v in col),
                dtype=bool, count=len(col),
            )
        except TypeError as exc:
            raise ValueError(
                f"cannot apply filter op {op!r} to column {name!r}: {exc}"
            ) from None

    def mask(self, **conditions) -> np.ndarray:
        """Boolean row mask for :meth:`filter`'s conditions (AND-combined).

        Each condition value may be a scalar (equality), a sequence
        (membership), a callable predicate, or a ``{"op": ..., "value":
        ...}`` comparison spec (ops in :data:`FILTER_OPS` — the
        serializable form the results-server query language uses for range
        predicates).  Predicates are applied vectorized when they accept
        the whole column (e.g. ``np.isfinite`` or ``lambda c: c > 2``) and
        fall back to per-element evaluation.  Membership tests on numeric
        columns run through :func:`np.isin`; object columns keep the
        per-element hash-set semantics.
        """
        out = np.ones(len(self), dtype=bool)
        for name, cond in conditions.items():
            col = self.column(name)
            if callable(cond):
                result = None
                try:
                    result = np.asarray(cond(col))
                except Exception:
                    result = None
                if result is None or result.shape != (len(col),):
                    result = np.fromiter(
                        (bool(cond(v)) for v in col), dtype=bool, count=len(col)
                    )
                out &= result.astype(bool)
            elif isinstance(cond, dict):
                out &= self._op_mask(name, col, cond)
            elif isinstance(cond, (list, tuple, set, frozenset, np.ndarray)):
                out &= self._membership_mask(col, cond)
            else:
                out &= self._equality_mask(col, cond)
        return out

    def filter(self, **conditions) -> "ResultFrame":
        """Subframe where every condition holds (see :meth:`mask`)."""
        return self.take(self.mask(**conditions))

    def sort_by(self, *names: str) -> "ResultFrame":
        """Rows reordered by the given columns (last name varies slowest)."""
        if not names:
            return self
        if len(names) == 1:
            order = np.argsort(self.column(names[0]))
        else:
            order = np.lexsort([self.column(n) for n in reversed(names)])
        return self.take(order)

    def with_columns(self, **arrays) -> "ResultFrame":
        """New frame with extra (or replaced) columns."""
        cols = dict(self._columns)
        for name, values in arrays.items():
            arr = values if isinstance(values, np.ndarray) else _infer_column(list(values))
            if len(self._columns) and len(arr) != len(self):
                raise ValueError(
                    f"column {name!r} has {len(arr)} rows, expected {len(self)}"
                )
            cols[name] = arr
        return ResultFrame(cols)

    # -- grouping / aggregation ------------------------------------------
    def _factorize(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(sorted distinct values, int64 codes)`` of one column.

        An object column's are kept for the frame's lifetime (columns are
        read-only): sorting objects takes Python comparisons.  A numeric
        column is sorted in C on every call, so grouping by continuous
        columns pins no per-row codes.  Threads sharing a frame may both
        compute an object column's codes; they store equal results.
        Raises ``ValueError`` for NaN keys (the row loop gives each NaN its
        own group) and objects ``np.unique`` cannot sort."""
        if name in self._codes:
            found = self._codes[name]
        else:
            col = self.column(name)
            found = _factorize_column(col)
            if col.dtype.kind == "O":
                self._codes[name] = found
        if found is None:
            raise ValueError(f"column {name!r} cannot be factorized")
        return found

    def _key_codes(self, names: Sequence[str]) -> np.ndarray:
        """Dense int64 group codes for the key columns.

        Codes are built so that sorting them sorts the key *tuples* in
        Python order (per-column ``np.unique`` order combined
        lexicographically).  Raises ``ValueError`` when a column cannot be
        factorized or the key space would overflow.
        """
        codes: Optional[np.ndarray] = None
        span = 1
        for name in names:
            uniq, inv = self._factorize(name)
            span *= max(len(uniq), 1)
            if span > 2**62:
                raise ValueError("key space too large to factorize")
            codes = inv if codes is None else codes * np.int64(len(uniq)) + inv
        return codes if codes is not None else np.zeros(len(self), np.int64)

    def _grouping(self, names: Sequence[str]) -> Optional[_Grouping]:
        """``(order, starts, sizes)`` for the key columns of a non-empty
        frame: row indices group by group (groups in key order, rows in
        original order), where each group begins and its int64 row count;
        None when a key column cannot be factorized."""
        try:
            codes = self._key_codes(names)
        except ValueError:
            return None
        order = np.argsort(codes, kind="stable")
        ordered = codes[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        return order, starts, np.diff(np.r_[starts, len(order)]).astype(np.int64)

    def _reduce(
        self, grouping: _Grouping, value: str, stats: Sequence[str]
    ) -> List[np.ndarray]:
        """Each statistic of ``value`` per group of a :meth:`_grouping`.

        One gather in group order, then :meth:`_stat` per contiguous slice:
        slices keep numpy's pairwise summation, so every bit matches the
        group's own sub-frame (``np.add.reduceat`` would not).  Size-1
        groups are filled vectorized: a sum starts from ``+0.0`` (a lone
        ``-0.0`` has mean ``0.0``) and one value's std is ``0.0``.
        """
        order, starts, sizes = grouping
        gathered = np.asarray(self.column(value), dtype=np.float64)[order]
        ends = starts + sizes
        single = sizes == 1
        lone = gathered[starts[single]]
        multi = np.flatnonzero(~single).tolist()
        out = []
        for stat in stats:
            _check_stat(stat)
            res = np.empty(len(starts))
            res[single] = 0.0 if stat == "std" else (
                lone + 0.0 if stat == "mean" else lone)
            for g in multi:
                res[g] = self._stat(gathered[starts[g]:ends[g]], stat)
            out.append(res)
        return out

    def _group_by_rows(
        self, names: Sequence[str], single: bool, sort: bool
    ) -> List[Tuple[Any, "ResultFrame"]]:
        """Reference row-by-row grouping (kept for fallback + benchmarks).

        This is the pre-vectorization implementation; :meth:`group_by` is
        equivalence-tested against it and falls back to it for key columns
        that cannot be factorized (mixed types, NaN keys).
        """
        cols = [self.column(n) for n in names]
        buckets: Dict[Any, List[int]] = {}
        for i in range(len(self)):
            key = tuple(_json_safe(c[i]) for c in cols)
            buckets.setdefault(key if not single else key[0], []).append(i)
        items = sorted(buckets.items()) if sort else list(buckets.items())
        return [(key, self.take(idx)) for key, idx in items]

    def group_by(
        self, keys: Union[str, Sequence[str]], sort: bool = True
    ) -> List[Tuple[Any, "ResultFrame"]]:
        """``[(key, subframe), ...]`` partitioned by the key column(s).

        A single key name yields scalar keys, several yield tuples.  With
        ``sort`` the groups come in sorted key order; without, in order of
        first appearance (which the meta-analysis figures rely on to keep
        the corpus' curve ordering).

        Grouping is vectorized (:meth:`_grouping`); columns the factorizer
        cannot handle fall back to the equivalent row-by-row path, so
        arbitrary key types keep working.
        """
        single = isinstance(keys, str)
        names = (keys,) if single else tuple(keys)
        if not len(self):
            [self.column(n) for n in names]  # unknown keys still raise
            return []
        grouping = self._grouping(names)
        if grouping is None:
            return self._group_by_rows(names, single=single, sort=sort)
        order, starts, _ = grouping
        groups = np.split(order, starts[1:])
        if not sort:
            groups.sort(key=lambda idx: idx[0])  # first-appearance order
        cols = [self.column(n) for n in names]
        out: List[Tuple[Any, "ResultFrame"]] = []
        for idx in groups:
            key = tuple(_json_safe(c[idx[0]]) for c in cols)
            out.append((key[0] if single else key, self.take(idx)))
        return out

    @staticmethod
    def _stat(values: np.ndarray, stat: str) -> float:
        """One reduction over a float column; non-finite values propagate
        into their own column's statistic and nowhere else."""
        _check_stat(stat)
        with np.errstate(invalid="ignore", over="ignore"):
            if stat == "mean":
                return float(values.mean())
            if stat == "std":
                return float(values.std(ddof=1)) if len(values) > 1 else 0.0
            if stat == "min":
                return float(values.min())
            return float(values.max())

    def aggregate(
        self,
        by: Union[str, Sequence[str]] = ("strategy", "compression"),
        values: Optional[Sequence[str]] = None,
        stats: Sequence[str] = ("mean", "std"),
    ) -> "ResultFrame":
        """Reduce to one row per group: ``<value>_<stat>`` columns plus ``n``.

        ``by`` defaults to the §6 operating-point key (strategy ×
        compression) and the seeds axis is what gets reduced; ``values``
        defaults to every numeric column not used as a key.  Non-finite
        values (``actual_compression`` is legitimately ``inf`` for
        all-pruned masks) propagate through their own column's statistics
        without touching any other column.  Keys that cannot be factorized
        take :meth:`_aggregate_groups`, the per-group reference.
        """
        names = (by,) if isinstance(by, str) else tuple(by)
        if values is None:
            values = [
                c for c, arr in self._columns.items()
                if c not in names and arr.dtype.kind in "if"
            ]
        grouping = self._grouping(names) if len(self) else None
        if grouping is None:
            return self._aggregate_groups(names, values, stats)
        order, starts, sizes = grouping
        first = order[starts]
        # the column layout _aggregate_groups' records produce
        columns: Dict[str, np.ndarray] = {
            name: _infer_column([_json_safe(v) for v in self.column(name)[first]])
            for name in names
        }
        columns["n"] = sizes
        for value in values:
            for stat, res in zip(stats, self._reduce(grouping, value, stats)):
                columns[f"{value}_{stat}"] = res
        return ResultFrame(columns)

    def _aggregate_groups(
        self, names: Tuple[str, ...], values: Sequence[str],
        stats: Sequence[str],
    ) -> "ResultFrame":
        """Reference :meth:`aggregate`: a sub-frame per group, reduced."""
        records: List[Dict[str, Any]] = []
        for key, sub in self.group_by(names, sort=True):
            # group_by over a name *tuple* always yields tuple keys, even
            # for one name — zip directly, no re-wrapping
            rec: Dict[str, Any] = dict(zip(names, key))
            rec["n"] = len(sub)
            for value in values:
                col = np.asarray(sub.column(value), dtype=np.float64)
                for stat in stats:
                    rec[f"{value}_{stat}"] = self._stat(col, stat)
            records.append(rec)
        columns = list(names) + ["n"] + [
            f"{v}_{s}" for v in values for s in stats
        ]
        return ResultFrame.from_records(records, columns=columns)

    # -- §6 derived metrics ----------------------------------------------
    def derived(self) -> "ResultFrame":
        """Add the standard derived columns (delta_top1/5, speedup).

        Deltas come from each row's own recorded control (§6: every row
        carries the unpruned control's raw accuracy); :meth:`join_baseline`
        attaches the control *row* where cross-row matching is wanted.
        Missing base columns (generic frames) are skipped; existing derived
        columns are left untouched.
        """
        new: Dict[str, np.ndarray] = {}
        for name, bases in _DERIVED.items():
            if name in self._columns or any(b not in self._columns for b in bases):
                continue
            if len(bases) == 1:
                new[name] = np.asarray(self.column(bases[0]), dtype=np.float64)
            else:
                a, b = bases
                new[name] = np.asarray(self.column(a), dtype=np.float64) - np.asarray(
                    self.column(b), dtype=np.float64
                )
        return self.with_columns(**new) if new else self

    def join_baseline(
        self, on: Sequence[str] = ("model", "dataset", "seed")
    ) -> "ResultFrame":
        """Match every row to its unpruned control row (compression ≤ 1).

        Adds ``control_top1``/``control_top5`` columns holding the matched
        baseline row's measured accuracy (NaN where no control row exists).
        This is the one place the baseline join lives; callers that used to
        re-bucket rows per seed to find their controls use this instead.

        The join is batched: one factorization of the key columns matches
        every row against the first control row sharing its key, instead
        of a per-row dict probe (equivalence-tested against
        :meth:`_join_baseline_rows`, the fallback for unfactorizable keys).
        """
        on = tuple(on)
        try:
            return self._join_baseline_batched(on)
        except (TypeError, ValueError):
            return self._join_baseline_rows(on)

    def _join_baseline_batched(self, on: Tuple[str, ...]) -> "ResultFrame":
        codes = self._key_codes(on)
        comp = np.asarray(self.column("compression"), dtype=np.float64)
        base_idx = np.flatnonzero(comp <= 1.0)
        c1 = np.full(len(self), np.nan)
        c5 = np.full(len(self), np.nan)
        if len(base_idx):
            # np.unique keeps the *first* occurrence per key — the same row
            # the dict-probe reference keeps via setdefault
            uniq, first = np.unique(codes[base_idx], return_index=True)
            src = base_idx[first]
            pos = np.minimum(np.searchsorted(uniq, codes), len(uniq) - 1)
            hit = uniq[pos] == codes
            top1 = np.asarray(self.column("top1"), dtype=np.float64)
            top5 = np.asarray(self.column("top5"), dtype=np.float64)
            c1[hit] = top1[src[pos[hit]]]
            c5[hit] = top5[src[pos[hit]]]
        else:
            self.column("top1"), self.column("top5")  # keep KeyError parity
        return self.with_columns(control_top1=c1, control_top5=c5)

    def _join_baseline_rows(self, on: Tuple[str, ...]) -> "ResultFrame":
        """Reference per-row join (kept for fallback + benchmarks)."""
        controls: Dict[Tuple, Tuple[float, float]] = {}
        base = self.filter(compression=lambda c: c <= 1.0)
        key_cols = [base.column(n) for n in on]
        top1 = np.asarray(base.column("top1"), dtype=np.float64)
        top5 = np.asarray(base.column("top5"), dtype=np.float64)
        for i in range(len(base)):
            key = tuple(_json_safe(c[i]) for c in key_cols)
            controls.setdefault(key, (float(top1[i]), float(top5[i])))
        my_cols = [self.column(n) for n in on]
        c1 = np.full(len(self), np.nan)
        c5 = np.full(len(self), np.nan)
        for i in range(len(self)):
            key = tuple(_json_safe(c[i]) for c in my_cols)
            if key in controls:
                c1[i], c5[i] = controls[key]
        return self.with_columns(control_top1=c1, control_top5=c5)

    def replicate_baselines(
        self, strategies: Optional[Sequence[str]] = None
    ) -> "ResultFrame":
        """Copy deduped baseline rows across strategies (sweep semantics).

        Sweeps store exactly one unpruned control per seed under the
        :data:`~repro.experiment.prune.BASELINE_STRATEGY` sentinel (cache
        and queue layouts); assembled ``results.json`` files instead carry
        one copy per strategy.  This transform maps the former onto the
        latter — per (model, dataset), each sentinel row is replicated once
        per strategy that appears in that pair's pruned rows — so all
        frame sources yield identical curves.  An already replicated frame
        (no sentinel row, or none with a strategy to copy to) is returned
        unchanged.

        The copies are an index gather; columns it cannot reproduce exactly
        take :meth:`_replicate_baselines_records`, the reference.
        """
        if "strategy" not in self._columns or not len(self):
            return self
        sentinel = self.mask(strategy=BASELINE_STRATEGY)
        if not sentinel.any():
            return self
        gathered = self._replicate_baselines_gathered(sentinel, strategies)
        if gathered is not None:
            return gathered
        return self._replicate_baselines_records(strategies)

    def _replicate_baselines_gathered(
        self, sentinel: np.ndarray, strategies: Optional[Sequence[str]]
    ) -> Optional["ResultFrame"]:
        """``np.repeat`` of row indices plus a rewritten ``strategy`` (each
        clone's ``extra`` dict copied), or None where the records path's
        output would differ: unfactorizable pair or strategy keys, or a
        column :func:`_infer_column` would pack into another dtype."""
        try:
            strat_uniq, strat_codes = self._factorize("strategy")
            pair = np.zeros(len(self), dtype=np.int64)
            for name in ("model", "dataset"):  # a missing column is all-None
                if name in self._columns:
                    uniq, codes = self._factorize(name)
                    pair = pair * np.int64(len(uniq)) + codes
        except ValueError:
            return None
        strat_col = self.column("strategy")
        # each pair's pruned strategies, in order of first appearance
        pruned = np.flatnonzero(~sentinel)
        combined = pair[pruned] * np.int64(len(strat_uniq)) + strat_codes[pruned]
        first = np.sort(np.unique(combined, return_index=True)[1])
        by_pair: Dict[int, List[Any]] = {}
        for row in pruned[first].tolist():
            by_pair.setdefault(int(pair[row]), []).append(
                _json_safe(strat_col[row]))
        sent_idx = np.flatnonzero(sentinel)
        targets = [strategies or by_pair.get(p, []) for p in pair[sent_idx].tolist()]
        repeats = np.ones(len(self), dtype=np.int64)
        repeats[sent_idx] = [max(len(t), 1) for t in targets]
        rows = np.repeat(np.arange(len(self)), repeats)
        columns = {name: col[rows] for name, col in self._columns.items()}
        strategy, extra = columns["strategy"], columns.get("extra")
        at = np.cumsum(repeats) - repeats  # each input row's first copy
        for row, names in zip(sent_idx.tolist(), targets):
            if not names:
                continue  # nothing to replicate against: kept as-is
            start = int(at[row])
            for k, name in enumerate(names, start):
                strategy[k] = name
                if extra is not None and isinstance(extra[k], dict):
                    extra[k] = dict(extra[k])
        for col in columns.values():
            if not (col.dtype in (np.int64, np.float64)
                    or (col.dtype.kind == "O" and _stays_object(col))):
                return None
        # no sentinel had a strategy to copy to: already replicated
        return ResultFrame(columns) if any(targets) else self

    def _replicate_baselines_records(
        self, strategies: Optional[Sequence[str]] = None
    ) -> "ResultFrame":
        """Reference :meth:`replicate_baselines`: every row through a
        record dict and back (kept for fallback + equivalence tests)."""
        records = self.to_records()
        by_pair: Dict[Tuple, List[str]] = {}
        for rec in records:
            if rec["strategy"] != BASELINE_STRATEGY:
                pair = (rec.get("model"), rec.get("dataset"))
                names = by_pair.setdefault(pair, [])
                if rec["strategy"] not in names:
                    names.append(rec["strategy"])
        out: List[Dict[str, Any]] = []
        for rec in records:
            if rec["strategy"] != BASELINE_STRATEGY:
                out.append(rec)
                continue
            targets = strategies or by_pair.get(
                (rec.get("model"), rec.get("dataset")), []
            )
            if not targets:
                out.append(rec)  # nothing to replicate against: keep as-is
                continue
            for name in targets:
                clone = dict(rec)
                clone["strategy"] = name
                if isinstance(clone.get("extra"), dict):
                    clone["extra"] = dict(clone["extra"])
                out.append(clone)
        return ResultFrame.from_records(out, columns=self.columns)

    # -- failure bookkeeping ---------------------------------------------
    def failed_mask(self) -> np.ndarray:
        """True for quarantined placeholder rows (``extra["failed"]``)."""
        if "extra" not in self._columns:
            return np.zeros(len(self), dtype=bool)
        return np.fromiter(
            (isinstance(e, dict) and bool(e.get("failed"))
             for e in self.column("extra")),
            dtype=bool,
            count=len(self),
        )

    def ok(self) -> "ResultFrame":
        """Rows that actually executed (quarantined cells dropped); the
        frame itself when none was quarantined."""
        failed = self.failed_mask()
        return self.take(~failed) if failed.any() else self

    def failures(self) -> "ResultFrame":
        """Only the quarantined placeholder rows."""
        return self.take(self.failed_mask())

    # -- curves / frontiers ----------------------------------------------
    def curve(self, x: str = "compression", y: str = "top1") -> List[CurvePoint]:
        """Mean ± sample std of ``y`` at each ``x`` (§6), sorted by x;
        :meth:`_curve_groups` when ``x`` cannot be factorized."""
        if not len(self):
            return []
        grouping = self._grouping((x,))
        if grouping is None:
            return self._curve_groups(x, y)
        return self._curve_points(grouping, x, y)

    def _curve_points(
        self, grouping: _Grouping, x: str, y: str
    ) -> List[CurvePoint]:
        order, starts, sizes = grouping
        mean, std = self._reduce(grouping, y, ("mean", "std"))
        keys = self.column(x)[order[starts]]
        # tolist() unwraps numeric keys in one pass, as _json_safe would
        xs = keys.tolist() if keys.dtype.kind in "iuf" \
            else [_json_safe(v) for v in keys]
        # positional CurvePoint(x, mean, std, n): a curve over distinct x
        # values spends most of its time building points
        return [
            CurvePoint(float(xv), m, s, n) for xv, m, s, n
            in zip(xs, mean.tolist(), std.tolist(), sizes.tolist())
        ]

    def _curve_groups(self, x: str, y: str) -> List[CurvePoint]:
        """Reference :meth:`curve`: a sub-frame per x value, reduced."""
        points = []
        for xv, sub in self.group_by(x, sort=True):
            ys = np.asarray(sub.column(y), dtype=np.float64)
            points.append(
                CurvePoint(
                    x=float(xv),
                    mean=self._stat(ys, "mean"),
                    std=self._stat(ys, "std"),
                    n=len(ys),
                )
            )
        return points

    def tradeoff_curves(
        self,
        group: str = "strategy",
        x: str = "compression",
        y: str = "top1",
    ) -> Dict[Any, List[CurvePoint]]:
        """One aggregated curve per group value, keyed and sorted by group.

        Grouped once by ``(group, x)``; each curve is a run of those groups,
        keyed by its first row.  Unfactorizable keys take
        :meth:`_tradeoff_curves_groups`.
        """
        if not len(self):
            return {}
        grouping = self._grouping((group, x))
        if grouping is None:
            return self._tradeoff_curves_groups(group, x, y)
        order, starts, _ = grouping
        points = self._curve_points(grouping, x, y)
        # group values at each (group, x) start; a curve ends where its
        # value changes (the != np.unique itself tells values apart by)
        firsts = self.column(group)[order[starts]]
        runs = np.flatnonzero(np.r_[True, firsts[1:] != firsts[:-1]])
        keys = self.column(group)[np.minimum.reduceat(order[starts], runs)]
        bounds = np.r_[runs, len(starts)].tolist()
        return {
            _json_safe(key): points[lo:hi]
            for key, lo, hi in zip(keys, bounds[:-1], bounds[1:])
        }

    def _tradeoff_curves_groups(
        self, group: str, x: str, y: str
    ) -> Dict[Any, List[CurvePoint]]:
        """Reference :meth:`tradeoff_curves`: per-group sub-frames."""
        return {
            key: sub._curve_groups(x, y)
            for key, sub in self.group_by(group, sort=True)
        }

    def pareto_frontier(
        self, x: str = "compression", y: str = "top1"
    ) -> "ResultFrame":
        """Rows not dominated in the (maximize x, maximize y) sense.

        A row is dominated when another row is at least as good on both
        axes and strictly better on one — the paper's frontier reading of
        its tradeoff scatter plots.  Returns the surviving rows sorted by
        ``x`` ascending.
        """
        if not len(self):
            return self
        xs = np.asarray(self.column(x), dtype=np.float64)
        ys = np.asarray(self.column(y), dtype=np.float64)
        return self.take(~_dominated(xs, ys)).sort_by(x)


def _factorize_column(col: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``np.unique(col, return_inverse=True)`` with read-only int64 codes,
    or None for NaN keys and for objects ``np.unique`` cannot sort."""
    try:
        found = _factorize_strings(col) if col.dtype.kind == "O" else None
        if found is not None:
            return found
        if col.dtype.kind == "f" and np.isnan(col).any():
            return None
        uniq, inv = np.unique(col, return_inverse=True)
    except (TypeError, ValueError):
        return None
    inv = inv.astype(np.int64, copy=False)
    inv.flags.writeable = False
    return uniq, inv


def _factorize_strings(col: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """:func:`_factorize_column` for objects that are all ``str``: a hash
    pass over the rows and a sort of the distinct values, where
    ``np.unique`` sorts every row by Python comparisons.  Equal strings are
    interchangeable, so the result is ``np.unique``'s; None otherwise."""
    index: Dict[Any, int] = {}
    try:
        first_seen = [index.setdefault(v, len(index)) for v in col]
    except TypeError:  # unhashable values
        return None
    if not all(type(v) is str for v in index):
        return None
    uniq = np.empty(len(index), dtype=object)
    uniq[:] = sorted(index)
    rank = np.empty(len(index), dtype=np.int64)
    rank[[index[v] for v in uniq]] = np.arange(len(index))
    inv = rank[np.asarray(first_seen, dtype=np.int64)]
    inv.flags.writeable = False
    return uniq, inv


def _stays_object(col: np.ndarray) -> bool:
    """True when :func:`_infer_column` keeps ``col`` an object column, as
    its first non-None value shows by not being a number (bools are not);
    False when that value cannot show it."""
    for value in col:
        if value is not None:
            value = _json_safe(value)
            return isinstance(value, bool) or not isinstance(value, (int, float))
    return False


def _dominated(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Rows another row beats (≥ on both axes, > on at least one): by a
    larger-x row with y at least its own, or an equal-x row with a larger
    y.  One sort gives the best y at each x and beyond it.  NaN rows
    compare False (never dominated, never dominate); ``±inf`` compare
    normally.  :func:`_dominated_pairwise` is the reference."""
    out = np.zeros(len(xs), dtype=bool)
    valid = ~(np.isnan(xs) | np.isnan(ys))
    if not valid.any():
        return out
    vy = ys[valid]
    _, inv = np.unique(xs[valid], return_inverse=True)  # -0.0 == 0.0
    order = np.argsort(inv, kind="stable")
    block_max = np.maximum.reduceat(vy[order], np.flatnonzero(
        np.r_[True, np.diff(inv[order]) != 0]))
    # best y at a strictly larger x; NaN (compares False) past the last
    beyond = np.r_[np.maximum.accumulate(block_max[::-1])[::-1][1:], np.nan]
    out[valid] = (beyond[inv] >= vy) | (block_max[inv] > vy)
    return out


def _dominated_pairwise(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Reference :func:`_dominated`: three n × n comparison matrices."""
    ge_x = xs[None, :] >= xs[:, None]
    ge_y = ys[None, :] >= ys[:, None]
    strict = (xs[None, :] > xs[:, None]) | (ys[None, :] > ys[:, None])
    return (ge_x & ge_y & strict).any(axis=1)


def is_queue_dir(path) -> bool:
    """True when ``path`` has the work-queue on-disk layout.

    The single definition of "looks like a queue" — shared by
    :func:`load_frame`'s sniffing and the CLI's queue guards, so the
    layout rule lives in one place.
    """
    path = Path(path)
    return (path / "queue.json").is_file() or (path / "pending").is_dir()


def queue_outstanding(source) -> Dict[str, int]:
    """Pending/leased cell counts for a work-queue source (else zeros).

    The single definition of "how unfinished is this sweep" shared by
    ``python -m repro report`` and the results server, so both surface the
    same partial-sweep accounting (in the report JSON's ``outstanding``
    field and at ``/healthz``) instead of only a stderr warning.
    """
    path = Path(source)
    out = {"pending": 0, "leased": 0}
    if path.is_dir() and is_queue_dir(path):
        for state in out:
            sub = path / state
            if sub.is_dir():
                out[state] = sum(1 for _ in sub.glob("*.json"))
    return out


def load_frame(source, cache_dir=None) -> ResultFrame:
    """Frame from any finished-sweep artifact, sniffed by layout.

    * a file → saved ``results.json`` (:meth:`ResultFrame.from_json`);
    * a directory satisfying :func:`is_queue_dir` → work-queue directory
      (:meth:`ResultFrame.from_queue`; ``cache_dir`` overrides the default
      ``<queue-dir>/cache`` result store, mirroring ``--cache-dir`` on the
      run/worker CLI);
    * a directory with a binary-store manifest
      (:func:`repro.store.is_store_dir`) → columnar store
      (:meth:`ResultFrame.from_store`);
    * any other directory → result-cache root (:meth:`ResultFrame.from_cache`).

    Sources that match none of the three layouts fail *here*, with the
    offending path in the message, instead of surfacing as an opaque
    downstream error: a non-JSON file raises ``ValueError``, and a
    directory with neither queue layout nor cache entries raises
    ``FileNotFoundError``.
    """
    path = Path(source)
    if path.is_file():
        try:
            return ResultFrame.from_json(path)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(
                f"{path} is not a results file (expected a JSON list of "
                f"result rows): {exc}"
            ) from exc
        except (TypeError, AttributeError) as exc:
            raise ValueError(
                f"{path} is not a results file (expected a JSON list of "
                f"result rows, got a different JSON shape): {exc}"
            ) from exc
    if not path.is_dir():
        raise FileNotFoundError(f"no results at {path}")
    if is_queue_dir(path):
        return ResultFrame.from_queue(path, cache_dir=cache_dir)
    from ..store import is_store_dir

    if is_store_dir(path):
        return ResultFrame.from_store(path)
    frame = ResultFrame.from_cache(path)
    if not len(frame):
        # an empty frame from a supposed cache dir means the directory is
        # either empty or something else entirely — name the path and the
        # three layouts instead of letting "0 rows" confuse callers later
        raise FileNotFoundError(
            f"{path} is not a results file, a result-cache directory with "
            "entries, or a work-queue directory (nothing to load)"
        )
    return frame
