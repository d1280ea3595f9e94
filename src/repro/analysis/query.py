"""The JSON query language: serializable ResultFrame queries.

The results server (:mod:`repro.serve`) lets many concurrent readers run
filter/group/aggregate queries over loaded frames; those queries arrive as
JSON, so they need a declarative form of the :class:`ResultFrame` API that
(a) cannot ship arbitrary Python over HTTP and (b) fails fast with a
precise message — the server turns every :class:`QueryError` into a 400.
The language is also usable in-process (``run_query(frame, spec)``) and
deliberately mirrors the frame methods one-to-one, so a query's result is
point-for-point identical to hand-written ``filter``/``group_by``/
``aggregate`` calls.

Query document
--------------
A query is a JSON object; every key is optional (``{}`` selects all rows):

``frame``
    Which loaded frame to query (server-side; ignored by ``run_query``).
``filter``
    ``{column: condition}``, AND-combined.  A condition is a scalar
    (equality), a list (membership), or a ``{"op": ..., "value": ...}``
    comparison spec with ``op`` in :data:`~repro.analysis.frame.FILTER_OPS`
    (``==``, ``!=``, ``<``, ``<=``, ``>``, ``>=``, ``in``, ``not-in``) —
    exactly :meth:`ResultFrame.filter`'s serializable forms.
``group_by``
    Column name or list of names; reduces to one row per distinct key with
    an ``n`` member count (sugar for an ``aggregate`` with no values).
``aggregate``
    ``{"by": [...], "values": [...], "stats": [...]}`` — one row per
    group with ``<value>_<stat>`` columns plus ``n``, exactly
    :meth:`ResultFrame.aggregate` (same defaults).  Mutually exclusive
    with ``group_by``.
``sort``
    Column name or list of names to order the result rows by (last name
    varies slowest), applied after aggregation.
``columns``
    Projection: keep only these columns, in this order.
``limit`` / ``offset``
    Pagination over the (post-aggregation, post-sort) result rows.

Validation is two-phase: :func:`compile_query` rejects malformed
*documents* (unknown keys, wrong types, bad ops) without needing a frame;
:meth:`Query.apply` additionally rejects unknown *columns* against the
concrete frame.  Both raise :class:`QueryError` with the offending name
and the valid vocabulary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .frame import FILTER_OPS, ResultFrame

__all__ = ["Query", "QueryError", "compile_query", "run_query"]

#: every key a query document may carry
QUERY_KEYS = ("frame", "filter", "group_by", "aggregate",
              "sort", "columns", "limit", "offset")

_AGGREGATE_KEYS = ("by", "values", "stats")
_AGGREGATE_STATS = ("mean", "std", "min", "max")


class QueryError(ValueError):
    """A malformed or unanswerable query — the server's 400."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise QueryError(message)


def _scalar(value: Any) -> bool:
    return value is None or isinstance(value, (str, int, float, bool))


def _name_list(value: Any, key: str) -> Tuple[str, ...]:
    """Normalize a column-name field: one name or a non-empty list."""
    if isinstance(value, str):
        return (value,)
    _require(
        isinstance(value, (list, tuple))
        and len(value) > 0
        and all(isinstance(v, str) for v in value),
        f"{key!r} must be a column name or a non-empty list of column "
        f"names, got {value!r}",
    )
    return tuple(value)


def _check_condition(name: str, cond: Any) -> None:
    """Validate one filter condition without touching a frame."""
    if _scalar(cond):
        return
    if isinstance(cond, list):
        _require(
            all(_scalar(v) for v in cond),
            f"filter list for column {name!r} must hold scalars",
        )
        return
    if isinstance(cond, dict):
        extra = set(cond) - {"op", "value"}
        _require(
            not extra and "op" in cond and "value" in cond,
            f"filter spec for column {name!r} must be "
            f"{{'op': ..., 'value': ...}}, got keys {sorted(cond)}",
        )
        _require(
            cond["op"] in FILTER_OPS,
            f"unknown filter op {cond['op']!r} for column {name!r}; "
            f"expected one of {list(FILTER_OPS)}",
        )
        if cond["op"] in ("in", "not-in"):
            _require(
                isinstance(cond["value"], list)
                and all(_scalar(v) for v in cond["value"]),
                f"filter op {cond['op']!r} on column {name!r} needs a "
                "list value",
            )
        else:
            _require(
                _scalar(cond["value"]),
                f"filter op {cond['op']!r} on column {name!r} needs a "
                "scalar value",
            )
        return
    raise QueryError(
        f"filter condition for column {name!r} must be a scalar, a list, "
        f"or an {{'op', 'value'}} spec, got {type(cond).__name__}"
    )


@dataclass(frozen=True)
class Query:
    """A validated query document, ready to run against frames."""

    frame: Optional[str] = None
    filter: Dict[str, Any] = field(default_factory=dict)
    group_by: Optional[Tuple[str, ...]] = None
    aggregate: Optional[Dict[str, Any]] = None
    sort: Optional[Tuple[str, ...]] = None
    columns: Optional[Tuple[str, ...]] = None
    limit: Optional[int] = None
    offset: int = 0

    def canonical(self) -> str:
        """Deterministic serialization — the ETag ingredient: two requests
        meaning the same query hash identically however they were spelled."""
        doc: Dict[str, Any] = {}
        if self.frame is not None:
            doc["frame"] = self.frame
        if self.filter:
            doc["filter"] = self.filter
        if self.group_by is not None:
            doc["group_by"] = list(self.group_by)
        if self.aggregate is not None:
            doc["aggregate"] = {k: list(v) if isinstance(v, tuple) else v
                                for k, v in self.aggregate.items()}
        if self.sort is not None:
            doc["sort"] = list(self.sort)
        if self.columns is not None:
            doc["columns"] = list(self.columns)
        if self.limit is not None:
            doc["limit"] = self.limit
        if self.offset:
            doc["offset"] = self.offset
        return json.dumps(doc, sort_keys=True, default=float)

    # -- execution -------------------------------------------------------
    def _checked_columns(self, frame: ResultFrame, names, what: str) -> None:
        self._checked_names(frame.columns, names, what)

    @staticmethod
    def _checked_names(available, names, what: str) -> None:
        for name in names:
            if name not in available:
                raise QueryError(
                    f"unknown {what} column {name!r}; "
                    f"available: {list(available)}"
                )

    def apply(self, frame: ResultFrame) -> Dict[str, Any]:
        """Run against a concrete frame → a JSON-ready result document.

        Returns ``{"total", "offset", "limit", "columns", "rows"}`` where
        ``total`` counts result rows *before* pagination and ``rows`` is
        the selected page as record dicts.  Unknown columns raise
        :class:`QueryError` (the document shape was already validated by
        :func:`compile_query`).

        A filter's rows are copied out of :meth:`needed_columns` only: the
        mask is computed on the whole frame, so errors come in the order a
        full ``frame.filter`` would raise them.
        """
        self._checked_columns(frame, self.filter, "filter")
        if not self.filter:
            return self._finish(frame, frame)
        try:
            mask = frame.mask(**self.filter)
        except ValueError as exc:  # e.g. op applied to an incomparable column
            raise QueryError(str(exc)) from exc
        names = self.needed_columns(frame.columns)
        kept = frame if names is None else \
            ResultFrame({name: frame.column(name) for name in names})
        return self._finish(frame, kept.take(mask))

    def needed_columns(self, available) -> Optional[List[str]]:
        """The source columns this query must load, in ``available`` order —
        or None when it needs all of them (no projection possible).

        Validates every referenced column against ``available`` (a frame's
        columns, or the store manifest's list, which is the full frame's
        vocabulary) so a projected read raises the same :class:`QueryError`
        as the unprojected one would.
        """
        available = list(available)
        self._checked_names(available, self.filter, "filter")
        needed = set(self.filter)
        if self.aggregate is not None:
            by = self.aggregate.get("by", ("strategy", "compression"))
            self._checked_names(available, by, "aggregate 'by'")
            values = self.aggregate.get("values")
            if values is None:
                return None  # defaults to "every numeric column": load all
            self._checked_names(available, values, "aggregate 'values'")
            needed |= set(by) | set(values)
        elif self.group_by is not None:
            self._checked_names(available, self.group_by, "group_by")
            needed |= set(self.group_by)
        else:
            if self.sort is not None:
                self._checked_names(available, self.sort, "sort")
                needed |= set(self.sort)
            if self.columns is not None:
                self._checked_names(available, self.columns, "projection")
                needed |= set(self.columns)
            else:
                return None  # result carries every column
        return [name for name in available if name in needed]

    def apply_store(self, store, manifest=None) -> Dict[str, Any]:
        """Pushdown twin of ``apply(store.to_frame())``.

        Routes the filter through :meth:`ColumnStore.to_frame`'s zone-map
        planner (skipped segments are never read) and loads only the
        columns the query references; the remaining stages are shared with
        :meth:`apply`, so the result document is byte-identical to the
        full scan.  ``manifest`` pins a snapshot's manifest (see
        ``ColumnStore.to_frame``).
        """
        manifest = manifest or store._require_manifest()
        projection = self.needed_columns(manifest["columns"])
        try:
            rows = store.to_frame(
                columns=projection, where=self.filter or None, manifest=manifest
            )
        except ValueError as exc:  # same surface as apply()'s filter stage
            raise QueryError(str(exc)) from exc
        return self._finish(rows, rows)

    def _finish(self, frame: ResultFrame, rows: ResultFrame) -> Dict[str, Any]:
        """Post-filter stages, shared by the full-scan and pushdown paths:
        ``frame`` supplies the aggregate/group_by column vocabulary, ``rows``
        is the already-filtered selection."""
        if self.aggregate is not None:
            agg = dict(self.aggregate)
            by = agg.get("by", ("strategy", "compression"))
            self._checked_columns(frame, by, "aggregate 'by'")
            if agg.get("values") is not None:
                self._checked_columns(frame, agg["values"], "aggregate 'values'")
            rows = rows.aggregate(
                by=by, values=agg.get("values"),
                stats=agg.get("stats", ("mean", "std")),
            )
        elif self.group_by is not None:
            self._checked_columns(frame, self.group_by, "group_by")
            rows = rows.aggregate(by=self.group_by, values=[], stats=())
        if self.sort is not None:
            self._checked_columns(rows, self.sort, "sort")
            rows = rows.sort_by(*self.sort)
        if self.columns is not None:
            self._checked_columns(rows, self.columns, "projection")
            rows = ResultFrame({c: rows.column(c) for c in self.columns})
        total = len(rows)
        stop = total if self.limit is None else min(self.offset + self.limit, total)
        start = min(self.offset, total)
        page = rows.take(np.arange(start, max(start, stop)))
        return {
            "total": total,
            "offset": self.offset,
            "limit": self.limit,
            "columns": page.columns,
            "rows": page.to_records(),
        }


def compile_query(spec: Any) -> Query:
    """Validate a query document (fail-fast) and return a :class:`Query`.

    Shape-only: no frame is needed, so a server can 400 a malformed
    document before touching any data.  Raises :class:`QueryError` naming
    the offending key/op and the accepted vocabulary.
    """
    _require(isinstance(spec, dict),
             f"query must be a JSON object, got {type(spec).__name__}")
    unknown = set(spec) - set(QUERY_KEYS)
    _require(not unknown,
             f"unknown query key(s) {sorted(unknown)}; "
             f"expected a subset of {list(QUERY_KEYS)}")

    frame = spec.get("frame")
    _require(frame is None or isinstance(frame, str),
             f"'frame' must be a string, got {frame!r}")

    filt = spec.get("filter", {})
    _require(isinstance(filt, dict),
             f"'filter' must be an object of column: condition, got "
             f"{type(filt).__name__}")
    for name, cond in filt.items():
        _check_condition(name, cond)

    group_by = spec.get("group_by")
    if group_by is not None:
        group_by = _name_list(group_by, "group_by")

    aggregate = spec.get("aggregate")
    if aggregate is not None:
        _require(isinstance(aggregate, dict),
                 f"'aggregate' must be an object with keys "
                 f"{list(_AGGREGATE_KEYS)}, got {type(aggregate).__name__}")
        _require(group_by is None,
                 "'group_by' and 'aggregate' are mutually exclusive "
                 "(aggregate has its own 'by')")
        unknown = set(aggregate) - set(_AGGREGATE_KEYS)
        _require(not unknown,
                 f"unknown aggregate key(s) {sorted(unknown)}; "
                 f"expected a subset of {list(_AGGREGATE_KEYS)}")
        normalized: Dict[str, Any] = {}
        if "by" in aggregate:
            normalized["by"] = _name_list(aggregate["by"], "aggregate 'by'")
        if aggregate.get("values") is not None:
            values = aggregate["values"]
            _require(isinstance(values, list)
                     and all(isinstance(v, str) for v in values),
                     "aggregate 'values' must be a list of column names")
            normalized["values"] = tuple(values)
        if "stats" in aggregate:
            stats = _name_list(aggregate["stats"], "aggregate 'stats'")
            bad = set(stats) - set(_AGGREGATE_STATS)
            _require(not bad,
                     f"unknown aggregate stat(s) {sorted(bad)}; "
                     f"expected a subset of {list(_AGGREGATE_STATS)}")
            normalized["stats"] = stats
        aggregate = normalized

    sort = spec.get("sort")
    if sort is not None:
        sort = _name_list(sort, "sort")
    columns = spec.get("columns")
    if columns is not None:
        columns = _name_list(columns, "columns")

    limit = spec.get("limit")
    _require(limit is None or (isinstance(limit, int)
                               and not isinstance(limit, bool) and limit >= 1),
             f"'limit' must be a positive integer, got {limit!r}")
    offset = spec.get("offset", 0)
    _require(isinstance(offset, int) and not isinstance(offset, bool)
             and offset >= 0,
             f"'offset' must be a non-negative integer, got {offset!r}")

    return Query(frame=frame, filter=dict(filt), group_by=group_by,
                 aggregate=aggregate, sort=sort, columns=columns,
                 limit=limit, offset=offset)


def run_query(frame: ResultFrame, spec: Any) -> Dict[str, Any]:
    """Compile + apply in one call (the in-process convenience)."""
    return compile_query(spec).apply(frame)
