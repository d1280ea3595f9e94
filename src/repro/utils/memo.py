"""A small bounded memo for what one process would otherwise rebuild.

Every cell of a sweep starts from the same dataset, the same pretrained
checkpoint and the same unpruned control (§7.3), so a process keeps the
last few of each, keyed by content addresses, instead of rebuilding them
per cell; a served generation keeps the bodies it answered with, keyed by
ETag.  There is deliberately no switch: a key that names everything a
value depends on makes a hit indistinguishable from a recomputation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Tuple

__all__ = ["MEMO_SIZE", "BoundedMemo"]

#: entries each memo keeps; two cover Figure 8's two checkpoints
MEMO_SIZE = 2


class BoundedMemo:
    """A least-recently-used map of at most ``size`` entries behind a lock.

    The map's lock never guards a computation, but each key computes once
    at a time: a thread that misses on a key another thread is computing
    waits for that computation and takes its value.  A computation that
    raises stores nothing, and the next thread waiting on the key computes.
    """

    def __init__(self, size: int = MEMO_SIZE) -> None:
        self._size = size
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        #: one lock per key being computed
        self._computing: Dict[Hashable, threading.Lock] = {}
        self._lock = threading.Lock()

    def _hit(self, key: Hashable) -> Tuple[bool, Any]:
        with self._lock:
            if key not in self._entries:
                return False, None
            self._entries.move_to_end(key)
            return True, self._entries[key]

    def get(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The value stored under ``key``, storing ``compute()`` on a miss."""
        found, value = self._hit(key)
        if found:
            return value
        with self._lock:
            computing = self._computing.setdefault(key, threading.Lock())
        with computing:
            found, value = self._hit(key)
            if found:
                return value
            try:
                value = compute()
                with self._lock:
                    value = self._entries.setdefault(key, value)
                    self._entries.move_to_end(key)
                    while len(self._entries) > self._size:
                        self._entries.popitem(last=False)
            finally:
                with self._lock:
                    if self._computing.get(key) is computing:
                        del self._computing[key]
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
