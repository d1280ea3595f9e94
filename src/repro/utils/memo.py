"""A small bounded memo for the inputs the cells of one process share.

Every cell of a sweep starts from the same dataset, the same pretrained
checkpoint and the same unpruned control (§7.3), so a process keeps the
last few of each, keyed by content addresses, instead of rebuilding them
per cell.  There is deliberately no switch: a key that names everything a
value depends on makes a hit indistinguishable from a recomputation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

__all__ = ["MEMO_SIZE", "BoundedMemo"]

#: entries each memo keeps; two cover Figure 8's two checkpoints
MEMO_SIZE = 2


class BoundedMemo:
    """A least-recently-used map of at most ``size`` entries behind a lock.

    The lock guards the map only, never a computation: two threads that
    miss on one key both compute, and both get the value stored first.
    """

    def __init__(self, size: int = MEMO_SIZE) -> None:
        self._size = size
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The value stored under ``key``, storing ``compute()`` on a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
        value = compute()
        with self._lock:
            value = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self._size:
                self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
