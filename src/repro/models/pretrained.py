"""Pretrained-weight store: train once, cache, reuse everywhere.

§7.3 ("Using the Same Initial Model is Essential") shows that starting
different methods from different checkpoints of the same architecture skews
comparisons.  The store guarantees every (model, dataset, recipe, seed)
tuple maps to exactly one checkpoint on disk, so every strategy in a sweep
prunes the *same* initial model.

Checkpoints are ``.npz`` files under ``artifacts/pretrained/`` keyed by a
hash of the full configuration; the Figure 8 experiment gets its two
distinct checkpoints ("Weights A"/"Weights B") by varying the recipe's
learning rate, exactly as in the paper.

A process decodes each checkpoint file once: :func:`load_checkpoint`
memoizes the read-only arrays by the identity of the file it opened.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from collections.abc import Mapping
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..nn import Module
from ..utils import (
    BoundedMemo,
    artifacts_dir,
    atomic_write_text,
    atomic_writer,
    canonical_json,
)

__all__ = [
    "CheckpointState",
    "pretrained_key",
    "load_checkpoint",
    "save_checkpoint",
    "restored_epoch",
    "get_pretrained_state",
]


def pretrained_key(
    model_name: str,
    model_kwargs: Dict,
    dataset_name: str,
    dataset_kwargs: Dict,
    train_config: Dict,
    seed: int,
) -> str:
    """Stable hash identifying one pretraining configuration.

    Hashed through :func:`~repro.utils.canonical_json`, exactly like
    ``spec_hash``: a non-JSON-native value (a tuple, a set, an object)
    raises ``TypeError`` naming its path instead of aliasing another
    configuration through its ``str()``.  Keys of JSON-native
    configurations are unchanged, so existing checkpoints keep loading.
    """
    blob = canonical_json(
        {
            "model": model_name,
            "model_kwargs": model_kwargs,
            "dataset": dataset_name,
            "dataset_kwargs": dataset_kwargs,
            "train": train_config,
            "seed": seed,
        }
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _path_for(key: str) -> Path:
    return artifacts_dir("pretrained") / f"{key}.npz"


def save_checkpoint(key: str, state: Dict[str, np.ndarray], meta: Optional[Dict] = None) -> Path:
    """Persist a state dict (and JSON metadata sidecar) under ``key``.

    Writes are atomic (temp file in the same directory + ``os.replace``), so
    parallel sweep workers racing to cache the same checkpoint can never
    expose a torn ``.npz`` to a concurrent :func:`load_checkpoint`; the last
    writer wins with byte-identical content because pretraining is
    deterministic in the key's configuration.
    """
    path = _path_for(key)
    with atomic_writer(path) as tmp:
        with open(tmp, "wb") as f:
            np.savez_compressed(f, **state)
    if meta is not None:
        atomic_write_text(
            path.with_suffix(".json"), json.dumps(meta, indent=2, default=str)
        )
    return path


class CheckpointState(Mapping):
    """A checkpoint's state dict, read-only, with ``identity`` naming the file.

    ``identity`` is ``(path, inode, size, mtime_ns)`` of the opened file.
    The mapping and its arrays are shared by every cell of the process, so
    neither accepts writes; ``Module.load_state_dict`` copies the arrays
    into the model.
    """

    def __init__(self, arrays: Dict[str, np.ndarray], identity: Tuple) -> None:
        self._arrays = arrays
        self.identity = identity

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._arrays)

    def __len__(self) -> int:
        return len(self._arrays)


#: decoded checkpoints, by the identity of the file they were read from
_STATES = BoundedMemo()


def _decode(f, identity: Tuple) -> CheckpointState:
    with np.load(f) as data:
        arrays = {name: data[name] for name in data.files}
    for array in arrays.values():
        array.flags.writeable = False
    return CheckpointState(arrays, identity)


def load_checkpoint(key: str) -> Optional[CheckpointState]:
    """Load a cached state dict, or None if absent or unreadable.

    Memoized per process by the opened file's path, inode, size and
    ``st_mtime_ns``, so a rewritten checkpoint or another
    ``REPRO_ARTIFACTS`` is read afresh.
    """
    path = os.path.abspath(_path_for(key))
    try:
        with open(path, "rb") as f:
            st = os.fstat(f.fileno())
            identity = (path, st.st_ino, st.st_size, st.st_mtime_ns)
            return _STATES.get(identity, lambda: _decode(f, identity))
    # Absent, torn or corrupt files (crashed pre-atomic writer, disk-full
    # truncation): np.load raises BadZipFile for truncated archives and
    # EOFError for zero-byte files, besides the OSError/ValueError cases.
    except (OSError, ValueError, EOFError, zipfile.BadZipFile):
        return None


def restored_epoch(history, restore_best: bool = True) -> Optional[int]:
    """Index of the epoch whose weights a finished ``Trainer.run`` holds.

    With ``restore_best`` that is the first epoch with the highest val
    top1 (the trainer only replaces its best on a strict ``>``); without
    it, the last epoch.  ``None`` for an empty history.
    """
    if not history:
        return None
    if not restore_best:
        return len(history) - 1
    tops = [record["val_top1"] for record in history]
    return tops.index(max(tops))


def get_pretrained_state(
    model_name: str,
    model_kwargs: Dict,
    dataset_name: str,
    dataset_kwargs: Dict,
    train_config,
    seed: int,
    trainer_factory,
) -> Tuple[CheckpointState, str]:
    """Return (state_dict, key), training and caching on first use.

    ``trainer_factory()`` must build, train and return the model; it is only
    invoked on a cache miss, and the state returned is then read back from
    the file written, so every caller starts from the bytes on disk.  The
    metadata sidecar records the last epoch's val top1 and the epoch whose
    weights were saved (see :func:`restored_epoch`).
    """
    recipe = (
        train_config.to_dict() if hasattr(train_config, "to_dict") else dict(train_config)
    )
    key = pretrained_key(
        model_name, model_kwargs, dataset_name, dataset_kwargs, recipe, seed
    )
    state = load_checkpoint(key)
    if state is None:
        model, history = trainer_factory()
        saved = restored_epoch(history, recipe.get("restore_best", True))
        save_checkpoint(
            key,
            model.state_dict(),
            meta={
                "model": model_name,
                "model_kwargs": model_kwargs,
                "dataset": dataset_name,
                "dataset_kwargs": dataset_kwargs,
                "seed": seed,
                "final_val_top1": history[-1]["val_top1"] if history else None,
                "restored_epoch": saved,
                "restored_val_top1": (
                    None if saved is None else history[saved]["val_top1"]
                ),
                "epochs_ran": len(history),
            },
        )
        state = load_checkpoint(key)
        if state is None:
            raise OSError(f"checkpoint {_path_for(key)} unreadable after its write")
    return state, key
