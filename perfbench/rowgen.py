"""Seeded generator of sweep-result rows for the store workload.

Rows follow the schema of ``PruningResult`` and come in the layout a fleet
writes them (the queue worker's store mirror, ``repro store ingest`` from a
cache or queue): seed-major, then model; per seed and model one unpruned
control under the ``__baseline__`` sentinel strategy, then every compression
x strategy cell.  So a reader that prepares report-shaped rows pays for
``ResultFrame.replicate_baselines``, as it does on a fleet's store.  Values
are plausible rather than real: ``actual_compression`` is continuous around
each target and accuracy falls with compression.  Cell ``i`` of the endless
grid always has the same key (a 16-hex content hash), so regenerating a cell
supersedes its earlier row in a keyed store.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import numpy as np

MODELS = (("resnet-20", 68786, 2578752.0), ("resnet-56", 207002, 7852032.0))
STRATEGIES = ("global_weight", "layer_weight", "global_gradient",
              "layer_gradient", "random")
#: the control's strategy in cache and queue layouts (``BASELINE_STRATEGY``)
BASELINE = "__baseline__"
#: pruned targets; each seed and model also has one control at 1x
COMPRESSIONS = (2.0, 4.0, 8.0, 16.0, 32.0)
CELLS_PER_MODEL = 1 + len(COMPRESSIONS) * len(STRATEGIES)
CELLS_PER_SEED = len(MODELS) * CELLS_PER_MODEL
#: strategy column values: the sentinel, then the pruning strategies
_STRATEGY_NAMES = (BASELINE,) + STRATEGIES


def _cell(index: int) -> Tuple[int, int, int, int]:
    """Grid cell ``index`` → (seed, model, compression, strategy) indices.

    Compression and strategy index ``-1`` mark the seed's control."""
    seed, rest = divmod(index, CELLS_PER_SEED)
    model, rest = divmod(rest, CELLS_PER_MODEL)
    if rest == 0:
        return seed, model, -1, -1
    compression, strategy = divmod(rest - 1, len(STRATEGIES))
    return seed, model, compression, strategy


def cell_key(index: int) -> str:
    seed, m, c, s = _cell(index)
    target = COMPRESSIONS[c] if c >= 0 else 1.0
    blob = f"{MODELS[m][0]}|cifar10|{_STRATEGY_NAMES[s + 1]}|{target:g}|{seed}"
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def make_rows(rng: np.random.Generator, start: int, n_rows: int
              ) -> Tuple[Dict[str, np.ndarray], List[str]]:
    """Grid cells ``start .. start + n_rows - 1`` → (columns, keys)."""
    cells = np.array([_cell(i) for i in range(start, start + n_rows)],
                     dtype=np.int64).reshape(n_rows, 4)
    seed, m, c, s = cells.T
    model = np.array([MODELS[i][0] for i in m], dtype=object)
    total = np.array([MODELS[i][1] for i in m], dtype=np.int64)
    dense = np.array([MODELS[i][2] for i in m], dtype=np.float64)
    compression = np.asarray((1.0,) + COMPRESSIONS, dtype=np.float64)[c + 1]
    pruned = c >= 0
    actual = np.where(
        pruned, compression * np.exp(rng.normal(0.0, 0.02, n_rows)), 1.0)
    speedup = np.where(pruned, actual ** rng.uniform(0.55, 0.75, n_rows), 1.0)
    base1 = np.round(rng.uniform(0.88, 0.92, n_rows), 6)
    drop = 0.012 * np.log2(actual) ** 1.6 + rng.normal(0.0, 0.004, n_rows)
    pre_drop = drop * rng.uniform(1.5, 3.0, n_rows)
    top1 = np.where(pruned, np.clip(base1 - drop, 0.0, 1.0), base1)
    pre1 = np.where(pruned, np.clip(base1 - pre_drop, 0.0, 1.0), base1)
    columns = {
        "model": model,
        "dataset": np.full(n_rows, "cifar10", dtype=object),
        "strategy": np.asarray(_STRATEGY_NAMES, dtype=object)[s + 1],
        "compression": compression,
        "seed": seed.astype(np.int64),
        "actual_compression": actual,
        "theoretical_speedup": speedup,
        "total_params": total,
        "nonzero_params": np.round(total / actual).astype(np.int64),
        "dense_flops": dense,
        "effective_flops": dense / speedup,
        "baseline_top1": base1,
        "baseline_top5": np.minimum(base1 + 0.07, 1.0),
        "pre_finetune_top1": pre1,
        "pre_finetune_top5": np.minimum(pre1 + 0.07, 1.0),
        "top1": top1,
        "top5": np.minimum(top1 + 0.07, 1.0),
        "pretrained_key": np.array(
            [f"pretrained-{name}" for name in model], dtype=object),
        "finetune_epochs_ran": np.where(pruned, 5, 0).astype(np.int64),
        "extra": np.array(
            [{"kernel_backend": "reference"} for _ in range(n_rows)],
            dtype=object),
    }
    keys = [cell_key(i) for i in range(start, start + n_rows)]
    return columns, keys
