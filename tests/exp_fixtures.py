"""Shared executor-test fixtures: deterministic fault injection via specs.

Registers a ``crashy`` dataset whose *runtime and failure behavior are part
of the spec* (``dataset_kwargs``), so executor tests inject worker crashes,
hangs, and flaky-then-succeed cells through the normal execution path — no
monkeypatching of executor or queue internals.  Because the behavior rides
in the spec, it survives serialization: the same injected fault fires in a
serial run, a forked process-pool worker, and a separate ``python -m repro
worker --import exp_fixtures`` process.

Behavior kwargs (all consumed here, never passed to the dataset):

``behavior``
    ``"ok"`` (default), ``"raise"`` (always fail with :class:`CrashyError`),
    ``"flaky"`` (fail the first ``fail_times`` executions, then succeed),
    ``"exit"`` (``os._exit`` — a hard worker crash that skips all cleanup;
    with ``fail_times`` set, only the first ``fail_times`` executions die).
``sleep``
    Seconds each ``Trainer`` built on the dataset sleeps, when it asks for
    the train transform — makes a cell slow enough to outlive a short
    lease.  A process reuses the dataset of one ``dataset_kwargs``, so the
    slowdown is carried by the bundle: it fires in every execution that
    fine-tunes (and in each pretraining).  With ``fail_times`` set, only
    the first ``fail_times`` such trainers sleep ("hangs, then recovers
    when re-run").
``fail_times``
    How many executions misbehave before the cell turns healthy.
``scratch``
    Directory for cross-process attempt counters (required by ``flaky``
    and by any ``fail_times`` gating).  Attempts are keyed per ``cell``.
``cell``
    Label that (a) keys the attempt counter and (b) makes otherwise
    identical specs hash differently, so tests mint distinct grid cells.

Everything else lands on the tiny synthetic dataset, which keeps crashy
cells cheap enough (sub-second) for the tier-1 suite.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.data import SyntheticCIFAR10
from repro.experiment import ExperimentSpec, OptimizerConfig, TrainConfig, expand_sweep
from repro.experiment.datasets import DATASETS

__all__ = [
    "CrashyError",
    "crashy_dataset",
    "crashy_spec",
    "crashy_grid",
    "crashy_cells",
    "corrupt_done_marker",
    "write_hosts_file",
    "tiny_train",
]


class CrashyError(RuntimeError):
    """The injected failure — tests assert on this exact type/name."""


def _bump_attempt(scratch, cell: str, counter: str = "attempts") -> int:
    """Count executions of one cell (or, as ``counter="sleeps"``, its
    trainers) across processes; returns the 1-based ordinal of this one.
    Append-to-file is atomic enough at this scale (single byte, O_APPEND)
    and keeps the counter monkeypatch-free."""
    path = Path(scratch) / f"{cell or 'cell'}.{counter}"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as f:
        f.write(".")
    return path.stat().st_size


def crashy_dataset(
    behavior: str = "ok",
    sleep: float = 0.0,
    fail_times: int = 0,
    scratch=None,
    cell: str = "",
    exit_code: int = 17,
    **kwargs,
):
    """Tiny synthetic dataset that misbehaves on demand (see module docstring).

    Construction happens inside ``PruningExperiment.__init__`` — i.e. in
    whichever process is executing the cell — so a fault injected here is a
    fault *in the worker*, exactly like a real broken cell.  A construction
    that raises or exits is never reused, so these faults fire in every
    execution they gate; ``sleep`` is carried by the bundle instead.
    """
    attempt = _bump_attempt(scratch, cell) if scratch else None
    if fail_times and attempt is None:
        raise ValueError("fail_times gating needs scratch= to count attempts")
    misbehaving = attempt <= fail_times if fail_times else True
    if behavior == "raise":
        raise CrashyError(f"injected failure in cell {cell!r}")
    if behavior == "flaky":
        if not fail_times:
            raise ValueError("flaky needs fail_times >= 1")
        if misbehaving:
            raise CrashyError(
                f"injected flaky failure {attempt}/{fail_times} in cell {cell!r}"
            )
    if behavior == "exit" and misbehaving:
        os._exit(exit_code)  # hard crash: no cleanup, lease left dangling
    kwargs.setdefault("n_train", 32)
    kwargs.setdefault("n_val", 16)
    kwargs.setdefault("size", 4)
    kwargs.setdefault("noise", 0.5)
    return _SlowCIFAR10(sleep, fail_times, scratch, cell, **kwargs)


class _SlowCIFAR10(SyntheticCIFAR10):
    """The crashy bundle: every ``Trainer`` built on it first sleeps
    ``sleep`` seconds (the first ``fail_times`` of them, if set)."""

    def __init__(self, sleep, fail_times, scratch, cell, **kwargs):
        super().__init__(**kwargs)
        self.slowdown = (sleep, fail_times, scratch, cell)

    def train_transform(self):
        sleep, fail_times, scratch, cell = self.slowdown
        if sleep and (
            not fail_times or _bump_attempt(scratch, cell, "sleeps") <= fail_times
        ):
            time.sleep(sleep)
        return super().train_transform()


# idempotent: pytest, forked pool workers, and `worker --import exp_fixtures`
# subprocesses may all import this module into an interpreter where the
# registration already happened
if "crashy" not in DATASETS:
    DATASETS.register("crashy", crashy_dataset)


def tiny_train(epochs: int = 1) -> TrainConfig:
    return TrainConfig(
        epochs=epochs,
        batch_size=16,
        optimizer=OptimizerConfig("adam", 2e-3),
        early_stop_patience=None,
    )


def crashy_spec(
    cell: str = "c0",
    behavior: str = "ok",
    compression: float = 2.0,
    seed: int = 0,
    **behavior_kwargs,
) -> ExperimentSpec:
    """One self-contained crashy cell (sub-second on a laptop CPU)."""
    return ExperimentSpec(
        model="lenet-300-100",
        dataset="crashy",
        strategy="global_weight",
        compression=compression,
        seed=seed,
        model_kwargs=dict(input_size=4, in_channels=3),
        dataset_kwargs=dict(cell=cell, behavior=behavior, **behavior_kwargs),
        pretrain=tiny_train(),
        finetune=tiny_train(),
    )


def crashy_grid(
    strategies=("global_weight", "random"),
    compressions=(1, 2),
    seeds=(0,),
    cell: str = "grid",
    behavior: str = "ok",
    **behavior_kwargs,
):
    """A real expanded grid (baselines deduped) over one crashy dataset."""
    return expand_sweep(
        model="lenet-300-100",
        dataset="crashy",
        strategies=list(strategies),
        compressions=list(compressions),
        seeds=list(seeds),
        model_kwargs=dict(input_size=4, in_channels=3),
        dataset_kwargs=dict(cell=cell, behavior=behavior, **behavior_kwargs),
        pretrain=tiny_train(),
        finetune=tiny_train(),
    )


# -- fleet-layer helpers ----------------------------------------------------

def crashy_cells(n: int, cell: str = "fleet", **behavior_kwargs):
    """``n`` distinct healthy crashy cells (the ``cell`` label salts the
    hash), for fleet tests that need a precise cell count rather than a
    grid shape."""
    return [
        crashy_spec(cell=f"{cell}{i}", **behavior_kwargs) for i in range(n)
    ]


def corrupt_done_marker(queue_dir, h: str, mode: str = "garbage") -> Path:
    """Corrupt one ``done/`` marker in place, simulating a torn write or
    bit rot.  ``mode="garbage"`` makes it unparseable; ``mode="swap"``
    keeps it valid JSON but for a *different* cell (hash mismatch)."""
    path = Path(queue_dir) / "done" / f"{h}.json"
    if mode == "garbage":
        path.write_text("{ not json", encoding="utf-8")
    elif mode == "swap":
        import json

        from repro.experiment.cache import spec_hash

        other = crashy_spec(cell="an-impostor-cell")
        path.write_text(json.dumps({
            "schema": 1,
            "hash": spec_hash(other),
            "spec": other.to_dict(),
            "attempts": 1,
            "failures": [],
        }))
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return path


def write_hosts_file(path, lines=("local workers=2",)) -> Path:
    """A hosts file for ``repro fleet launch`` tests."""
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
