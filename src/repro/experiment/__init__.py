"""Experiment harness: train → prune → fine-tune → evaluate → aggregate.

The declarative entry point is :class:`SweepConfig` (+ ``python -m repro
run sweep.json``); the pieces it drives — :func:`expand_sweep`,
:func:`spec_hash`, the ``EXECUTORS`` registry, :class:`ResultCache` — are
all public for programmatic use.  Multi-machine sweeps go through the
durable ``"queue"`` executor (:mod:`repro.experiment.queue`): the submitter
enqueues cells into a shared directory and any number of ``python -m repro
worker`` processes drain them, publishing rows through the shared cache.
"""

from .config import (
    OptimizerConfig,
    SWEEP_SCHEMA_VERSION,
    SweepConfig,
    TrainConfig,
    cifar_finetune_config,
    imagenet_finetune_config,
)
from .cache import ResultCache, spec_hash
from .datasets import DATASETS
from .executor import (
    EXECUTORS,
    ParallelExecutor,
    ProgressEvent,
    SerialExecutor,
    executor_for,
    shard_specs,
)
from .prune import (
    BASELINE_STRATEGY,
    ExperimentSpec,
    PruningExperiment,
    baseline_spec_for,
)
from .queue import QueueClaim, QueueExecutor, QueueWorker, WorkQueue
from .results import CurvePoint, PruningResult, ResultSet
from .runner import (
    PAPER_COMPRESSIONS,
    assemble_results,
    expand_sweep,
    run_config,
)
from .seeds import fix_seeds
from .train import Trainer, build_optimizer

__all__ = [
    "OptimizerConfig",
    "TrainConfig",
    "SweepConfig",
    "SWEEP_SCHEMA_VERSION",
    "cifar_finetune_config",
    "imagenet_finetune_config",
    "DATASETS",
    "ExperimentSpec",
    "PruningExperiment",
    "BASELINE_STRATEGY",
    "baseline_spec_for",
    "PruningResult",
    "ResultSet",
    "ResultCache",
    "CurvePoint",
    "spec_hash",
    "expand_sweep",
    "assemble_results",
    "run_config",
    "EXECUTORS",
    "ProgressEvent",
    "SerialExecutor",
    "ParallelExecutor",
    "QueueExecutor",
    "QueueWorker",
    "QueueClaim",
    "WorkQueue",
    "executor_for",
    "shard_specs",
    "PAPER_COMPRESSIONS",
    "fix_seeds",
    "Trainer",
    "build_optimizer",
]
