"""Sweep expansion + execution: strategies × compressions × seeds → ResultSet.

This is the experiment matrix behind Figures 6-18: the paper recommends at
least 5 operating points spanning {2,4,8,16,32} (§6), three seeds for CIFAR
(Appendix C.1), and identical everything-else across strategies.

The matrix is split into three layers:

1. :func:`expand_sweep` — a pure grid expander producing a deterministic,
   ordered ``list[ExperimentSpec]`` (each content-addressable via
   :func:`~repro.experiment.cache.spec_hash`).  Baseline cells
   (compression ≤ 1) are strategy-independent, so by default exactly one
   baseline spec is emitted per seed, no matter how many strategies there
   are or how many duplicate ≤1 entries ``compressions`` contains.
2. Executors (:mod:`repro.experiment.executor`) — run the specs serially or
   across processes, optionally backed by the on-disk
   :class:`~repro.experiment.cache.ResultCache`.
3. :func:`assemble_results` — zip specs and rows back into a
   :class:`ResultSet`, replicating each deduped baseline row once per
   strategy so downstream filters see the full matrix.

:func:`run_config` glues the three together from a declarative
:class:`~repro.experiment.config.SweepConfig`; ``python -m repro run
sweep.json`` is the CLI equivalent with parallelism and sharding flags.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from .cache import ResultCache
from .config import PAPER_COMPRESSIONS, SweepConfig, TrainConfig
from .executor import EXECUTORS
from .prune import BASELINE_STRATEGY, ExperimentSpec, baseline_spec_for
from .results import PruningResult, ResultSet

__all__ = [
    "expand_sweep",
    "assemble_results",
    "run_config",
    "PAPER_COMPRESSIONS",
    "BASELINE_STRATEGY",
]


def expand_sweep(
    model: str,
    dataset: str,
    strategies: Sequence[str],
    compressions: Sequence[float] = PAPER_COMPRESSIONS,
    seeds: Sequence[int] = (0, 1, 2),
    model_kwargs: Optional[Dict] = None,
    dataset_kwargs: Optional[Dict] = None,
    pretrain: Optional[TrainConfig] = None,
    finetune: Optional[TrainConfig] = None,
    pretrain_seed: int = 0,
    dedupe_baselines: bool = True,
    schedule: str = "one_shot",
    schedule_steps: int = 1,
    prune_classifier: bool = False,
) -> List[ExperimentSpec]:
    """Expand the experiment grid into an ordered list of specs.

    Pure function of its arguments: no I/O, no execution.  Order is
    seed-major, then ``compressions`` in the given order, then strategies.

    With ``dedupe_baselines`` (default), every compression ≤ 1 entry
    collapses to a single per-seed baseline spec at compression 1.0 with
    :data:`BASELINE_STRATEGY` as placeholder strategy and the schedule
    normalized away (no pruning happens, so neither matters); duplicate ≤1
    entries in ``compressions`` are dropped rather than re-run.
    :func:`assemble_results` later replicates each baseline row across
    strategies.
    """
    if not strategies:
        raise ValueError("strategies must be non-empty")
    base = ExperimentSpec(
        model=model,
        dataset=dataset,
        strategy=strategies[0],
        compression=1.0,
        model_kwargs=model_kwargs or {},
        dataset_kwargs=dataset_kwargs or {},
        pretrain_seed=pretrain_seed,
        prune_classifier=prune_classifier,
        schedule=schedule,
        schedule_steps=schedule_steps,
    )
    if pretrain is not None:
        base.pretrain = pretrain
    if finetune is not None:
        base.finetune = finetune

    specs: List[ExperimentSpec] = []
    for seed in seeds:
        baseline_emitted = False
        for compression in compressions:
            if compression <= 1.0 and dedupe_baselines:
                if not baseline_emitted:
                    specs.append(baseline_spec_for(replace(base, seed=seed)))
                    baseline_emitted = True
                continue
            for strat in strategies:
                specs.append(
                    replace(base, strategy=strat, compression=float(compression), seed=seed)
                )
    return specs


def assemble_results(
    specs: Sequence[ExperimentSpec],
    rows: Sequence[PruningResult],
    strategies: Sequence[str],
    replicate_baselines: bool = True,
) -> ResultSet:
    """Zip executed rows back into a :class:`ResultSet`.

    When ``replicate_baselines`` (matching ``expand_sweep``'s dedup), each
    baseline row (compression ≤ 1) is copied once per strategy so the
    ResultSet contains the full strategy × compression × seed matrix.
    """
    results = ResultSet()
    for spec, row in zip(specs, rows):
        if spec.compression <= 1.0 and replicate_baselines:
            for strat in strategies:
                clone = PruningResult.from_dict(row.to_dict())
                clone.strategy = strat
                results.add(clone)
        else:
            results.add(row)
    return results


def run_config(
    config: SweepConfig,
    cache: Optional[ResultCache] = None,
    executor=None,
    progress: Optional[Callable[[str], None]] = None,
    on_event: Optional[Callable] = None,
) -> ResultSet:
    """Run a declarative :class:`SweepConfig` end-to-end and collect results.

    The config's ``executor``/``workers`` fields pick the executor from the
    ``EXECUTORS`` registry unless an ``executor`` instance is passed
    explicitly (in which case that executor owns its cache/progress wiring,
    so combining it with ``cache`` is rejected rather than silently
    dropped).  Pass a :class:`ResultCache` to skip already-executed cells
    and to persist new ones for future sweeps.
    """
    specs = config.expand()
    if executor is None:
        executor = EXECUTORS.create(
            config.executor,
            workers=config.workers or None,  # 0 = all cores (parallel only)
            cache=cache,
            progress=progress,
            on_event=on_event,
            **dict(config.executor_options),
        )
    elif cache is not None or progress is not None or on_event is not None:
        raise ValueError(
            "pass cache/progress/on_event either to run_config or to the "
            "executor, not both"
        )
    rows = executor.run(specs)
    return assemble_results(
        specs,
        rows,
        config.strategies,
        replicate_baselines=config.dedupe_baselines,
    )

