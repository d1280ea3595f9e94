"""PruningExperiment: the paper's Algorithm 1 instrumented end-to-end.

Pipeline (Appendix C):

1. Load (or train-and-cache) the pretrained checkpoint — the *same* initial
   model for every strategy in a sweep (§7.3).
2. Evaluate the unpruned control (§6: report metrics for the control).
3. Prune to the target whole-model compression following the spec's
   schedule (§2.3): one-shot by default, or several prune → fine-tune
   rounds for iterative/polynomial schedules; gradient-based scores get a
   single minibatch.
4. Fine-tune with masks enforced after every optimizer step; early stopping
   on validation accuracy.
5. Report raw Top-1/Top-5, compression ratio AND theoretical speedup.

A process computes what its cells share once: the dataset, the decoded
checkpoint (in :func:`~repro.models.pretrained.load_checkpoint`) and the
control's measurements are memoized by content address, and the final
Top-1/Top-5 are the fine-tune's own evaluation of the weights it keeps
whenever that evaluation ran on the final evaluation's batches.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..data import DataLoader
from ..kernels import active_backend_name
from ..metrics import (
    evaluate,
    flops_totals,
    nonzero_params,
    speedup_from_totals,
    total_params,
)
from ..models import MODELS
from ..models.pretrained import get_pretrained_state
from ..nn import Module
from ..pruning import STRATEGIES, Pruner, PruningContext, schedule_targets
from ..utils import BoundedMemo, canonical_json
from .config import TrainConfig, _known_fields, cifar_finetune_config
from .datasets import DATASETS
from .results import PruningResult
from .train import EVAL_BATCH_SIZE, Trainer

__all__ = [
    "ExperimentSpec",
    "PruningExperiment",
    "BASELINE_STRATEGY",
    "baseline_spec_for",
]

#: sentinel strategy for deduped baseline specs (compression 1 never prunes,
#: so the strategy is irrelevant at execution time).  A fixed sentinel —
#: rather than ``strategies[0]`` — keeps the baseline's spec hash independent
#: of the sweep's strategy list, so sweeps over different strategy sets share
#: cached baseline cells.
BASELINE_STRATEGY = "__baseline__"


@dataclass
class ExperimentSpec:
    """Everything needed to reproduce one pruning run.

    Component fields (``model``, ``dataset``, ``strategy``, ``schedule``)
    are registry names, so a serialized spec is all a remote worker needs:
    ``ExperimentSpec.from_dict(json.loads(text))`` rebuilds it losslessly
    (identical :func:`~repro.experiment.cache.spec_hash`).
    """

    model: str
    dataset: str
    strategy: str
    compression: float
    seed: int = 0
    model_kwargs: Dict = field(default_factory=dict)
    dataset_kwargs: Dict = field(default_factory=dict)
    pretrain: TrainConfig = field(default_factory=lambda: cifar_finetune_config(epochs=10))
    finetune: TrainConfig = field(default_factory=lambda: cifar_finetune_config(epochs=5))
    prune_classifier: bool = False
    #: seed used for pretraining; defaults to 0 so all sweep seeds share one
    #: initial model (§7.3).  Set per-seed to study init variance instead.
    pretrain_seed: int = 0
    #: SCHEDULES registry name; "one_shot" reproduces the paper's protocol,
    #: iterative schedules interleave prune and fine-tune rounds (§2.3)
    schedule: str = "one_shot"
    schedule_steps: int = 1

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict) -> "ExperimentSpec":
        kwargs = _known_fields(cls, d)
        for key in ("pretrain", "finetune"):
            if isinstance(kwargs.get(key), dict):
                kwargs[key] = TrainConfig.from_dict(kwargs[key])
        return cls(**kwargs)


def baseline_spec_for(spec: ExperimentSpec) -> ExperimentSpec:
    """The normalized unpruned-control spec sharing ``spec``'s setup.

    Strategy and schedule are irrelevant when nothing is pruned, so both are
    pinned to fixed sentinels — every sweep over the same model/dataset/
    train-config/seed hits the same cached baseline cell regardless of its
    strategy list or schedule.
    """
    return replace(
        spec,
        strategy=BASELINE_STRATEGY,
        compression=1.0,
        schedule="one_shot",
        schedule_steps=1,
    )


def _read_only(bundle):
    """Freeze the arrays of a dataset bundle and its splits, so a cell that
    writes into the shared data raises instead of changing later cells."""
    for holder in (bundle, bundle.train, bundle.val):
        for value in vars(holder).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
    return bundle


def _size_metrics(model: Module, input_shape: Tuple[int, ...]) -> Dict[str, float]:
    """A row's size and compute fields for ``model`` as it stands, from one
    traced forward pass."""
    dense, effective = flops_totals(model, input_shape)
    return {
        "total_params": total_params(model),
        "nonzero_params": nonzero_params(model),
        # counts weight.size, so a pruned model's equals its control's
        "dense_flops": dense,
        "effective_flops": effective,
        "theoretical_speedup": speedup_from_totals(dense, effective),
    }


@dataclass(frozen=True)
class _Control:
    """The unpruned control's measurements (§6), shared by a process's cells."""

    metrics: Mapping[str, float]  # evaluate() on the cell's eval loader
    size: Mapping[str, float]  # _size_metrics() of the unpruned model


#: a control is keyed by its eval seed, and a queue claims cells in hash
#: order, which interleaves the seeds: traced, the 12 seeds of one
#: checkpoint need 12 entries (11 re-evaluate 46 controls); the rest is
#: headroom for more seeds or checkpoints that no benchmark measures
CONTROL_MEMO_SIZE = 32

#: dataset bundles by (name, registered factory, canonical kwargs)
_DATASETS = BoundedMemo()
#: controls by (checkpoint identity, dataset key, model factory, eval batch
#: size, eval seed, kernel backend)
_CONTROLS = BoundedMemo(CONTROL_MEMO_SIZE)


class PruningExperiment:
    """Run one :class:`ExperimentSpec` and produce a :class:`PruningResult`.

    After :meth:`run`, ``baseline_result`` holds the synthesized row for the
    corresponding :func:`baseline_spec_for` cell (pruned specs only): every
    pruned run evaluates the unpruned control anyway, so the executors can
    cache the baseline row for free and a shard holding only pruned cells
    no longer forces the merge run to re-derive baselines.
    """

    def __init__(self, spec: ExperimentSpec) -> None:
        self.spec = spec
        self.dataset_key = (
            spec.dataset,
            DATASETS.get(spec.dataset),
            canonical_json(spec.dataset_kwargs),
        )
        self.dataset = _DATASETS.get(
            self.dataset_key,
            lambda: _read_only(DATASETS.create(spec.dataset, **spec.dataset_kwargs)),
        )
        self.model: Optional[Module] = None
        self.pretrained_key = ""
        #: (path, inode, size, mtime_ns) of the checkpoint file loaded
        self.checkpoint: Optional[Tuple] = None
        self.baseline_result: Optional[PruningResult] = None

    # -- stages ----------------------------------------------------------
    def _build_model(self) -> Module:
        return MODELS.create(
            self.spec.model, seed=self.spec.pretrain_seed, **self.spec.model_kwargs
        )

    def _pretrain_factory(self):
        def factory():
            model = self._build_model()
            trainer = Trainer(
                model, self.dataset, self.spec.pretrain, seed=self.spec.pretrain_seed
            )
            history = trainer.run()
            return model, history

        return factory

    def load_pretrained(self) -> Module:
        """Stage 1: the shared initial model (cached on disk)."""
        spec = self.spec
        state, key = get_pretrained_state(
            spec.model,
            spec.model_kwargs,
            spec.dataset,
            spec.dataset_kwargs,
            spec.pretrain,
            spec.pretrain_seed,
            self._pretrain_factory(),
        )
        self.pretrained_key = key
        self.checkpoint = state.identity
        model = self._build_model()
        model.load_state_dict(state)
        self.model = model
        return model

    def run(self) -> PruningResult:
        spec = self.spec
        model = self.load_pretrained()
        input_shape = self.dataset.train.sample_shape

        eval_loader = DataLoader(
            self.dataset.val,
            batch_size=EVAL_BATCH_SIZE,
            shuffle=False,
            seed=spec.seed,
            transform=self.dataset.eval_transform(),
        )
        control = _CONTROLS.get(
            (
                self.checkpoint,
                self.dataset_key,
                MODELS.get(spec.model),
                eval_loader.batch_size,
                eval_loader.seed,
                active_backend_name(),
            ),
            lambda: _Control(
                metrics=MappingProxyType(evaluate(model, eval_loader)),
                size=MappingProxyType(_size_metrics(model, input_shape)),
            ),
        )
        baseline = control.metrics
        result = PruningResult(
            model=spec.model,
            dataset=spec.dataset,
            strategy=spec.strategy,
            compression=spec.compression,
            seed=spec.seed,
            baseline_top1=baseline["top1"],
            baseline_top5=baseline.get("top5", 0.0),
            pretrained_key=self.pretrained_key,
        )
        # Provenance: which compute backend produced this row.  Rows from
        # different backends need not be comparable bit-for-bit, so reports
        # surface mixed-backend tables.
        result.extra["kernel_backend"] = active_backend_name()

        if spec.compression > 1.0:
            # Snapshot the unpruned-control row before any mask lands: it is
            # exactly what executing baseline_spec_for(spec) would produce,
            # so executors can cache it alongside this cell's result.
            self.baseline_result = replace(
                result,
                strategy=BASELINE_STRATEGY,
                compression=1.0,
                actual_compression=1.0,
                pre_finetune_top1=baseline["top1"],
                pre_finetune_top5=baseline.get("top5", 0.0),
                top1=baseline["top1"],
                top5=baseline.get("top5", 0.0),
                **control.size,
                extra={"kernel_backend": active_backend_name()},
            )  # fresh dict — replace() would otherwise share result's extra

            strategy = STRATEGIES.create(
                spec.strategy, prune_classifier=spec.prune_classifier
            )
            # Gradient scores and random masks draw from seed-specific streams
            # so seeds differ exactly where the paper says they should (C.1).
            score_loader = DataLoader(
                self.dataset.train,
                batch_size=spec.finetune.batch_size,
                shuffle=True,
                seed=spec.seed,
                transform=self.dataset.eval_transform(),
            )
            xb, yb = score_loader.one_batch()
            context = PruningContext(
                inputs=xb, targets=yb, rng=np.random.default_rng(spec.seed)
            )
            pruner = Pruner(model, strategy)
            targets = schedule_targets(
                spec.schedule, spec.compression, spec.schedule_steps
            )
            # Intermediate rounds: prune part-way, fine-tune, repeat (§2.3
            # iterative regime).  The final round's fine-tune happens below
            # after the pre-finetune metrics are recorded.
            for target in targets[:-1]:
                pruner.prune(target, context)
                inter = Trainer(
                    model, self.dataset, spec.finetune, seed=spec.seed,
                    masks=pruner.registry,
                )
                result.finetune_epochs_ran += len(inter.run())
            registry = pruner.prune(targets[-1], context)
            result.actual_compression = pruner.actual_compression()

            pre = evaluate(model, eval_loader)
            result.pre_finetune_top1 = pre["top1"]
            result.pre_finetune_top5 = pre.get("top5", 0.0)

            trainer = Trainer(
                model, self.dataset, spec.finetune, seed=spec.seed, masks=registry
            )
            history = trainer.run()
            result.finetune_epochs_ran += len(history)
            registry.validate()
            # the fine-tune evaluated the weights it kept on eval_loader's
            # batches iff its val loader has the same batch size
            same_batches = trainer.val_loader.batch_size == eval_loader.batch_size
            final = trainer.final_eval if same_batches else None
            size = _size_metrics(model, input_shape)
        else:
            # nothing is pruned: the final model is the control
            result.actual_compression = 1.0
            result.pre_finetune_top1 = baseline["top1"]
            result.pre_finetune_top5 = baseline.get("top5", 0.0)
            final, size = baseline, control.size

        if final is None:
            final = evaluate(model, eval_loader)
        result.top1 = final["top1"]
        result.top5 = final.get("top5", 0.0)
        for name, value in size.items():
            setattr(result, name, value)
        return result
