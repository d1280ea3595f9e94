"""Training loop: the ``trainToConvergence`` / ``fineTune`` of Algorithm 1.

A single implementation serves both pretraining and fine-tuning; the only
difference is the optional :class:`~repro.pruning.MaskRegistry`, which when
present is re-applied after every optimizer step so pruned weights stay
zero (§2.1's ``M ⊙ W`` semantics).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..autograd import Tensor, cross_entropy
from ..data import DataLoader
from ..metrics import evaluate
from ..nn import Module
from ..optim import OPTIMIZERS, EarlyStopping, Optimizer
from ..pruning import MaskRegistry
from .config import TrainConfig

__all__ = ["Trainer", "build_optimizer", "EVAL_BATCH_SIZE"]

#: batch size of every validation pass; a fine-tune whose batches are no
#: larger evaluates on exactly the batches a cell's final evaluation uses
EVAL_BATCH_SIZE = 128


def build_optimizer(model: Module, config: TrainConfig) -> Optimizer:
    """Instantiate the optimizer described by ``config`` via ``OPTIMIZERS``."""
    oc = config.optimizer
    return OPTIMIZERS.create(
        oc.name,
        list(model.parameters()),
        lr=oc.lr,
        momentum=oc.momentum,
        nesterov=oc.nesterov,
        weight_decay=oc.weight_decay,
    )


class Trainer:
    """Train (or fine-tune) a model with eval-per-epoch and early stopping.

    Parameters
    ----------
    model:
        The network to optimize, modified in place.
    dataset:
        A dataset bundle exposing ``train``, ``val``, ``train_transform()``
        and ``eval_transform()`` (all zoo datasets do).
    config:
        Epochs, batch size, optimizer settings, early stopping.
    seed:
        Seeds the data order and augmentation stream.
    masks:
        Optional mask registry enforced after every step (fine-tuning a
        pruned model).
    """

    def __init__(
        self,
        model: Module,
        dataset,
        config: TrainConfig,
        seed: int = 0,
        masks: Optional[MaskRegistry] = None,
    ) -> None:
        self.model = model
        self.dataset = dataset
        self.config = config
        self.seed = seed
        self.masks = masks
        self.history: List[Dict[str, float]] = []
        #: the ``evaluate`` dict of the weights :meth:`run` leaves in the
        #: model: the first best epoch's under ``restore_best``, else the
        #: last epoch's; None until an epoch has run
        self.final_eval: Optional[Dict[str, float]] = None
        self.train_loader = DataLoader(
            dataset.train,
            batch_size=config.batch_size,
            shuffle=True,
            seed=seed,
            transform=dataset.train_transform(),
        )
        self.val_loader = DataLoader(
            dataset.val,
            batch_size=max(config.batch_size, EVAL_BATCH_SIZE),
            shuffle=False,
            seed=seed,
            transform=dataset.eval_transform(),
        )
        self.optimizer = build_optimizer(model, config)
        if masks is not None:
            masks.apply()
            masks.attach(self.optimizer)

    def train_epoch(self) -> float:
        """One pass over the training set; returns mean training loss."""
        self.model.train()
        loss_sum, n = 0.0, 0
        for xb, yb in self.train_loader:
            out = self.model(Tensor(xb))
            loss = cross_entropy(out, yb)
            self.model.zero_grad()
            loss.backward()
            self.optimizer.step()
            loss_sum += loss.item() * len(yb)
            n += len(yb)
        return loss_sum / max(n, 1)

    def run(self) -> List[Dict[str, float]]:
        """Full training run; returns per-epoch history."""
        stopper = (
            EarlyStopping(self.config.early_stop_patience)
            if self.config.early_stop_patience
            else None
        )
        best_state = None
        best_acc = -1.0
        for epoch in range(self.config.epochs):
            train_loss = self.train_epoch()
            val = evaluate(self.model, self.val_loader)
            record = {
                "epoch": epoch,
                "train_loss": train_loss,
                "val_loss": val["loss"],
                "val_top1": val["top1"],
                "val_top5": val.get("top5", float("nan")),
            }
            self.history.append(record)
            if val["top1"] > best_acc:
                best_acc = val["top1"]
                if self.config.restore_best:
                    best_state = self.model.state_dict()
                    self.final_eval = val
            if not self.config.restore_best:
                self.final_eval = val
            if stopper is not None and stopper.update(val["top1"], epoch):
                break
        if best_state is not None:
            self.model.load_state_dict(best_state)
            if self.masks is not None:
                self.masks.apply()  # snapshot predates no masks, but be safe
        return self.history
