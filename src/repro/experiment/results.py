"""Experiment results: records, persistence, aggregation.

Implements the paper's reporting recommendations (§6): every result row
carries raw accuracy (not just deltas), both compression ratio and
theoretical speedup, Top-1 and Top-5, the unpruned control, and the seed —
so means and standard deviations across seeds are always computable.

:class:`PruningResult` (the row) and :class:`ResultSet` (the transport
container: collect/persist/load) are the stable interchange format; the
*analysis* surface — filtering, grouping, aggregation, curves — lives in
the columnar :class:`repro.analysis.ResultFrame`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional

from ..utils.jsonio import json_text

__all__ = ["PruningResult", "ResultSet", "CurvePoint"]


@dataclass
class PruningResult:
    """One (model, dataset, strategy, compression, seed) outcome."""

    model: str
    dataset: str
    strategy: str
    compression: float  # target whole-model compression
    seed: int
    # -- size / compute metrics --------------------------------------------
    actual_compression: float = 1.0
    theoretical_speedup: float = 1.0
    total_params: int = 0
    nonzero_params: int = 0
    dense_flops: float = 0.0
    effective_flops: float = 0.0
    # -- quality metrics -----------------------------------------------------
    baseline_top1: float = 0.0  # unpruned control (the same initial model)
    baseline_top5: float = 0.0
    pre_finetune_top1: float = 0.0
    pre_finetune_top5: float = 0.0
    top1: float = 0.0  # after fine-tuning
    top5: float = 0.0
    # -- provenance ---------------------------------------------------------
    pretrained_key: str = ""
    finetune_epochs_ran: int = 0
    extra: Dict = field(default_factory=dict)

    @property
    def delta_top1(self) -> float:
        """Change in Top-1 vs the unpruned control (§4.5 near-universal metric)."""
        return self.top1 - self.baseline_top1

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict) -> "PruningResult":
        known = {k: d[k] for k in cls.__dataclass_fields__ if k in d}
        return cls(**known)


class ResultSet:
    """A collection of :class:`PruningResult`: collect, persist, load.

    Analysis goes through :meth:`to_frame`.
    """

    def __init__(self, results: Optional[Iterable[PruningResult]] = None) -> None:
        self.results: List[PruningResult] = list(results or [])

    # -- collection ---------------------------------------------------------
    def add(self, result: PruningResult) -> None:
        self.results.append(result)

    def extend(self, other: "ResultSet") -> None:
        self.results.extend(other.results)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[PruningResult]:
        return iter(self.results)

    # -- queries -------------------------------------------------------------
    def to_frame(self):
        """The columnar :class:`repro.analysis.ResultFrame` over these rows."""
        from ..analysis.frame import ResultFrame

        return ResultFrame.from_results(self)

    def strategies(self) -> List[str]:
        return sorted({r.strategy for r in self.results})

    def compressions(self) -> List[float]:
        return sorted({r.compression for r in self.results})

    def seeds(self) -> List[int]:
        return sorted({r.seed for r in self.results})

    # -- persistence -----------------------------------------------------------
    def save(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json_text([r.to_dict() for r in self.results]))

    @classmethod
    def load(cls, path) -> "ResultSet":
        data = json.loads(Path(path).read_text())
        return cls(PruningResult.from_dict(d) for d in data)


@dataclass
class CurvePoint:
    """One x-position of a tradeoff curve, aggregated over seeds."""

    x: float
    mean: float
    std: float
    n: int

