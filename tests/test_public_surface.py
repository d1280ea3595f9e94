"""The public surface: every exported name resolves, once, and each job has
one name.

A sweep is built from a :class:`~repro.experiment.SweepConfig`, run by
``run_config`` or ``python -m repro run``, and filtered through
:class:`~repro.analysis.ResultFrame`; components come from the
``MODELS``/``DATASETS``/``STRATEGIES`` registries.  The names below were
second ways to do those jobs and are gone for good.
"""

import importlib
import importlib.util
import pkgutil

import repro
from repro.experiment import ResultSet

GONE = {
    "repro.models": ("create_model", "register_model", "available_models",
                     "MODEL_REGISTRY"),
    "repro.experiment": ("build_dataset", "available_datasets",
                         "DATASET_REGISTRY", "run_sweep", "aggregate_curve"),
    "repro.pruning": ("create_strategy", "STRATEGY_REGISTRY"),
    "repro.registry": ("warn_deprecated",),
}


def test_every_all_name_resolves_once():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    problems = []
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        repeated = sorted({n for n in exported if exported.count(n) > 1})
        missing = [n for n in exported if not hasattr(module, n)]
        if repeated:
            problems.append(f"{name}.__all__ repeats {repeated}")
        if missing:
            problems.append(f"{name}.__all__ names missing {missing}")
    assert len(names) > 50  # the walk really saw the package
    assert not problems, "\n".join(problems)


def test_second_names_are_gone():
    left = [
        f"{module}.{attr}"
        for module, attrs in GONE.items()
        for attr in attrs
        if hasattr(importlib.import_module(module), attr)
    ]
    assert not left, left
    assert not hasattr(ResultSet, "filter")


def test_flag_style_sweep_cli_is_gone():
    assert importlib.util.find_spec("repro.experiment.sweep") is None
