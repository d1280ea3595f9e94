"""Generic named-component registry.

The paper's central reproducibility recommendation is that experiments be
identified "in a structured way": exact architectures, datasets, metrics and
hyperparameters referenced by name so results are comparable and reusable.
This module is the single mechanism behind every such name → component
mapping in the codebase.  One :class:`Registry` instance exists per
component family:

===========  ==================================  =======================
Registry     Lives in                            Registers
===========  ==================================  =======================
MODELS       :mod:`repro.models.registry`        architecture factories
DATASETS     :mod:`repro.experiment.datasets`    dataset-bundle builders
STRATEGIES   :mod:`repro.pruning.strategies`     pruning strategies
SCHEDULES    :mod:`repro.pruning.schedule`       pruning schedules
OPTIMIZERS   :mod:`repro.optim`                  optimizer builders
EXECUTORS    :mod:`repro.experiment.executor`    sweep executors
===========  ==================================  =======================

Usage::

    MODELS = Registry("model")

    @MODELS.register("resnet-20")
    def resnet20(**kwargs): ...

    MODELS.create("resnet-20", width_scale=0.5)   # instantiate
    MODELS.get("resnet-20")                       # the raw factory
    MODELS.available()                            # sorted names
    "resnet-20" in MODELS                         # membership

Unknown names raise ``KeyError`` with the full list of registered names and
close-match suggestions ("did you mean ...?").  Re-registering a taken name
raises ``ValueError`` unless ``override=True`` is passed, so two libraries
can't silently shadow each other's components.

Registries also implement the read side of the ``Mapping`` protocol
(``[]``, ``in``, ``len``, iteration, ``items``/``keys``/``values``,
``setdefault``), so a registry can be indexed and iterated like a dict.
"""

from __future__ import annotations

import difflib
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Registry"]


class Registry:
    """A name → component mapping with helpful errors and safe registration.

    Parameters
    ----------
    kind:
        Human-readable singular noun for error messages ("model",
        "strategy", ...).
    entries:
        Optional initial ``{name: component}`` mapping.
    """

    def __init__(self, kind: str, entries: Optional[Dict[str, Any]] = None) -> None:
        self.kind = kind
        self._entries: Dict[str, Any] = {}
        for name, obj in (entries or {}).items():
            self._register(name, obj, override=False)

    # -- registration ----------------------------------------------------
    def register(
        self,
        name: Optional[str] = None,
        obj: Any = None,
        *,
        override: bool = False,
    ):
        """Register a component, directly or as a decorator.

        Either ``REG.register("name", component)`` or::

            @REG.register("name")
            def component(...): ...

        With no explicit name, a decorated component is registered under its
        ``name`` attribute (pruning strategies carry one) or ``__name__``.
        ``override=True`` replaces an existing entry instead of raising.
        """
        if obj is None:
            # bare ``@REG.register`` — name is actually the component
            if callable(name) and not isinstance(name, str):
                component = name
                self._register(_default_name(component), component, override)
                return component

            def decorator(component):
                key = name if name is not None else _default_name(component)
                self._register(key, component, override)
                return component

            return decorator
        self._register(name, obj, override)
        return obj

    def _register(self, name: Any, obj: Any, override: bool) -> None:
        if not isinstance(name, str) or not name:
            raise TypeError(
                f"{self.kind} registry keys must be non-empty strings, got {name!r}"
            )
        if name in self._entries and not override:
            raise ValueError(
                f"{self.kind} {name!r} already registered "
                f"(pass override=True to replace it)"
            )
        self._entries[name] = obj

    def unregister(self, name: str) -> Any:
        """Remove and return an entry (KeyError with suggestions if absent)."""
        obj = self.get(name)
        del self._entries[name]
        return obj

    # -- lookup ----------------------------------------------------------
    def get(self, name: str) -> Any:
        """The registered component, or KeyError naming close matches."""
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(self.unknown_message(name)) from None

    def create(self, name: str, *args, **kwargs) -> Any:
        """Look up ``name`` and call it with the given arguments."""
        return self.get(name)(*args, **kwargs)

    def available(self) -> List[str]:
        """Sorted registered names."""
        return sorted(self._entries)

    def unknown_message(self, name: Any) -> str:
        msg = f"unknown {self.kind} {name!r}; available: {self.available()}"
        close = difflib.get_close_matches(str(name), list(self._entries), n=3)
        if close:
            msg += f" — did you mean {', '.join(repr(c) for c in close)}?"
        return msg

    # -- Mapping protocol ------------------------------------------------
    def __getitem__(self, name: str) -> Any:
        return self.get(name)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self):
        return self._entries.keys()

    def values(self):
        return self._entries.values()

    def items(self):
        return self._entries.items()

    def setdefault(self, name: str, obj: Any) -> Any:
        if name not in self._entries:
            self._register(name, obj, override=False)
        return self._entries[name]

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {self.available()})"


def _default_name(component: Any) -> Any:
    name = getattr(component, "name", None)
    if isinstance(name, str) and name:
        return name
    return getattr(component, "__name__", None)
