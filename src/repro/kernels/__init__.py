"""Pluggable compute-kernel backends for the autograd engine.

The paper's core argument (Blalock et al., MLSys 2020) is that performance
claims are only meaningful inside a shared, controlled harness.  This
package applies that logic to our own hot-path optimizations: all heavy
array math (im2col convolution, pooling, the 2-D affine map, the
elementwise train-step ops) is routed through *one* seam — the active
kernel backend — so every dispatch can be timed in one place and a
Numba/C backend can drop in later without touching autograd.

One backend is registered (``python -m repro ls kernels``): ``reference``,
the NumPy code in :mod:`repro.kernels.reference`.  Its conv gather and
scatter stream through NHWC but stay byte-equal to the original NCHW code
(see that module for the rule that keeps them so, and its one exception).
Rows written by older runs may carry other backend names in
``extra["kernel_backend"]``; they stay readable, but those names no
longer resolve.

Selection (first hit wins):

1. a ``with use_backend(name):`` block (thread-local — executors use this
   so worker threads don't fight over a global);
2. :func:`set_backend` (process-wide, e.g. from the ``--kernel-backend``
   CLI flag);
3. the ``REPRO_KERNEL_BACKEND`` environment variable;
4. the default, ``reference``.

Config precedence across the experiment stack is *env < config < CLI*:
``SweepConfig.executor_options["kernel_backend"]`` overrides the
environment (the executor wraps each cell in :func:`use_backend`), and the
``--kernel-backend`` flag overrides the config.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional, Union

from ..registry import Registry
from .base import KernelBackend
from .reference import ReferenceKernels

__all__ = [
    "KERNELS",
    "KernelBackend",
    "ReferenceKernels",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "resolve_backend",
    "active_backend",
    "active_backend_name",
    "set_backend",
    "use_backend",
]

#: registry of backend factories; ``KERNELS.create(name)`` builds a fresh
#: instance, :func:`resolve_backend` returns the shared singleton.
KERNELS = Registry("kernel backend")

DEFAULT_BACKEND = "reference"
ENV_VAR = "REPRO_KERNEL_BACKEND"


@KERNELS.register("reference")
def _reference() -> ReferenceKernels:
    return ReferenceKernels("reference")


#: per-process singleton instances, so that every dispatch site sees the
#: same object (and a wrapper installed on its methods sees every call)
_INSTANCES: Dict[str, KernelBackend] = {}

#: process-wide default set by :func:`set_backend` (beats the env var)
_PROCESS_DEFAULT: Optional[str] = None

_THREAD = threading.local()


def resolve_backend(name: Union[str, KernelBackend]) -> KernelBackend:
    """The shared singleton instance for ``name`` (KeyError with suggestions)."""
    if isinstance(name, KernelBackend):
        return name
    inst = _INSTANCES.get(name)
    if inst is None:
        inst = _INSTANCES[name] = KERNELS.create(name)
    return inst


def active_backend() -> KernelBackend:
    """The backend every autograd op dispatches through right now."""
    stack = getattr(_THREAD, "stack", None)
    if stack:
        return stack[-1]
    name = _PROCESS_DEFAULT or os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    return resolve_backend(name)


def active_backend_name() -> str:
    """Name of the active backend (recorded in per-cell result metadata)."""
    return active_backend().name


def set_backend(name: Optional[str]) -> None:
    """Set (or with ``None``, clear) the process-wide default backend."""
    global _PROCESS_DEFAULT
    if name is not None:
        resolve_backend(name)  # validate eagerly, not at the first conv
    _PROCESS_DEFAULT = name


class use_backend:
    """Thread-local backend override: ``with use_backend("reference"): ...``.

    ``use_backend(None)`` is a no-op passthrough, which lets call sites
    forward an optional setting without branching.  Enter returns the
    backend that is active inside the block.
    """

    def __init__(self, name: Optional[Union[str, KernelBackend]]) -> None:
        self._name = name

    def __enter__(self) -> KernelBackend:
        self._pushed = self._name is not None
        if self._pushed:
            stack = getattr(_THREAD, "stack", None)
            if stack is None:
                stack = _THREAD.stack = []
            stack.append(resolve_backend(self._name))
        return active_backend()

    def __exit__(self, *exc) -> None:
        if self._pushed:
            _THREAD.stack.pop()
