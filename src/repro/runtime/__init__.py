"""``repro.runtime`` — the unified, pluggable execution API.

This package is the canonical way to use the library:

>>> import numpy as np
>>> from repro.runtime import Runtime
>>> from repro.core import SimpleLoopKernel
>>> ia = np.array([0, 0, 1, 0, 2])
>>> rt = Runtime(nproc=2)
>>> loop = rt.compile(ia, executor="self", scheduler="local")
>>> report = loop(SimpleLoopKernel(np.ones(5), np.ones(5), ia))
>>> report.x.shape
(5,)
>>> rt.compile(ia, executor="self", scheduler="local").cache_hit
True

Pieces
------
* :class:`Runtime` / :class:`CompiledLoop` / :class:`RunReport` —
  session, reusable compiled loop, normalized execution report;
* :class:`ScheduleCache` — structure-keyed LRU with optional ``.npz``
  persistence, amortising inspection across call sites and runs;
* :class:`ExecutionBackend` and the ``serial`` / ``sim`` / ``threads``
  / ``processes`` backends;
* the strategy registries and their ``register_*`` decorators, through
  which third-party executors, schedulers, partitioners and backends
  plug in without touching core.

Only the registries are imported eagerly (core modules self-register
through them at import time); the session machinery loads on first
attribute access, which keeps ``repro.core ↔ repro.runtime`` imports
acyclic.
"""

from __future__ import annotations

import importlib

from .registry import (
    Registry,
    backend_registry,
    executor_registry,
    partitioner_registry,
    register_backend,
    register_executor,
    register_partitioner,
    register_scheduler,
    scheduler_registry,
)

__all__ = [
    "Runtime",
    "CompiledLoop",
    "LoopPlan",
    "ScheduledPlan",
    "RunReport",
    "ScheduleCache",
    "CacheStats",
    "ExecutionBackend",
    "Registry",
    "executor_registry",
    "scheduler_registry",
    "partitioner_registry",
    "backend_registry",
    "register_executor",
    "register_scheduler",
    "register_partitioner",
    "register_backend",
]

#: Lazily imported attributes (PEP 562): name -> defining submodule.
_LAZY = {
    "Runtime": ".session",
    "CompiledLoop": ".session",
    "LoopPlan": ".session",
    "ScheduledPlan": ".session",
    "RunReport": ".session",
    "ScheduleCache": ".cache",
    "CacheStats": ".cache",
    "ExecutionBackend": ".backends",
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
