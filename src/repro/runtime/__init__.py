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
  session, reusable compiled loop, normalized execution report; the
  ``serial`` / ``threads`` / ``processes`` backends are the three
  entry points of a loop's executor, picked by name in
  :meth:`LoopPlan.execute` (a closed set);
* :class:`ScheduleCache` — structure-keyed LRU with optional ``.npz``
  persistence, amortising inspection across call sites and runs;
* the strategy registries and their ``register_*`` decorators, through
  which third-party executors, schedulers and partitioners plug in
  without touching core.

Only the registries are imported eagerly (core modules self-register
through them at import time); the session machinery loads on first
attribute access, which keeps ``repro.core ↔ repro.runtime`` imports
acyclic.
"""

from __future__ import annotations

import importlib

from .registry import (
    Registry,
    executor_registry,
    partitioner_registry,
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
    "Registry",
    "executor_registry",
    "scheduler_registry",
    "partitioner_registry",
    "register_executor",
    "register_scheduler",
    "register_partitioner",
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
