"""``repro.tuning`` — autotuning: search the strategy space, cache verdicts.

The paper's Tables 2–5 establish that no fixed executor/scheduler
choice wins every workload; this package turns that observation into
machinery.  Instead of hand-picking ``executor=``/``scheduler=``/
``assignment=``/``balance=`` strings, ask for ::

    rt = Runtime(nproc=16)
    loop = rt.compile(deps, strategy="auto")
    loop.verdict.label()       # e.g. 'preschedule/global[greedy]/wrapped'

and the session searches the registered strategy space — pruning with
the exact machine-model simulator on graph prefixes (successive
halving), the one scorer at every rung — then caches the verdict in a
:class:`TuningStore` keyed on (structure × strategy-space fingerprint
× scoring mode) so the next
structurally identical compile, in this run or a later one, skips the
search — and the wavefront sweep — entirely.

Pieces
------
* :func:`extract_features` / :class:`WorkloadFeatures` — cheap
  structural signatures from inspector by-products;
* :class:`CandidateSpec` / :func:`enumerate_space` /
  :func:`space_fingerprint` — the searchable space over the open
  registries, including the parameterized chunk-profile partitioners;
* :func:`simulate_spec` / :func:`prefix_graph` — scoring one
  candidate's plan (the session's plan builder, never a compiled loop)
  on the machine model, at full size or on a prefix; a
  :class:`Scored` carries the score, the plan and its simulation;
* :class:`Tuner` — deterministic successive halving (a score tie goes
  to the first candidate enumerated), and its
  oracle :meth:`Tuner.exhaustive` (``(score, spec)`` best first);
* :class:`TuningStore` / :class:`TuningVerdict` — persistent,
  self-healing verdict cache.
"""

from __future__ import annotations

from .features import WorkloadFeatures, extract_features
from .measure import Scored, prefix_graph, simulate_spec
from .space import CandidateSpec, enumerate_space, space_fingerprint
from .store import TuningStore, TuningVerdict
from .tuner import ProgramVerdict, Tuner

__all__ = [
    "ProgramVerdict",
    "WorkloadFeatures",
    "extract_features",
    "prefix_graph",
    "Scored",
    "simulate_spec",
    "CandidateSpec",
    "enumerate_space",
    "space_fingerprint",
    "TuningStore",
    "TuningVerdict",
    "Tuner",
]
