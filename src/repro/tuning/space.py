"""The candidate space — every strategy combination worth trying.

:func:`enumerate_space` crosses the open runtime registries into a
deduplicated list of :class:`CandidateSpec` configurations, with the
structural pruning the registries' own metadata implies:

* executors with a ``scheduler_override`` (``doacross``) vary only
  their assignment;
* schedulers with ``repartitions`` metadata (``global``) rebuild the
  assignment, so the initial one is irrelevant — it is pinned to
  ``wrapped`` instead of multiplying the space by every partitioner;
* schedulers that consume ``balance`` enumerate the options they
  declare via ``balance_options`` metadata — a new balance-consuming
  scheduler joins the space simply by declaring its options at
  registration;
* ``identity`` scheduling is reached through ``doacross`` (a
  pre-scheduled run of an identity schedule would fail phase
  validation), so it is not crossed with the other executors;
* parameterized partitioners (``chunked``, ``guided``, ``factored``,
  ``trapezoid``) contribute spec strings with chunk sizes scaled to
  the workload (``n / nproc``), and any scheduler with a ``weights``
  parameter (``global``) contributes its ``weights=work`` greedy
  variant.

Strategies registered by third parties show up automatically: unknown
schedulers are treated like ``local`` (assignment-preserving) and
unknown partitioners join the assignment list.  Because the space
tracks the registries, :func:`space_fingerprint` — a digest of every
candidate strategy's :meth:`registry fingerprint
<repro.runtime.registry.Registry.fingerprint>` — changes whenever a
strategy is added, removed or shadowed, which is exactly the condition
under which a cached tuning verdict must be re-searched.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime.registry import (
    executor_registry,
    partitioner_registry,
    scheduler_registry,
)
from ..util.digest import structure_digest

__all__ = ["CandidateSpec", "enumerate_space", "space_fingerprint"]


@dataclass(frozen=True)
class CandidateSpec:
    """One point of the search space — the four compile strategy strings."""

    executor: str
    scheduler: str
    assignment: str
    balance: str = "wrapped"

    def compile_kwargs(self) -> dict:
        """Keyword arguments for :meth:`Runtime.compile
        <repro.runtime.session.Runtime.compile>`."""
        return {
            "executor": self.executor,
            "scheduler": self.scheduler,
            "assignment": self.assignment,
            "balance": self.balance,
        }

    def label(self) -> str:
        """Compact human-readable rendering for tables and logs."""
        bal = f"[{self.balance}]" if self.balance != "wrapped" else ""
        return f"{self.executor}/{self.scheduler}{bal}/{self.assignment}"


def _chunk_sizes(n: int, nproc: int) -> tuple[int, ...]:
    """Workload-scaled chunk sizes for the ``chunked`` assignment."""
    coarse = max(n // (nproc * 8), 1)
    sizes = {16, coarse}
    return tuple(sorted(sizes))


def default_assignments(n: int, nproc: int) -> tuple[str, ...]:
    """Assignment specs crossed with assignment-preserving schedulers.

    Registry-driven: the static built-ins, workload-scaled
    parameterized variants of the chunk profiles (``chunked`` sizes,
    a floored ``guided``, a shallower ``trapezoid`` ramp), and any
    third-party partitioner under its plain name.
    """
    names = []
    for name in partitioner_registry.names():
        if name == "chunked":
            names.extend(f"chunked:{c}" for c in _chunk_sizes(n, nproc))
            continue
        names.append(name)
        if name == "guided":
            floor = n // (nproc * 32)
            if floor > 1:
                names.append(f"guided:min={floor}")
        elif name == "trapezoid":
            first = n // (nproc * 4)
            if first > 8:
                names.append(f"trapezoid:first={first},last=8")
    return tuple(names)


def enumerate_space(n: int, nproc: int) -> list[CandidateSpec]:
    """Cross the registries into a deduplicated candidate list: every
    registered executor and scheduler (``identity`` excepted) and
    :func:`default_assignments`, with the metadata-driven pruning
    described in the module docstring."""
    executors = executor_registry.names()
    assignments = default_assignments(n, nproc)
    schedulers = tuple(
        s for s in scheduler_registry.names() if s != "identity"
    )

    out: list[CandidateSpec] = []
    seen: set[CandidateSpec] = set()

    def add(spec: CandidateSpec) -> None:
        if spec not in seen:
            seen.add(spec)
            out.append(spec)

    for executor in executors:
        emeta = executor_registry.metadata(executor)
        override = emeta.get("scheduler_override")
        if override:
            # The executor forces its scheduler (doacross → identity);
            # only the initial assignment remains free — unless the
            # executor pins that too (``fixed_assignment``: the
            # speculative executor ignores assignments entirely, so it
            # contributes exactly one candidate, its no-inspection arm).
            fixed = emeta.get("fixed_assignment")
            for assignment in (fixed,) if fixed else assignments:
                add(CandidateSpec(executor, override, assignment))
            continue
        for scheduler in schedulers:
            meta = scheduler_registry.metadata(scheduler)
            repartitions = meta.get("repartitions", False)
            # A scheduler that consumes ``balance`` enumerates the
            # options it declared at registration; schedulers that
            # ignore it (and third-party ones declaring nothing) are
            # searched under the default only.
            balances: tuple[str, ...] = ()
            if meta.get("consumes_balance", True):
                balances = tuple(meta.get("balance_options") or ())
            balances = balances or ("wrapped",)
            # A repartitioning scheduler makes the initial assignment
            # dead weight — the balance rule (and weight source) is the
            # real knob; assignment-preserving schedulers cross every
            # partitioner instead.
            for assignment in ("wrapped",) if repartitions else assignments:
                for balance in balances:
                    add(CandidateSpec(executor, scheduler, assignment, balance))
            if "weights" in (meta.get("params") or {}):
                # Weighted greedy only makes sense under a balance the
                # scheduler actually accepts; fall back to its first
                # declared option (never emit a candidate that would
                # fail the eager balance validation).
                bal = "greedy" if "greedy" in balances else balances[0]
                add(CandidateSpec(executor, f"{scheduler}:weights=work",
                                  "wrapped", bal))
    return out


def space_fingerprint(candidates: list[CandidateSpec]) -> str:
    """Digest of every candidate strategy's registry fingerprint.

    Any registration event that changes the space — a new partitioner
    appearing in :func:`enumerate_space`'s output, a shadowed scheduler
    bumping its generation — changes this digest, so verdicts keyed on
    it are invalidated exactly when the search they summarize is stale.
    """
    parts = {f"b:{spec.balance}" for spec in candidates}
    for tag, registry, field in (("e", executor_registry, "executor"),
                                 ("s", scheduler_registry, "scheduler"),
                                 ("a", partitioner_registry, "assignment")):
        # Each distinct name once: a space names a few dozen bundles
        # over a handful of strategies.
        for name in {getattr(spec, field) for spec in candidates}:
            parts.add(f"{tag}:{name}={registry.fingerprint(name)}")
    return structure_digest(params=tuple(sorted(parts)))
