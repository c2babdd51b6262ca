"""String-keyed strategy registries — the open dispatch surface.

The paper fixes a closed set of strategies (two schedulers, two
partitions, three executors); "OpenMP Loop Scheduling Revisited"
argues the set should be *open*.  These registries replace the
``if/elif`` chains that used to live in ``core/inspector.py`` and the
executors: every scheduler, partitioner and executor is looked up by
name in a :class:`Registry`, and third-party strategies plug in with a
decorator without touching core::

    from repro.runtime import register_partitioner

    @register_partitioner("alternating")
    def alternating(n, nproc):
        return (np.arange(n) // 2) % nproc

Registered names become immediately valid everywhere a strategy string
is accepted (``Runtime.compile``, ``Inspector``), and unknown names
fail *eagerly* with the currently valid options enumerated.

Parameterized strategy specs
----------------------------
A strategy registered with ``param="kwarg_name"`` metadata accepts an
integer parameter in its lookup string, separated by a colon —
``"chunked:64"`` resolves to the ``chunked`` entry with ``chunk=64``
bound.  Strategies registered with ``params={"kwarg": type, ...}``
metadata additionally accept keyword specs — comma-separated
``key=value`` pairs after the colon, e.g. ``"chunked:chunk=64,align=8"``
or ``"global:weights=work"`` — each value parsed by the declared type
(``int`` or ``str``).  The full spec string participates in
schedule-cache keys, and the parsed binding in registry fingerprints,
so different parameter values never share a cache entry.

Registration contracts
----------------------
* **partitioner** — ``fn(n, nproc) -> owner`` (int array, length ``n``,
  entries in ``[0, nproc)``);
* **scheduler** — ``fn(wf, owner, nproc, *, balance, weights) ->
  Schedule``;
* **executor** — ``fn(inspection, nproc, costs) -> executor`` where the
  executor object provides ``run(kernel)`` / ``simulate(*, unit_work,
  keep_finish_times)`` / ``run_threaded(kernel, *, timeout, timeline)``
  / ``run_processes(kernel, *, timeout)`` — ``simulate`` for the model,
  the rest the entry points the three backends name — and a
  ``schedule`` attribute.
  Metadata ``scheduler_override`` names a scheduler the executor forces
  and ``assignment_override`` an assignment (``doacross`` forces
  ``identity`` and ``wrapped``).
"""

from __future__ import annotations

import functools

from ..errors import ValidationError

__all__ = [
    "Registry",
    "executor_registry",
    "scheduler_registry",
    "partitioner_registry",
    "register_executor",
    "register_scheduler",
    "register_partitioner",
]


class Registry:
    """A named, string-keyed mapping of pluggable strategies.

    Entries carry optional metadata keyword pairs; lookups of unknown
    names raise :class:`~repro.errors.ValidationError` with the valid
    options enumerated (dynamically, so third-party registrations are
    reflected in the message).
    """

    def __init__(self, kind: str):
        #: Human-readable entry kind, used in error messages.
        self.kind = kind
        self._entries: dict[str, object] = {}
        self._metadata: dict[str, dict] = {}
        self._versions: dict[str, int] = {}

    # ------------------------------------------------------------------
    def register(self, name: str, obj=None, /, **metadata):
        """Register ``obj`` under ``name``; usable as a decorator.

        Re-registering a name overwrites the previous entry (so a user
        can shadow a built-in strategy).
        """
        if not isinstance(name, str) or not name:
            raise ValidationError(f"{self.kind} name must be a non-empty string")

        def _install(value):
            self._entries[name] = value
            self._metadata[name] = dict(metadata)
            # Bump the name's generation so anything keyed on the
            # strategy (the ScheduleCache) treats the shadowing
            # registration as a different strategy.
            self._versions[name] = self._versions.get(name, 0) + 1
            return value

        if obj is None:
            return _install
        return _install(obj)

    def _unknown(self, name: str) -> ValidationError:
        return ValidationError(
            f"unknown {self.kind} {name!r}; valid options are: "
            f"{self.options()}"
        )

    def unregister(self, name: str) -> None:
        """Remove an entry (exact names only — specs don't resolve here)."""
        if name not in self._entries:
            raise self._unknown(name)
        del self._entries[name]
        del self._metadata[name]

    def _resolve(self, name: str):
        """Resolve a name or ``base:spec`` string to its base entry.

        Returns ``(base, entry, param_binding)`` where ``param_binding``
        is ``None`` for a plain name and a ``{kwarg: value}`` dict for a
        parameterized spec — either the legacy single-int form
        (``"chunked:64"``, needs ``param`` metadata) or the keyword form
        (``"chunked:chunk=64,align=8"``, needs ``params`` metadata).
        Raises :class:`ValidationError` for unknown names, specs whose
        base entry declares no parameters, unknown keywords, and values
        the declared type refuses to parse.
        """
        entry = self._entries.get(name)
        if entry is not None:
            return name, entry, None
        if isinstance(name, str) and ":" in name:
            base, _, raw = name.partition(":")
            base_entry = self._entries.get(base)
            if base_entry is not None:
                return base, base_entry, self._parse_spec(base, name, raw)
        raise self._unknown(name)

    def _parse_spec(self, base: str, name: str, raw: str) -> dict:
        """Parse the part after the colon of a ``base:spec`` string."""
        meta = self._metadata[base]
        legacy = meta.get("param")
        params: dict = dict(meta.get("params") or {})
        if legacy is not None:
            params.setdefault(legacy, int)
        if not params:
            raise ValidationError(
                f"{self.kind} {base!r} does not accept a parameter "
                f"(got {name!r})"
            )
        if "=" not in raw:
            # Legacy positional form: one bare integer.
            if legacy is None:
                raise ValidationError(
                    f"{self.kind} {base!r} takes keyword parameters "
                    f"({', '.join(sorted(params))}); write "
                    f"{base!r}:key=value, got {name!r}"
                )
            try:
                return {legacy: int(raw)}
            except ValueError:
                raise ValidationError(
                    f"{self.kind} parameter in {name!r} must be an "
                    f"integer, got {raw!r}"
                ) from None
        binding: dict = {}
        for pair in raw.split(","):
            key, eq, value = pair.partition("=")
            key = key.strip()
            if not eq or not key:
                raise ValidationError(
                    f"malformed {self.kind} spec {name!r}: expected "
                    f"comma-separated key=value pairs, got {pair!r}"
                )
            if key not in params:
                raise ValidationError(
                    f"{self.kind} {base!r} accepts no parameter {key!r}; "
                    f"valid parameters are: {', '.join(sorted(params))}"
                )
            if key in binding:
                raise ValidationError(
                    f"duplicate parameter {key!r} in {self.kind} spec {name!r}"
                )
            parse = params[key]
            try:
                binding[key] = parse(value.strip())
            except (TypeError, ValueError):
                raise ValidationError(
                    f"{self.kind} parameter {key!r} in {name!r} must be "
                    f"a {getattr(parse, '__name__', parse)!s}, got "
                    f"{value.strip()!r}"
                ) from None
        return binding

    def binding(self, name: str) -> dict:
        """Parsed parameter binding of a spec (``{}`` for a plain name)."""
        _, _, binding = self._resolve(name)
        return dict(binding) if binding else {}

    def get(self, name: str):
        """Look up ``name`` (or a ``base:param`` spec), raising with the
        valid options on a miss.  Parameterized specs return the base
        entry with the parameter bound as a keyword argument."""
        _, entry, binding = self._resolve(name)
        if binding is None:
            return entry
        return functools.partial(entry, **binding)

    def validate(self, name: str) -> str:
        """Assert ``name`` is registered (same error as :meth:`get`)."""
        self._resolve(name)
        return name

    def fingerprint(self, name: str) -> str:
        """Identity of ``name``'s current implementation, for cache keys.

        Combines the callable's module/qualname/definition line (stable
        across processes, so ``.npz``-persisted schedules survive
        restarts) with the in-process registration generation (so
        shadowing a name — even from a REPL where source locations
        collide — never serves schedules the previous implementation
        built).
        """
        base, obj, binding = self._resolve(name)
        code = getattr(obj, "__code__", None)
        loc = f"@{code.co_firstlineno}" if code is not None else ""
        module = getattr(obj, "__module__", "?")
        qualname = getattr(obj, "__qualname__", type(obj).__name__)
        param = "" if binding is None else f"({sorted(binding.items())})"
        return f"{module}.{qualname}{loc}{param}#v{self._versions[base]}"

    def metadata(self, name: str) -> dict:
        """Metadata keywords attached at registration (copy).

        A ``base:param`` spec resolves to its base entry's metadata.
        """
        base, _, _ = self._resolve(name)
        return dict(self._metadata[base])

    def options(self) -> str:
        """The registered names, rendered for error messages."""
        return ", ".join(repr(k) for k in sorted(self._entries)) or "(none)"

    # ------------------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._entries))

    def __contains__(self, name) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(sorted(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {self.names()})"


#: How a compiled loop executes iterations (self / preschedule / doacross, …).
executor_registry = Registry("executor")
#: How the inspector orders the index set (local / global / identity, …).
scheduler_registry = Registry("scheduler")
#: How indices are initially assigned to processors (wrapped / blocked, …).
partitioner_registry = Registry("assignment")


def register_executor(name: str, obj=None, /, **metadata):
    """Register an executor factory (decorator)."""
    return executor_registry.register(name, obj, **metadata)


def register_scheduler(name: str, obj=None, /, **metadata):
    """Register a scheduler function (decorator)."""
    return scheduler_registry.register(name, obj, **metadata)


def register_partitioner(name: str, obj=None, /, **metadata):
    """Register an initial-assignment partitioner (decorator)."""
    return partitioner_registry.register(name, obj, **metadata)
