"""Generic named-strategy registry.

Three name→implementation tables share this helper: the RTT kernel
backends (:mod:`repro.perf.kernels`), the scheduling policy factory
(:mod:`repro.sched.registry`) and the device-window policies
(:mod:`repro.server.aqm`).  :class:`Registry` is the name→value dict,
case-insensitive registration, and the "unknown name" error listing the
alternatives, once.

A registry only names things; it does not select them.  Which entry a
run uses follows from the call's inputs (a policy name, a
:class:`~repro.stack.RunConfig` field, a ``backend=`` argument or the
input size), never from process-global state.
"""

from __future__ import annotations

from typing import Dict, Generic, Tuple, TypeVar

from ..exceptions import ConfigurationError

T = TypeVar("T")


class Registry(Generic[T]):
    """Named values with a uniform "unknown name" error.

    ``kind`` is the human-readable noun used in error messages ("kernel
    backend", "aqm window policy", "policy").
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: Dict[str, T] = {}

    def register(self, name: str, value: T | None = None):
        """Register ``value`` under ``name``.

        Usable directly (``registry.register("fcfs", factory)``) or as a
        decorator (``@registry.register("fcfs")``).  Re-registering a
        name replaces the entry, which is how tests install doubles.
        """
        key = name.strip().lower()
        if value is None:

            def decorator(fn: T) -> T:
                self._entries[key] = fn
                return fn

            return decorator
        self._entries[key] = value
        return value

    def names(self) -> Tuple[str, ...]:
        """Registered entry names, in registration order."""
        return tuple(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def get(self, name: str) -> T:
        """The registered value for ``name``."""
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; choose from {sorted(self._entries)}"
            ) from None
