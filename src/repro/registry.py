"""Named component registries: one mechanism behind every ``*Spec``.

Each interchangeable algorithm — scheduler, layout, replacement
policy, admission policy, arrival process, access model, router,
placement, prefix policy, sharing policy — is selected by name from a
:class:`Registry` of its *kind*.  A registry keeps its entries in
registration order, rejects names that are not non-empty strings, and
raises the one unknown-name error every spec reports::

    unknown scheduler 'x'; choose from ('fcfs', 'elevator', ...)

:data:`REGISTRIES` maps each kind to its registry.
"""

from __future__ import annotations

import typing

T = typing.TypeVar("T")


class Registry(typing.Generic[T]):
    """Entries of one *kind*, by name, in registration order."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.entries: dict[str, T] = {}
        REGISTRIES[kind] = self

    def check_name(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise ValueError(
                f"{self.kind} name must be a non-empty string, got {name!r}"
            )

    def register(self, name: str, entry: T) -> None:
        """Make *name* select *entry* (replacing any earlier entry)."""
        self.check_name(name)
        self.entries[name] = entry

    def names(self) -> tuple[str, ...]:
        """Every registered name (registration order)."""
        return tuple(self.entries)

    def lookup(self, name: str) -> T:
        """The entry *name* selects; ValueError when none does."""
        try:
            return self.entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; choose from {self.names()}"
            ) from None


#: kind -> its registry, in import order.
REGISTRIES: dict[str, Registry] = {}
