"""Moa extensions: named operator bundles pluggable into the algebra.

The paper's logical level has four extensions — video processing / feature
extraction, HMM, DBN, and rules. Each defines Moa-level *structures and
operators*; each operator is supported at the physical level by a MIL
procedure or a MEL module command (Fig. 5 traces one DBN operation through
all three levels).

A :class:`MoaExtension` here declares:

* ``name`` — the extension name used by ``Apply`` nodes,
* ``operators()`` — logical-level operators as Python callables,
* ``monet_module()`` — the optional physical-level MEL module, which a
  :class:`repro.cobra.vdbms.CobraVDBMS` loads into its kernel so the same
  functionality is reachable from MIL.
"""

from __future__ import annotations

import difflib
from typing import Any, Callable, Sequence

from repro.errors import MoaError, MoaNameError
from repro.faults import resolve_injector

__all__ = ["MoaExtension", "ExtensionRegistry"]


class MoaExtension:
    """Base class for logical-level extensions."""

    #: Extension name, used as the namespace in ``Apply`` nodes.
    name: str = "extension"

    def operators(self) -> dict[str, Callable[..., Any]]:
        """Return the operator table (operator name -> callable)."""
        raise NotImplementedError


class ExtensionRegistry:
    """Holds loaded extensions and dispatches ``Apply`` invocations."""

    def __init__(self, faults: Any = None) -> None:
        self._extensions: dict[str, MoaExtension] = {}
        self.faults = resolve_injector(faults)

    def register(self, extension: MoaExtension) -> None:
        if extension.name in self._extensions:
            raise MoaError(f"extension {extension.name!r} already registered")
        self._extensions[extension.name] = extension

    def get(self, name: str) -> MoaExtension:
        try:
            return self._extensions[name]
        except KeyError:
            raise MoaNameError(
                f"unknown extension {name!r}; available: {self.names()}",
                suggestions=difflib.get_close_matches(name, self.names()),
            ) from None

    def names(self) -> list[str]:
        return sorted(self._extensions)

    def operators(self, extension: str) -> list[str]:
        return sorted(self.get(extension).operators())

    def invoke(self, extension: str, operator: str, args: Sequence[Any]) -> Any:
        table = self.get(extension).operators()
        if operator not in table:
            raise MoaNameError(
                f"extension {extension!r} has no operator {operator!r}; "
                f"available: {sorted(table)}",
                suggestions=difflib.get_close_matches(operator, sorted(table)),
            )
        if self.faults.enabled:
            self.faults.on_call(f"moa.invoke:{extension}.{operator}")
        return table[operator](*args)
