"""Atom types of the Monet-style kernel.

Monet stores all data in Binary Association Tables (BATs) whose two columns
each carry values of a single *atom* type. This module defines the built-in
atom types from the paper's MIL snippets (``oid``, ``void``, ``int``, ``flt``,
``dbl``, ``str``, ``bit``, ``chr``) and a registry that MEL-style extension
modules can extend with new abstract data types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.errors import AtomTypeError

__all__ = ["Atom", "AtomRegistry", "ATOMS", "atom"]


@dataclass(frozen=True)
class Atom:
    """Description of one atom type.

    Attributes:
        name: MIL-level type name (``"int"``, ``"dbl"``, ...).
        dtype: numpy dtype used for columnar storage; ``object`` for
            variable-size atoms such as strings.
        coerce: converts an arbitrary Python value to the stored form,
            raising :class:`AtomTypeError` on failure.
        null: the sentinel used for missing values in this type.
    """

    name: str
    dtype: np.dtype
    coerce: Callable[[Any], Any]
    null: Any

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Atom({self.name})"


def _coerce_int(value: Any) -> int:
    if isinstance(value, bool):
        raise AtomTypeError(f"cannot store bool {value!r} as int atom")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise AtomTypeError(f"cannot store {value!r} as int atom") from exc


def _coerce_oid(value: Any) -> int:
    converted = _coerce_int(value)
    if converted < 0:
        raise AtomTypeError(f"oid atoms must be non-negative, got {converted}")
    return converted


def _coerce_float(value: Any) -> float:
    try:
        converted = float(value)
    except (TypeError, ValueError) as exc:
        raise AtomTypeError(f"cannot store {value!r} as float atom") from exc
    # A float atom has one nil: the log and checkpoints keep no NaN's sign
    # or payload, so neither may the live column.
    return converted if converted == converted else math.nan


def _coerce_str(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bytes, bytearray)):
        return value.decode("utf-8")
    raise AtomTypeError(f"cannot store {value!r} as str atom")


def _coerce_bit(value: Any) -> bool:
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if value in (0, 1):
        return bool(value)
    raise AtomTypeError(f"cannot store {value!r} as bit atom")


def _coerce_chr(value: Any) -> str:
    text = _coerce_str(value)
    if len(text) != 1:
        raise AtomTypeError(f"chr atoms hold one character, got {text!r}")
    return text


def _coerce_any(value: Any) -> Any:
    return value


class AtomRegistry:
    """Registry mapping atom-type names to :class:`Atom` descriptors."""

    def __init__(self) -> None:
        self._atoms: dict[str, Atom] = {}

    def register(self, atom_type: Atom) -> None:
        """Register an atom type; re-registration of a name is an error."""
        if atom_type.name in self._atoms:
            raise AtomTypeError(f"atom type {atom_type.name!r} already registered")
        self._atoms[atom_type.name] = atom_type

    def get(self, name: str) -> Atom:
        try:
            return self._atoms[name]
        except KeyError:
            raise AtomTypeError(f"unknown atom type {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._atoms

    def names(self) -> list[str]:
        return sorted(self._atoms)


#: Global registry holding the built-in atom types. MEL modules may add to it
#: through :meth:`repro.monet.kernel.MonetKernel.register_atom`.
ATOMS = AtomRegistry()

for _atom in (
    Atom("oid", np.dtype(np.int64), _coerce_oid, -1),
    # ``void`` marks a dense, materialization-free oid sequence; stored the
    # same way when materialized.
    Atom("void", np.dtype(np.int64), _coerce_oid, -1),
    Atom("int", np.dtype(np.int64), _coerce_int, np.iinfo(np.int64).min),
    Atom("flt", np.dtype(np.float32), _coerce_float, np.nan),
    Atom("dbl", np.dtype(np.float64), _coerce_float, np.nan),
    Atom("str", np.dtype(object), _coerce_str, None),
    Atom("bit", np.dtype(np.bool_), _coerce_bit, False),
    Atom("chr", np.dtype(object), _coerce_chr, None),
    # ``any`` is the escape hatch used by extension modules to pass opaque
    # Python objects (e.g. trained model handles) through BATs.
    Atom("any", np.dtype(object), _coerce_any, None),
):
    ATOMS.register(_atom)


def atom(name: str) -> Atom:
    """Look up a built-in atom type by MIL name."""
    return ATOMS.get(name)
