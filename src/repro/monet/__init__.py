"""Monet-style binary-relational kernel (the paper's physical level).

Public surface:

* :class:`~repro.monet.bat.BAT` — the binary association table.
* :class:`~repro.monet.kernel.MonetKernel` — catalog + MIL + modules + pool.
* :class:`~repro.monet.module.MonetModule` / :func:`~repro.monet.module.command`
  — MEL-style extension modules.
* :mod:`~repro.monet.mil` — the MIL interpreter (also usable standalone).
"""

from repro.monet.atoms import ATOMS, Atom, atom
from repro.monet.bat import BAT, new_bat
from repro.monet.kernel import MonetKernel
from repro.monet.mil import MilInterpreter, parse, tokenize
from repro.monet.module import MonetModule, command
from repro.monet.parallel import ParallelExecutor

__all__ = [
    "ATOMS",
    "Atom",
    "atom",
    "BAT",
    "new_bat",
    "MonetKernel",
    "MilInterpreter",
    "parse",
    "tokenize",
    "MonetModule",
    "command",
    "ParallelExecutor",
]
