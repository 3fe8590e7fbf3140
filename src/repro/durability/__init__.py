"""Durability and crash recovery for the Monet catalog.

The paper's Monet kernel is a real DBMS with persistent BATs; the
reproduction's catalog was purely in-memory until this package added the
classic recoverability stack:

* :mod:`repro.durability.wal` — the record log (append-only, CRC32 and
  length framed, fsynced, named crash points) under the write-ahead log
  and the sharded fleet's placement journal, and the WAL's batch grammar;
* :mod:`repro.durability.checkpoint` — atomic (write-temp, fsync, rename)
  full-catalog checkpoints that truncate the log, encoding only the rows
  appended since the previous one;
* :mod:`repro.durability.store` — the :class:`DurableStore` façade tying
  the two together, with :meth:`DurableStore.recover` rebuilding the last
  committed state and reporting recovery-time metrics, and
  :func:`apply_record` / :func:`replay`, the one place a log record takes
  effect (recovery and replicas both call it).

The ``durability`` scenario of :mod:`repro.chaos` proves the guarantees by
killing at every crash point and recovering.

Opt in through the kernel::

    kernel = MonetKernel(store="state/catalog")   # recovers, then logs
    with kernel.transaction():                    # WAL commit boundary
        kernel.persist("laps", laps)
    kernel.checkpoint()                           # fold WAL into checkpoint

Inspect a store from the command line::

    python -m repro.durability inspect state/catalog
    python -m repro.durability verify  state/catalog
    python -m repro.durability compact state/catalog
"""

from repro.durability.checkpoint import (
    Checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.durability.store import (
    DurableStore,
    RecoveredState,
    RecoveryReport,
    apply_record,
    replay,
)
from repro.durability.wal import WalScan, WriteAheadLog, read_records

__all__ = [
    "Checkpoint",
    "DurableStore",
    "RecoveredState",
    "RecoveryReport",
    "WalScan",
    "WriteAheadLog",
    "apply_record",
    "read_checkpoint",
    "read_records",
    "replay",
    "write_checkpoint",
]
