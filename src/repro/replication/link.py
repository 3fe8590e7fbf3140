"""The WAL-shipping link between a primary store and its replicas.

A :class:`ReplicationLink` reads the primary's on-disk durable store — the
same checkpoint + WAL files crash recovery reads — and turns a replica's
:class:`ReplicaPosition` into a :class:`Shipment`: either an incremental
WAL tail (the common case) or a full catch-up (checkpoint snapshot + the
WAL tail after it) when the position no longer matches the primary's
lineage. Two events invalidate a position:

* the primary checkpointed (``base_seqno`` mismatch) — the WAL the replica
  was tailing has been folded into a new snapshot and truncated;
* the group failed over (``epoch`` mismatch) — the replica was tracking a
  deposed primary and must re-seed from the new one.

The link never touches a live kernel object: shipping reads only durable
bytes, so a crashed ("killed") primary can still be drained of everything
that survived on disk during failover, and a torn tail left by the crash
is naturally excluded (``read_records`` stops at the first bad record,
exactly as recovery would).

Shipping tails the log. A position carries the byte ``offset`` its
``records_consumed`` records end at, so :meth:`ReplicationLink.fetch` and
:meth:`ReplicationLink.backlog` decode only the bytes the primary wrote
since — the cost of a pump follows the size of the new commits, not of
the log — and the checkpoint file is parsed again only when its ``stat``
signature (inode, size, mtime) says it was replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.durability.checkpoint import (
    CHECKPOINT_NAME,
    Checkpoint,
    read_checkpoint,
)
from repro.durability.store import WAL_FILE
from repro.durability.wal import WalScan, read_records

__all__ = ["ReplicaPosition", "ReplicationLink", "Shipment"]


@dataclass(frozen=True)
class ReplicaPosition:
    """How far into the primary's durable lineage a replica has consumed.

    ``epoch`` is the group epoch the position was established under,
    ``base_seqno`` the checkpoint seqno the applied state is based on, and
    ``records_consumed`` the count of WAL records consumed since that
    checkpoint (consumed, not applied: uncommitted transaction records are
    consumed into a pending buffer and only applied at their commit
    marker). ``offset`` is where those records end in the primary's WAL
    file — the same place as ``records_consumed``, in the unit the link
    resumes reading from, so it takes no part in comparisons. The sentinel
    default never matches a live primary, so a fresh replica's first fetch
    is always a full catch-up.
    """

    epoch: int = -1
    base_seqno: int = -1
    records_consumed: int = 0
    offset: int = field(default=0, compare=False)


@dataclass
class Shipment:
    """One pump round's payload for one replica."""

    #: Full checkpoint to install first (catch-up rounds only).
    snapshot: Checkpoint | None
    #: WAL records to consume, in append order.
    records: list[dict[str, Any]] = field(default_factory=list)
    #: The replica's position after consuming this shipment.
    position: ReplicaPosition = field(default_factory=ReplicaPosition)
    #: True when the position had to be re-seeded from the checkpoint.
    catchup: bool = False
    #: Durable records that exist on the primary but were NOT shipped
    #: (withheld by a ``lag`` fault) — the replica's lag after this round.
    remaining: int = 0


class ReplicationLink:
    """Reads one primary store directory and computes shipments."""

    def __init__(self, store_path: str | Path):
        self.store_path = Path(store_path)
        self._snapshot = Checkpoint()
        self._snapshot_stat: tuple[int, int, int] | None = None

    def _checkpoint(self) -> Checkpoint:
        """The primary's checkpoint, parsed once per file: checkpoints are
        installed by rename, so a new one is a new inode."""
        try:
            stat = (self.store_path / CHECKPOINT_NAME).stat()
        except FileNotFoundError:
            signature = None
        else:
            signature = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
        if signature != self._snapshot_stat:
            self._snapshot = read_checkpoint(self.store_path) or Checkpoint()
            self._snapshot_stat = signature
        return self._snapshot

    def _tail(
        self, position: ReplicaPosition, epoch: int
    ) -> tuple[Checkpoint | None, WalScan]:
        """The WAL past ``position`` — or, when the position is off the
        primary's lineage, the checkpoint to re-seed from and the whole
        WAL after it."""
        snapshot = self._checkpoint()
        wal = self.store_path / WAL_FILE
        if position.epoch != epoch or position.base_seqno != snapshot.seqno:
            return snapshot, read_records(wal)
        return None, read_records(wal, start=position.offset)

    def fetch(
        self, position: ReplicaPosition, epoch: int, withhold: int = 0
    ) -> Shipment:
        """The shipment that advances ``position`` toward the primary.

        ``epoch`` is the group's current epoch (stamped into the returned
        position); ``withhold`` keeps that many of the newest records back,
        modelling a lagging link without severing it.
        """
        snapshot, scan = self._tail(position, epoch)
        if snapshot is not None:
            position = ReplicaPosition(epoch, snapshot.seqno)
        shipped = max(0, len(scan.records) - max(withhold, 0))
        return Shipment(
            snapshot=snapshot,
            records=scan.records[:shipped],
            position=ReplicaPosition(
                epoch,
                position.base_seqno,
                position.records_consumed + shipped,
                scan.ends[shipped - 1] if shipped else position.offset,
            ),
            catchup=snapshot is not None,
            remaining=len(scan.records) - shipped,
        )

    def backlog(self, position: ReplicaPosition, epoch: int) -> int:
        """Durable records the replica has not consumed (lag accounting for
        partitioned rounds, where nothing can actually ship)."""
        snapshot, scan = self._tail(position, epoch)
        if snapshot is not None:
            # the position is off-lineage: everything must re-ship
            return len(scan.records) + len(snapshot.catalog) + len(snapshot.procs)
        return len(scan.records)
