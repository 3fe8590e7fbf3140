"""A read replica: applied WAL state, lag accounting, promotion.

A :class:`Replica` holds an internal store-less :class:`MonetKernel` whose
catalog is the replication apply target. Shipments are applied with the
same semantics as crash recovery (:meth:`DurableStore.recover`) — and by
the same two pieces, :class:`repro.durability.wal.BatchAssembler` and
:func:`repro.durability.store.replay`: auto-commit records apply
immediately, a transaction's records once its commit marker arrives, and a
batch whose marker never ships (the primary died mid-commit, or a ``lag``
fault withheld the tail) stays pending across pumps — and is discarded on
promotion, exactly as recovery discards an uncommitted batch.

An ``append`` record grows the replica's BAT *in place*, so the
accelerators queries built on it survive a pump and only catch up on the
new rows. A reader must nevertheless build a fresh
:class:`repro.cobra.metadata.MetadataStore` over :attr:`Replica.kernel`
per read: a ``persist`` record (the full-image fallback) *replaces* the
BAT object in the catalog, so a cached metadata view would silently keep
serving the old BATs.
"""

from __future__ import annotations

from pathlib import Path

from repro.durability.checkpoint import Checkpoint
from repro.durability.store import replay
from repro.durability.wal import BatchAssembler
from repro.errors import ReplicationError
from repro.monet.bat import BAT
from repro.monet.kernel import MonetKernel
from repro.replication.link import ReplicaPosition, Shipment

__all__ = ["Replica"]


class Replica:
    """One read replica of a kernel group.

    Args:
        name: group-unique replica name (also its fault-site suffix).
        path: directory the replica will promote its durable store into.
    """

    def __init__(self, name: str, path: str | Path):
        self.name = name
        self.path = Path(path)
        #: Store-less serving kernel; its catalog is the apply target.
        self.kernel = MonetKernel(threads=1, check="off")
        self.position = ReplicaPosition()
        #: Carries an uncommitted transaction batch between pumps.
        self._batches = BatchAssembler()
        #: Admin-severed link (fault-injected partitions are per-round).
        self.partitioned = False
        #: Module names shipped via ``module`` records.
        self.modules: set[str] = set()
        #: Durable primary records not yet consumed, as of the last pump
        #: (the group's pump sets it).
        self.lag_records = 0
        self.records_applied = 0
        self.snapshots_installed = 0
        self.promoted = False

    # ------------------------------------------------------------------
    # applying shipments
    # ------------------------------------------------------------------
    def apply_shipment(self, shipment: Shipment) -> int:
        """Consume one shipment; returns the records applied (not buffered)."""
        if self.promoted:
            raise ReplicationError(
                f"replica {self.name!r} was promoted and no longer applies"
            )
        if shipment.snapshot is not None:
            self._install_snapshot(shipment.snapshot)
        committed = self._batches.feed(shipment.records)
        try:
            replay(
                committed,
                self.kernel.catalog,
                lambda name, definition: self.kernel.interpreter.define_proc(
                    definition, check="off"
                ),
                self.modules,
                error=ReplicationError,
            )
        except ReplicationError:
            # half a shipment may have landed: forget the position, so the
            # next pump re-seeds from the checkpoint instead of resuming
            self.position = ReplicaPosition()
            self._batches.discard()
            raise
        self.records_applied += len(committed)
        self.position = shipment.position
        return len(committed)

    def _install_snapshot(self, snapshot: Checkpoint) -> None:
        """Re-seed the replica from a full checkpoint (catch-up rounds)."""
        self._batches.discard()  # off-lineage pending records are garbage
        for name in self.kernel.catalog_names():
            self.kernel.drop(name)
        for name in sorted(snapshot.catalog):
            # a copy: the link hands every replica the same parsed
            # checkpoint, and this one's appends land in place
            self.kernel.persist(name, snapshot.catalog[name].copy())
        for name, definition in sorted(snapshot.definitions().items()):
            # procs are never dropped, so redefining over survivors is
            # exactly the recovery semantics; checks off: the defining
            # modules live on the primary, not here
            self.kernel.interpreter.define_proc(definition, check="off")
        self.modules = set(snapshot.modules)
        self.snapshots_installed += 1

    @property
    def has_pending(self) -> bool:
        """Whether an uncommitted transaction batch is buffered."""
        return self._batches.open

    def catalog(self) -> dict[str, BAT]:
        """Deep copy of the applied catalog (for convergence checks)."""
        return self.kernel.snapshot()

    # ------------------------------------------------------------------
    # promotion
    # ------------------------------------------------------------------
    def promote(self, fsync: bool = True) -> MonetKernel:
        """Turn the applied state into a new durable primary.

        Builds a :class:`DurableStore` at :attr:`path`, replays the applied
        catalog into it as one transaction, re-defines the shipped PROCs
        (WAL-logged via the interpreter's define hook), records the module
        expectations, and folds it all into a checkpoint so the new
        lineage starts with an empty WAL. Any pending uncommitted batch is
        discarded first — the deposed primary never committed it. The new
        primary checks MIL defined on it later in ``"warn"`` mode.
        """
        from repro.durability.store import DurableStore

        if self.promoted:
            raise ReplicationError(f"replica {self.name!r} already promoted")
        store = DurableStore(self.path, fsync=fsync)
        if (self.path / "checkpoint").exists() or store.wal_size() > 0:
            raise ReplicationError(
                f"refusing to promote {self.name!r} into non-empty store "
                f"directory {self.path}"
            )
        self._batches.discard()
        kernel = MonetKernel(threads=1, check="warn", store=store)
        snapshot = self.kernel.snapshot()
        if snapshot:
            with kernel.transaction():
                for name in sorted(snapshot):
                    kernel.persist(name, snapshot[name])
        for name, procedure in sorted(
            self.kernel.interpreter.procedures.items()
        ):
            kernel.interpreter.define_proc(procedure.definition, check="off")
        for module in sorted(self.modules):
            store.log_module(module)
        kernel.checkpoint()
        self.promoted = True
        return kernel
