"""The durable catalog store: WAL + checkpoint + recovery.

A :class:`DurableStore` owns one directory::

    <store>/
        checkpoint      atomic full-catalog snapshot (see checkpoint.py)
        wal.log         append-only mutation log since that snapshot

Mutations reach the store through two paths. *Auto-commit* operations
(``persist``/``drop`` outside a transaction, PROC definitions, module
registrations) are appended and fsynced individually. *Transactions* are
group-committed: the kernel computes the catalog delta at commit time and
the store writes ``begin`` + delta + ``commit`` as one batch, fsyncing
after the commit marker — the WAL commit boundary of
``MonetKernel.transaction()``. Opening that transaction copies nothing: a
savepoint is each BAT's column lists and row count (the watermark), so a
durable write costs the rows it wrote plus O(#BATs), however large the
catalog already is.

Record ops. A transaction logs what it changed, not what it touched: a
BAT that only grew is one ``append`` record holding rows ``[at, len)``;
``persist`` — the full image — is the fallback for a BAT that is new,
rebound under its name, or was deleted from, replaced in or restored, and
what an auto-commit ``kernel.persist`` writes; ``drop``, ``proc`` and
``module`` are as small as they sound. Checkpoints stay full snapshots,
but the store's :class:`~repro.durability.checkpoint.CheckpointEncoder`
re-encodes only the rows each BAT gained since the last one.
``at`` counts from what the *store* holds, not from where the transaction
began: the store remembers the :meth:`BAT.version` of every image and
delta it made durable (:meth:`DurableStore.rows_logged`), so a mutation
made outside any transaction rides along with the next commit — as rows,
or as the full image of a BAT the store can no longer vouch for — instead
of leaving a gap no replay could bridge.

:func:`replay` is the one place records take effect — crash recovery and
the replicas of :mod:`repro.replication` both call it — and it is
idempotent: ``persist``/``drop``/``proc``/``module`` by construction, an
``append`` by its ``at`` (applied when the BAT holds exactly ``at`` rows,
recognised as already applied when it holds at least ``at + n``, a typed
error otherwise). That is what lets a log that a checkpoint already
subsumes — a crash after the checkpoint's rename, before the truncation —
replay harmlessly. An op it does not know is an error, never skipped: a
skipped delta is lost rows.

:meth:`DurableStore.recover` loads the checkpoint, replays committed WAL
records (discarding any uncommitted batch), truncates torn or corrupt log
tails, verifies the :mod:`repro.check` catalog invariants, and reports
recovery-time metrics on a :class:`RecoveryReport`. A log in the older
``REPROWAL1`` format reads back the same way; :meth:`DurableStore.open`
folds it into a checkpoint before the first new record is written.
"""

from __future__ import annotations

import base64
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    MutableMapping,
    Sequence,
)

from repro.check.catalogcheck import check_catalog
from repro.check.diagnostics import Diagnostic
from repro.durability.checkpoint import (
    Checkpoint,
    CheckpointEncoder,
    checkpoint_from_state,
    pickle_definition,
    read_checkpoint,
    write_checkpoint,
)
from repro.durability.wal import (
    WAL_FORMAT,
    BatchAssembler,
    WriteAheadLog,
    append_record,
    bat_from_payload,
    bat_to_payload,
    decode_column,
    read_records,
    require_directory,
)
from repro.errors import (
    AtomTypeError,
    BatError,
    CatalogCheckError,
    DurabilityError,
    WalCorruptionError,
)
from repro.faults import FaultInjector, FaultPlan, resolve_injector
from repro.monet.bat import BAT

__all__ = [
    "CatalogDelta",
    "DurableStore",
    "RecoveredState",
    "RecoveryReport",
    "WAL_FILE",
    "apply_record",
    "replay",
    "superseded_appends",
]

WAL_FILE = "wal.log"


#: One catalog mutation inside a transaction delta: ``("persist", name,
#: bat)``, ``("append", name, bat, at)`` — rows ``[at, len)`` are new — or
#: ``("drop", name)``.
CatalogDelta = Sequence[tuple]


def apply_record(
    record: dict[str, Any],
    catalog: MutableMapping[str, BAT],
    define: Callable[[str, Any], Any],
    modules: set[str],
    error: type[Exception] = WalCorruptionError,
) -> None:
    """Let one committed record take effect on ``catalog`` (BATs by name),
    ``define(name, definition)`` (PROCs) and ``modules``.

    Idempotent: ``persist`` carries a full image, ``drop`` tolerates
    absence, and ``append`` grows the BAT *in place* only when it holds
    exactly ``at`` rows — at least ``at + n`` rows means the delta is
    already in it. Any other length, a value the BAT's atom types reject
    (the BAT is left as it was), and any op this reader does not know
    raise ``error``.
    """
    op = record["op"]
    if op == "persist":
        name = record["name"]
        with _rebuilding(record, error):
            catalog[name] = bat_from_payload(record["bat"], name=name)
    elif op == "append":
        name, at, tail = record["name"], record["at"], record["tail"]
        bat = catalog.get(name)
        rows = -1 if bat is None else len(bat)
        if rows == at:
            with _rebuilding(record, error):
                bat.append_columns(
                    decode_column(record["head"], bat.head_type),
                    decode_column(tail, bat.tail_type),
                    record["next_oid"],
                )
        elif rows < at + len(tail):
            raise error(
                f"append record for BAT {name!r} holds rows "
                f"[{at}, {at + len(tail)}), which do not continue "
                + ("a BAT that is missing" if bat is None else f"its {rows} row(s)")
            )
    elif op == "drop":
        catalog.pop(record["name"], None)
    elif op == "proc":
        define(record["name"], pickle.loads(base64.b64decode(record["def"])))
    elif op == "module":
        modules.add(record["name"])
    else:
        raise error(f"unknown record op {op!r}: refusing to skip it")


@contextmanager
def _rebuilding(record: dict[str, Any], error: type[Exception]) -> Iterator[None]:
    """Rows the BAT's atom types reject (or that do not pair up) are a
    damaged record: ``error``, never a stray kernel exception."""
    try:
        yield
    except (AtomTypeError, BatError) as exc:
        raise error(
            f"{record['op']} record for BAT {record['name']!r} holds rows "
            f"that do not rebuild: {exc}"
        ) from exc


def superseded_appends(records: Sequence[dict[str, Any]]) -> dict[int, int]:
    """The ``append`` records a later ``persist`` or ``drop`` of the same
    BAT supersedes: the index of each in ``records`` -> the index of the
    last such record."""
    last = {
        record["name"]: index
        for index, record in enumerate(records)
        if record["op"] in ("persist", "drop")
    }
    return {
        index: last[record["name"]]
        for index, record in enumerate(records)
        if record["op"] == "append" and index < last.get(record["name"], -1)
    }


def replay(
    records: Sequence[dict[str, Any]],
    catalog: MutableMapping[str, BAT],
    define: Callable[[str, Any], Any],
    modules: set[str],
    error: type[Exception] = WalCorruptionError,
) -> None:
    """:func:`apply_record` over committed records, in log order.

    An ``append`` that a later ``persist`` or ``drop`` of the same BAT
    supersedes (:func:`superseded_appends`) is passed over instead of
    length-checked: when the log is replayed onto a checkpoint that already
    subsumes it, the BAT is in its *final* state, which such an append need
    not fit — and whatever it did would be overwritten anyway.
    """
    skipped = superseded_appends(records)
    for index, record in enumerate(records):
        if index not in skipped:
            apply_record(record, catalog, define, modules, error)


@dataclass
class RecoveryReport:
    """Metrics and findings of one recovery pass."""

    store: str
    checkpoint_seqno: int = 0
    checkpoint_bats: int = 0
    wal_format: int = WAL_FORMAT
    wal_records: int = 0
    records_replayed: int = 0
    #: Of those, ``append`` row deltas — and the rows they carried.
    appends_replayed: int = 0
    rows_appended: int = 0
    transactions_committed: int = 0
    transactions_discarded: int = 0
    aborts_seen: int = 0
    truncated_bytes: int = 0
    corruption: str | None = None
    bats_recovered: int = 0
    procs_recovered: int = 0
    modules_expected: list[str] = field(default_factory=list)
    duration_seconds: float = 0.0
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing had to be discarded or truncated."""
        return (
            self.truncated_bytes == 0
            and self.transactions_discarded == 0
            and not any(d.severity.name == "ERROR" for d in self.diagnostics)
        )

    def describe(self) -> str:
        lines = [
            f"recovery of {self.store}",
            f"  checkpoint: seqno {self.checkpoint_seqno}, "
            f"{self.checkpoint_bats} BAT(s)",
            f"  wal: format {self.wal_format}, {self.wal_records} record(s), "
            f"{self.records_replayed} replayed "
            f"({self.appends_replayed} append(s) of {self.rows_appended} row(s)), "
            f"{self.transactions_committed} txn(s) committed, "
            f"{self.transactions_discarded} discarded, "
            f"{self.aborts_seen} abort marker(s)",
            f"  tail: {self.truncated_bytes} byte(s) truncated"
            + (f" ({self.corruption})" if self.corruption else ""),
            f"  recovered: {self.bats_recovered} BAT(s), "
            f"{self.procs_recovered} PROC(s), "
            f"modules expected: {self.modules_expected or '[]'}",
            f"  invariants: {len(self.diagnostics)} finding(s)",
            f"  took {self.duration_seconds * 1e3:.2f} ms",
        ]
        lines.extend(f"    {d}" for d in self.diagnostics)
        return "\n".join(lines)


@dataclass
class RecoveredState:
    """What :meth:`DurableStore.recover` hands back to the kernel."""

    catalog: dict[str, BAT]
    definitions: dict[str, Any]  # proc name -> ProcDef AST
    modules: list[str]
    next_txn: int
    report: RecoveryReport


class DurableStore:
    """Write-ahead log + checkpoints for one Monet catalog.

    Args:
        path: store directory (created if missing).
        faults: optional injector consulted at the named crash points
            (``wal.append:*``, ``wal.commit:*``, ``checkpoint:*``).
        fsync: set False to skip fsync calls (fast tests of replay logic).
        auto_checkpoint: when set, :meth:`wants_checkpoint` turns True once
            this many WAL records accumulate — the owning kernel then calls
            :meth:`checkpoint` at its next safe point.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        faults: "FaultInjector | FaultPlan | None" = None,
        fsync: bool = True,
        auto_checkpoint: int | None = None,
    ):
        self.path = require_directory(path)
        self.faults = resolve_injector(faults)
        self._fsync = fsync
        self.auto_checkpoint = auto_checkpoint
        self._wal = WriteAheadLog(
            self.path / WAL_FILE, faults=self.faults, fsync=fsync
        )
        self._seqno = 0
        self._next_txn = 1
        self._records_in_wal = 0
        self._modules: set[str] = set()
        #: BAT name -> the version of the BAT whose rows the store holds
        self._logged: dict[str, tuple[object, int, int]] = {}
        #: remembers the last checkpoint's encoded rows per BAT
        self._encoder = CheckpointEncoder()
        self._opened = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def open(self) -> RecoveredState:
        """Recover the on-disk state, then open the WAL for appending."""
        state = self.recover()
        self._seqno = state.report.checkpoint_seqno
        self._next_txn = state.next_txn
        self._records_in_wal = state.report.wal_records
        self._modules = set(state.modules)
        self._logged = {
            name: bat.version() for name, bat in state.catalog.items()
        }
        self._opened = True
        if state.report.wal_format != WAL_FORMAT:
            # an older log is never appended to: fold it into a checkpoint
            # and start a log in the current format
            self.checkpoint(state.catalog, state.definitions, state.modules)
        self._wal.open()
        return state

    def close(self) -> None:
        self._wal.close()
        self._opened = False

    @property
    def wal_path(self) -> Path:
        return self.path / WAL_FILE

    def wal_size(self) -> int:
        return self._wal.size()

    def wants_checkpoint(self) -> bool:
        return (
            self.auto_checkpoint is not None
            and self._records_in_wal >= self.auto_checkpoint
        )

    # ------------------------------------------------------------------
    # logging (write path)
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if not self._opened:
            raise DurabilityError(
                "store is not open for appending (call open() first)"
            )

    def rows_logged(self, name: str, bat: BAT) -> int | None:
        """How many leading rows of ``bat`` the store already holds under
        ``name`` — given that the BAT has only grown since it logged them,
        so an ``append`` of the rows from there on continues the log.
        ``None`` when it holds nothing under that name, or the BAT was
        rewritten or rebound since, or cannot tell (mutable values)."""
        version = self._logged.get(name)
        return None if version is None else bat.appended_since(version)

    def _rows_record(
        self, name: str, bat: BAT, at: int | None = None
    ) -> tuple[dict[str, Any], tuple[object, int, int]]:
        """The record for rows ``[at, len)`` of ``bat`` (``at=None``: the
        full image), and the version to remember once it is durable. The
        lineage and rewrite counter are read *before* the rows, so a racing
        rewrite can only make the next commit fall back to a full image."""
        lineage, rewrites, _ = bat.version()
        if at is None:
            payload = bat_to_payload(bat)
            record = {"op": "persist", "name": name, "bat": payload}
        else:
            record = payload = append_record(name, bat, at)
        return record, (lineage, rewrites, (at or 0) + len(payload["tail"]))

    def _append(self, record: dict[str, Any]) -> None:
        """One auto-commit record, durable before returning."""
        self._require_open()
        self._wal.append(record)
        self._records_in_wal += 1

    def log_persist(self, name: str, bat: BAT) -> None:
        """Auto-commit record: full image of one persisted BAT."""
        record, version = self._rows_record(name, bat)
        self._append(record)
        self._logged[name] = version

    def log_drop(self, name: str) -> None:
        self._append({"op": "drop", "name": name})
        self._logged.pop(name, None)

    def log_proc(self, name: str, definition: Any) -> None:
        """Auto-commit record: one MIL PROC definition (pickled AST)."""
        blob = base64.b64encode(pickle_definition(definition)).decode("ascii")
        self._append({"op": "proc", "name": name, "def": blob})

    def log_module(self, name: str) -> None:
        """Auto-commit record: a MEL module registration marker."""
        self._require_open()
        if name in self._modules:
            return
        self._modules.add(name)
        self._append({"op": "module", "name": name})

    def log_abort(self) -> int:
        """Audit marker for a rolled-back transaction (nothing to undo:
        transaction records are only written at commit)."""
        txn = self._next_txn
        self._next_txn += 1
        self._append({"op": "abort", "txn": txn})
        return txn

    def commit(self, delta: CatalogDelta) -> int | None:
        """Group-commit one transaction delta; fsync after the marker.

        Returns the transaction id, or None for an empty delta (no-op
        transactions leave no trace in the log).
        """
        self._require_open()
        records = []
        logged = dict(self._logged)  # takes effect once the batch is durable
        for op, name, *rows in delta:
            if op in ("persist", "append"):
                record, logged[name] = self._rows_record(name, *rows)
                records.append(record)
            elif op == "drop":
                records.append({"op": "drop", "name": name})
                logged.pop(name, None)
            else:
                raise DurabilityError(f"unknown delta op {op!r}")
        if not records:
            return None
        txn = self._next_txn
        self._next_txn += 1
        self._wal.commit(txn, records)
        self._records_in_wal += len(records) + 2
        self._logged = logged
        return txn

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(
        self,
        catalog: Mapping[str, BAT],
        definitions: Mapping[str, Any] | None = None,
        modules: Iterable[str] = (),
    ) -> int:
        """Serialize the full state atomically, then truncate the WAL.

        Encoding costs the rows appended since the previous checkpoint
        (the store's :class:`CheckpointEncoder`); the bytes are the whole
        body's. Crash-safe at every step: until the rename the old
        checkpoint + full WAL are authoritative; after the rename the new
        checkpoint subsumes the WAL, whose replay is idempotent until
        truncation. Returns the new checkpoint seqno.
        """
        self._require_open()
        self._seqno += 1
        snapshot = checkpoint_from_state(
            self._seqno,
            catalog,
            definitions or {},
            set(modules) | self._modules,
        )
        write_checkpoint(
            self.path,
            snapshot,
            faults=self.faults,
            fsync=self._fsync,
            encoder=self._encoder,
        )
        self._logged = {
            name: bat.version() for name, bat in snapshot.catalog.items()
        }
        self._wal.truncate()
        self._records_in_wal = 0
        self.faults.on_call("checkpoint:truncated")
        return self._seqno

    # ------------------------------------------------------------------
    # recovery (read path)
    # ------------------------------------------------------------------
    def recover(self, dry_run: bool = False) -> RecoveredState:
        """Rebuild the last committed state from checkpoint + WAL.

        ``dry_run`` skips the physical truncation of torn/corrupt tails
        (used by ``python -m repro.durability verify``, which must not
        modify the store). Raises :class:`repro.errors.RecoveryError` for
        an unreadable checkpoint and
        :class:`repro.errors.CatalogCheckError` when the recovered catalog
        violates the :mod:`repro.check` invariants.
        """
        started = time.perf_counter()
        report = RecoveryReport(store=str(self.path))

        snapshot = read_checkpoint(self.path) or Checkpoint()
        report.checkpoint_seqno = snapshot.seqno
        report.checkpoint_bats = len(snapshot.catalog)

        catalog = dict(snapshot.catalog)
        definitions = snapshot.definitions()
        modules = set(snapshot.modules)

        scan = read_records(self.wal_path) if dry_run else self._wal.recover()
        report.wal_format = scan.format
        report.wal_records = len(scan.records)
        report.corruption = scan.corruption
        report.truncated_bytes = scan.torn_bytes

        batches = BatchAssembler()
        committed = batches.feed(scan.records)
        batches.discard()  # a batch still open at the end never committed
        report.transactions_committed = batches.committed
        report.transactions_discarded = batches.discarded
        report.aborts_seen = batches.aborted
        replay(committed, catalog, definitions.__setitem__, modules)
        report.records_replayed = len(committed)
        appends = [len(r["tail"]) for r in committed if r["op"] == "append"]
        report.appends_replayed = len(appends)
        report.rows_appended = sum(appends)

        report.bats_recovered = len(catalog)
        report.procs_recovered = len(definitions)
        report.modules_expected = sorted(modules)

        invariants = check_catalog(catalog)
        report.diagnostics = list(invariants)
        report.duration_seconds = time.perf_counter() - started
        invariants.raise_if_errors(
            f"recovered catalog of {self.path}", CatalogCheckError
        )
        return RecoveredState(
            catalog=catalog,
            definitions=definitions,
            modules=sorted(modules),
            next_txn=batches.max_txn + 1,
            report=report,
        )

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def compact(self) -> RecoveryReport:
        """Offline compaction: recover, then fold the WAL into a fresh
        checkpoint (``python -m repro.durability compact``)."""
        state = self.recover()
        was_open = self._opened
        self._opened = True
        self._seqno = state.report.checkpoint_seqno
        self._modules = set(state.modules)
        try:
            self.checkpoint(state.catalog, state.definitions, state.modules)
        finally:
            if not was_open:
                self.close()
        return state.report
