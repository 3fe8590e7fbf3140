"""The record log: an append-only, checksummed file of JSON records.

One framing serves every journal in the repo. File layout::

    <magic>\\n                        10-byte header naming the log's kind
    [u32 length][u32 crc32][payload]  repeated; big-endian, crc over payload

Payloads are JSON dictionaries with an ``op`` field. Values that JSON
cannot carry natively (opaque ``any``-atom objects, pickled MIL
``ProcDef`` ASTs) are tagged ``{"__pickle__": <base64>}``; everything else
stays human-readable for ``python -m repro.durability inspect``. Which
columns may hold a tag is decided by their atom type, on write and on
read alike: the numeric, bool and string atoms never do.

:class:`RecordLog` is the writer: a persistent handle, one fsync per
record, four named kill points around the two halves of each record so the
chaos harnesses can manufacture genuinely torn records, and a scan that
*physically* cuts a torn tail off before the first append. Its two users
are told apart by magic and kill-site prefix: the catalog WAL
(:class:`WriteAheadLog`, ``REPROWAL2``, ``wal.append:*`` plus the
``wal.commit:*`` sites of its transaction batches) and the sharded
fleet's placement journal (``REPROJNL1``, ``journal.append:*``).

The magic is the format rule. ``REPROWAL2`` logs may hold row deltas
(``append`` records, :func:`append_record`); ``REPROWAL1`` logs, written
before deltas existed, hold full BAT images only. The reader accepts both
and reports which it saw (:attr:`WalScan.format`); the writer stamps only
the newest magic of its kind and refuses to open any other file for
appending, so an old reader can never meet a delta it would skip — the
store folds such a log into a checkpoint first (:meth:`DurableStore.open`).
A file under a foreign header (a WAL handed to the journal's reader, a
JSON-lines ``placements.log`` from before ``REPROJNL1``) raises
:class:`WalCorruptionError`; it never reads as an empty log.

A WAL *transaction* (:meth:`WriteAheadLog.commit`) is one ``begin`` +
delta records + ``commit`` batch, fsynced after the commit marker;
:class:`BatchAssembler` is the one reader of that grammar — recovery, the
replicas and ``inspect`` feed it records and get back those in effect.

Read semantics (:func:`read_records`): records are scanned until EOF or the
first structurally bad record (short header, length past EOF, CRC or JSON
failure). Everything from the bad record on is untrustworthy — the reader
reports the last valid offset so recovery can truncate the tail.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Iterable, Sequence

from repro.errors import DurabilityError, WalCorruptionError
from repro.faults import FaultInjector
from repro.monet.bat import BAT

__all__ = [
    "BatchAssembler",
    "JOURNAL_MAGIC",
    "LEGACY_MAGIC",
    "MAGIC",
    "RecordLog",
    "WAL_FORMAT",
    "WAL_MAGICS",
    "WalScan",
    "WriteAheadLog",
    "append_record",
    "bat_from_payload",
    "bat_to_payload",
    "decode_column",
    "decode_record",
    "decode_value",
    "encode_record",
    "encode_value",
    "fsync_directory",
    "read_records",
    "rows_payload",
]

MAGIC = b"REPROWAL2\n"
#: Header of logs written before row deltas: full BAT images only.
LEGACY_MAGIC = b"REPROWAL1\n"
#: The WAL's headers, oldest first: a log's format number is its header's
#: position here, counted from 1, and the writer stamps the last.
WAL_MAGICS = (LEGACY_MAGIC, MAGIC)
WAL_FORMAT = len(WAL_MAGICS)
#: Header of the sharded fleet's placement journal (``placements.log``).
JOURNAL_MAGIC = b"REPROJNL1\n"
_HEADER = struct.Struct(">II")  # (payload length, crc32 of payload)

#: Upper bound on one record's payload; a length field above this is treated
#: as corruption rather than an allocation request.
MAX_RECORD_BYTES = 1 << 28


# ---------------------------------------------------------------------------
# value / record codec
# ---------------------------------------------------------------------------

def encode_value(value: Any) -> Any:
    """JSON-encodable form of one atom value (tagged pickle as fallback)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # numpy scalars sneak in through tail arrays and coercions
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "shape", None) == ():
        return item()
    return {"__pickle__": base64.b64encode(pickle.dumps(value)).decode("ascii")}


def decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "__pickle__" in value:
        return pickle.loads(base64.b64decode(value["__pickle__"]))
    return value


#: Atoms whose coerced values already are JSON scalars (``int``, ``float``,
#: ``str``, ``bool``): their columns are written and read as they stand.
#: Only the other atoms' columns go through :func:`encode_value` and
#: :func:`decode_value` — so a tagged pickle in a ``str`` or ``dbl`` column
#: reaches the atom's coercion as the dict it is, and is rejected there.
_JSON_NATIVE_ATOMS = frozenset({"oid", "void", "int", "flt", "dbl", "str", "bit", "chr"})


def _encode_column(values: list[Any], atom: str) -> list[Any]:
    if atom in _JSON_NATIVE_ATOMS:
        return values
    return [encode_value(v) for v in values]


def decode_column(values: list[Any], atom: str) -> list[Any]:
    """The stored values of one serialized column of atom type ``atom``."""
    if atom in _JSON_NATIVE_ATOMS:
        return values
    return [decode_value(v) for v in values]


def rows_payload(bat: BAT, start: int = 0) -> dict[str, Any]:
    """Rows ``[start, len)`` of ``bat`` and its oid counter, serialized:
    ``{"head": [...], "tail": [...], "next_oid": n}``."""
    heads, tails, next_oid = bat.columns(start)
    return {
        "head": _encode_column(heads, bat.head_type),
        "tail": _encode_column(tails, bat.tail_type),
        "next_oid": next_oid,
    }


def bat_to_payload(bat: BAT) -> dict[str, Any]:
    return {
        "head_type": bat.head_type,
        "tail_type": bat.tail_type,
        **rows_payload(bat),
    }


def append_record(name: str, bat: BAT, at: int) -> dict[str, Any]:
    """The row delta of a BAT that only grew: rows ``[at, len)``."""
    return {"op": "append", "name": name, "at": at, **rows_payload(bat, at)}


def bat_from_payload(payload: dict[str, Any], name: str | None = None) -> BAT:
    head_type, tail_type = payload["head_type"], payload["tail_type"]
    return BAT.from_columns(
        head_type,
        tail_type,
        decode_column(payload["head"], head_type),
        decode_column(payload["tail"], tail_type),
        next_oid=payload.get("next_oid", 0),
        name=name,
    )


def encode_record(record: dict[str, Any]) -> bytes:
    """Frame one record: length + crc32 header, JSON payload."""
    payload = json.dumps(record, separators=(",", ":"), allow_nan=True).encode(
        "utf-8"
    )
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_record(payload: bytes) -> dict[str, Any]:
    return json.loads(payload.decode("utf-8"))


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------


@dataclass
class WalScan:
    """Result of scanning a record-log file.

    Attributes:
        records: every structurally valid record from the start offset on,
            in append order.
        valid_length: byte offset up to which the file is trustworthy.
        file_length: actual byte length of the file on disk.
        corruption: human-readable reason scanning stopped early (``None``
            when the whole file was valid).
        ends: byte offset just past each record, parallel to ``records`` —
            the start offset that resumes the scan after it.
        format: position (from 1) of the file's magic among the accepted
            ones — the newest for a missing or empty file, which the
            writer would create.
    """

    records: list[dict[str, Any]]
    valid_length: int
    file_length: int
    corruption: str | None = None
    ends: list[int] = field(default_factory=list)
    format: int = WAL_FORMAT

    @property
    def torn_bytes(self) -> int:
        return self.file_length - self.valid_length


def read_records(
    path: str | Path, start: int = 0, magics: Sequence[bytes] = WAL_MAGICS
) -> WalScan:
    """Scan a record log, stopping at the first torn or corrupt record.

    ``magics`` are the headers the caller accepts, oldest first; any other
    header raises :class:`WalCorruptionError`. ``start`` resumes an earlier
    scan: a byte offset that scan reported (one of :attr:`WalScan.ends`, or
    its ``valid_length``); only the bytes from there on are read and
    decoded. Offsets in the result stay absolute.
    """
    path = Path(path)
    newest = magics[-1]
    if not path.exists():
        return WalScan([], 0, 0, format=len(magics))
    begin = max(start, len(newest))
    with open(path, "rb") as fh:
        magic = fh.read(len(newest))
        size = fh.seek(0, os.SEEK_END)
        fh.seek(begin)
        data = fh.read()
    if not magic:
        return WalScan([], 0, 0, format=len(magics))
    if magic not in magics:
        if len(magic) < len(newest) and newest.startswith(magic):
            # crash while writing the header of a brand-new log
            return WalScan(
                [], 0, len(magic), "torn magic header", format=len(magics)
            )
        raise WalCorruptionError(
            f"{path} does not start with the magic header of a "
            f"{newest[:-1].decode()} log"
        )
    if start > size:
        raise WalCorruptionError(
            f"{path} is {size} byte(s) long, shorter than the resume offset {start}"
        )
    end = begin + len(data)
    records: list[dict[str, Any]] = []
    ends: list[int] = []
    offset = begin
    corruption: str | None = None
    while offset < end:
        if offset + _HEADER.size > end:
            corruption = f"torn record header at offset {offset}"
            break
        length, crc = _HEADER.unpack_from(data, offset - begin)
        body = offset + _HEADER.size
        if length > MAX_RECORD_BYTES:
            corruption = f"implausible record length {length} at offset {offset}"
            break
        if body + length > end:
            corruption = f"torn record payload at offset {offset}"
            break
        payload = data[body - begin : body - begin + length]
        if zlib.crc32(payload) != crc:
            corruption = f"checksum mismatch at offset {offset}"
            break
        try:
            record = decode_record(payload)
        except (ValueError, UnicodeDecodeError):
            corruption = f"undecodable payload at offset {offset}"
            break
        if not isinstance(record, dict) or "op" not in record:
            corruption = f"malformed record (no op) at offset {offset}"
            break
        records.append(record)
        offset = body + length
        ends.append(offset)
    return WalScan(
        records, offset, end, corruption, ends, magics.index(magic) + 1
    )


class BatchAssembler:
    """The one reader of the WAL's transaction grammar.

    :meth:`feed` takes records in log order — the whole log or a shipment
    at a time, the open batch is carried across calls — and returns those
    in effect: auto-commit records at once, a ``begin`` batch when its
    ``commit`` marker arrives. A batch the next ``begin`` supersedes lost
    its marker to a crash and is discarded, as is one the caller gives up
    on (:meth:`discard`). ``abort`` is an audit marker for nothing logged.
    """

    def __init__(self) -> None:
        self._pending: list[dict[str, Any]] | None = None
        self.committed = 0
        self.discarded = 0
        self.aborted = 0
        #: Highest transaction id seen on a ``begin`` or ``abort`` marker.
        self.max_txn = 0

    @property
    def open(self) -> bool:
        """Whether a batch is waiting for its commit marker."""
        return self._pending is not None

    def feed(self, records: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
        effective: list[dict[str, Any]] = []
        for record in records:
            op = record["op"]
            if op == "begin":
                self.discard()
                self._pending = []
                self.max_txn = max(self.max_txn, int(record.get("txn", 0)))
            elif op == "commit":
                if self._pending is not None:
                    effective.extend(self._pending)
                    self.committed += 1
                    self._pending = None
            elif op == "abort":
                self.aborted += 1
                self.max_txn = max(self.max_txn, int(record.get("txn", 0)))
            elif self._pending is not None:
                self._pending.append(record)
            else:
                effective.append(record)
        return effective

    def discard(self) -> None:
        """Give up on the open batch, if any."""
        if self._pending is not None:
            self._pending = None
            self.discarded += 1


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


class RecordLog:
    """Append-only writer over one record-log file.

    ``magics`` are the headers of this kind of log, oldest first — read
    any, stamp the last; ``site`` prefixes the crash points
    (``<site>.append:*``) at which ``faults`` is consulted, so a chaos plan
    with ``kind="kill"`` can terminate the "process" between any two
    physical write steps; ``fsync=False`` trades durability for speed in
    tests that only exercise replay logic.
    """

    def __init__(
        self,
        path: str | Path,
        magics: Sequence[bytes],
        site: str,
        faults: FaultInjector | None = None,
        fsync: bool = True,
    ):
        self.path = Path(path)
        self._magics = tuple(magics)
        self.magic = self._magics[-1]
        self._sites = [
            f"{site}.append:{step}"
            for step in ("before", "mid", "written", "synced")
        ]
        self._faults = faults if faults is not None else FaultInjector.disabled()
        self._fsync = fsync
        self._file: IO[bytes] | None = None
        #: Known to end on a record boundary (:meth:`recover` ran).
        self._clean = False

    # -- file lifecycle -------------------------------------------------
    def recover(self) -> WalScan:
        """Scan the whole file and cut a torn or corrupt tail off it, so
        the next append lands where a reader will find it."""
        scan = read_records(self.path, magics=self._magics)
        if scan.torn_bytes:
            self.truncate(scan.valid_length or None)
        self._clean = True
        return scan

    def open(self) -> IO[bytes]:
        """The handle appends go through, opened (behind a recovered
        tail, stamping the header of a new file) on first use."""
        if self._file is not None:
            return self._file
        if not self._clean:
            self.recover()
        existed = self.path.exists()
        is_new = not existed or self.path.stat().st_size == 0
        if not is_new:
            with open(self.path, "rb") as fh:
                magic = fh.read(len(self.magic))
            if magic != self.magic:
                # whoever reads this log by its magic would skip a record
                # only the newest format has (the WAL's ``append``: rows)
                raise DurabilityError(
                    f"{self.path} is not a {self.magic[:-1].decode()} log and "
                    f"cannot be appended to; DurableStore.open() folds an "
                    f"older log into a checkpoint first"
                )
        self._file = fh = open(self.path, "ab")
        if is_new:
            fh.write(self.magic)
            fh.flush()
            self._sync(fh)
            if not existed and self._fsync:
                # fsyncing the file makes its *contents* durable; a freshly
                # created file also needs its directory entry persisted, or
                # power loss can lose the whole log despite every record
                # fsync that follows
                fsync_directory(self.path.parent)
        return fh

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def truncate(self, length: int | None = None) -> None:
        """Physically truncate the file (to empty-with-header by default);
        a writer that was open is open again afterwards."""
        was_open = self._file is not None
        self.close()
        with open(self.path, "r+b" if self.path.exists() else "wb") as fh:
            fh.truncate(len(self.magic) if length is None else length)
            if length is None:
                fh.seek(0)
                fh.write(self.magic)
            fh.flush()
            os.fsync(fh.fileno())
        if was_open:
            self.open()

    def _sync(self, fh: IO[bytes]) -> None:
        if self._fsync:
            os.fsync(fh.fileno())

    # -- appending ------------------------------------------------------
    def append(self, record: dict[str, Any]) -> None:
        """Write one record, durable before returning.

        Crash points: ``<site>.append:before`` (nothing written),
        ``:mid`` (record torn in half — recovery truncates), ``:written``
        (record complete, not yet fsynced), ``:synced`` (fully durable).
        """
        fh = self.open()
        before, mid, written, synced = self._sites
        self._faults.on_call(before)
        data = encode_record(record)
        split = len(data) // 2
        fh.write(data[:split])
        fh.flush()
        self._faults.on_call(mid)
        fh.write(data[split:])
        fh.flush()
        self._faults.on_call(written)
        self._sync(fh)
        self._faults.on_call(synced)

    def size(self) -> int:
        if not self.path.exists():
            return 0
        return self.path.stat().st_size


class WriteAheadLog(RecordLog):
    """The catalog WAL: a record log whose records may form transactions.
    An *auto-commit* record (:meth:`append`) stands on its own; a
    :meth:`commit` batch takes effect only whole (:class:`BatchAssembler`)."""

    def __init__(
        self,
        path: str | Path,
        faults: FaultInjector | None = None,
        fsync: bool = True,
    ):
        super().__init__(path, WAL_MAGICS, "wal", faults=faults, fsync=fsync)

    def commit(
        self, txn_id: int, records: Iterable[dict[str, Any]]
    ) -> None:
        """Write one transaction as a begin + records + commit batch.

        The batch only becomes visible to replay once its ``commit`` marker
        is on disk — a crash at ``wal.commit:begin`` or ``wal.commit:mid``
        leaves an uncommitted prefix that recovery discards.
        """
        fh = self.open()
        body = [{"op": "begin", "txn": txn_id}, *records]
        self._faults.on_call("wal.commit:begin")
        fh.write(b"".join(encode_record(r) for r in body))
        fh.flush()
        self._faults.on_call("wal.commit:mid")
        fh.write(encode_record({"op": "commit", "txn": txn_id}))
        fh.flush()
        self._faults.on_call("wal.commit:marker")
        self._sync(fh)
        self._faults.on_call("wal.commit:synced")


def require_directory(path: str | Path) -> Path:
    """Create/verify a store directory (shared by store and CLI)."""
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise DurabilityError(f"store path {path} exists and is not a directory")
    path.mkdir(parents=True, exist_ok=True)
    return path


def fsync_directory(directory: str | Path) -> None:
    """Persist a directory's entries (file creations and renames).

    An fsync of a file does not cover the directory entry that names it:
    after creating or renaming a file, the parent directory must itself be
    fsynced or power loss can unlink the file despite its durable contents.
    """
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
