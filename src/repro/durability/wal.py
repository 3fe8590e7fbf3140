"""The append-only, checksummed write-ahead log.

File layout::

    REPROWAL2\\n                      10-byte magic header
    [u32 length][u32 crc32][payload]  repeated; big-endian, crc over payload

Payloads are JSON dictionaries with an ``op`` field. Catalog values that
JSON cannot carry natively (opaque ``any``-atom objects, pickled MIL
``ProcDef`` ASTs) are tagged ``{"__pickle__": <base64>}``; everything else
stays human-readable for ``python -m repro.durability inspect``.

The magic is the format rule. ``REPROWAL2`` logs may hold row deltas
(``append`` records, :func:`append_record`); ``REPROWAL1`` logs, written
before deltas existed, hold full BAT images only. The reader accepts both
and reports which it saw (:attr:`WalScan.format`); the writer stamps only
``REPROWAL2`` and refuses to open a ``REPROWAL1`` file for appending, so
an old reader can never meet a delta it would skip — the store folds such
a log into a checkpoint first (:meth:`DurableStore.open`).

Write semantics: an *auto-commit* record (:meth:`WriteAheadLog.append`) is
written and fsynced on its own; a *transaction* (:meth:`commit`) is written
as one ``begin`` + delta records + ``commit`` batch, fsynced after the
commit marker — a batch without its commit marker is discarded on replay.
The writer deliberately splits each auto-commit record into two OS writes
around a named crash point so the chaos harness can manufacture genuinely
torn records.

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
from typing import IO, Any, Iterable

from repro.errors import DurabilityError, WalCorruptionError
from repro.faults import FaultInjector
from repro.monet.bat import BAT

__all__ = [
    "LEGACY_MAGIC",
    "MAGIC",
    "WAL_FORMAT",
    "WalScan",
    "WriteAheadLog",
    "append_record",
    "bat_from_payload",
    "bat_to_payload",
    "decode_record",
    "decode_value",
    "encode_record",
    "encode_value",
    "fsync_directory",
    "read_records",
]

MAGIC = b"REPROWAL2\n"
#: Header of logs written before row deltas: full BAT images only.
LEGACY_MAGIC = b"REPROWAL1\n"
#: Format number per magic; the writer's is :data:`WAL_FORMAT`.
_FORMATS = {LEGACY_MAGIC: 1, MAGIC: 2}
WAL_FORMAT = _FORMATS[MAGIC]
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


def _rows_payload(bat: BAT, start: int) -> dict[str, Any]:
    heads, tails, next_oid = bat.columns(start)
    return {
        "head": [encode_value(v) for v in heads],
        "tail": [encode_value(v) for v in tails],
        "next_oid": next_oid,
    }


def bat_to_payload(bat: BAT) -> dict[str, Any]:
    return {
        "head_type": bat.head_type,
        "tail_type": bat.tail_type,
        **_rows_payload(bat, 0),
    }


def append_record(name: str, bat: BAT, at: int) -> dict[str, Any]:
    """The row delta of a BAT that only grew: rows ``[at, len)``."""
    return {"op": "append", "name": name, "at": at, **_rows_payload(bat, at)}


def bat_from_payload(payload: dict[str, Any], name: str | None = None) -> BAT:
    return BAT.from_columns(
        payload["head_type"],
        payload["tail_type"],
        [decode_value(v) for v in payload["head"]],
        [decode_value(v) for v in payload["tail"]],
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
    """Result of scanning a WAL file.

    Attributes:
        records: every structurally valid record from the start offset on,
            in append order.
        valid_length: byte offset up to which the file is trustworthy.
        file_length: actual byte length of the file on disk.
        corruption: human-readable reason scanning stopped early (``None``
            when the whole file was valid).
        ends: byte offset just past each record, parallel to ``records`` —
            the start offset that resumes the scan after it.
        format: the format the magic header declares (:data:`WAL_FORMAT`
            for a missing or empty file, which the writer would create).
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


def read_records(path: str | Path, start: int = 0) -> WalScan:
    """Scan a WAL file, stopping at the first torn or corrupt record.

    ``start`` resumes an earlier scan: a byte offset that scan reported
    (one of :attr:`WalScan.ends`, or its ``valid_length``); only the bytes
    from there on are read and decoded. Offsets in the result stay
    absolute.
    """
    path = Path(path)
    if not path.exists():
        return WalScan([], 0, 0)
    begin = max(start, len(MAGIC))
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        size = fh.seek(0, os.SEEK_END)
        fh.seek(begin)
        data = fh.read()
    if not magic:
        return WalScan([], 0, 0)
    if magic not in _FORMATS:
        if len(magic) < len(MAGIC) and MAGIC.startswith(magic):
            # crash while writing the header of a brand-new log
            return WalScan([], 0, len(magic), corruption="torn magic header")
        raise WalCorruptionError(
            f"{path} does not start with the WAL magic header"
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
        records, offset, end, corruption, ends=ends, format=_FORMATS[magic]
    )


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


class WriteAheadLog:
    """Append-only writer over one WAL file.

    ``faults`` is consulted at the named crash points (``wal.append:*``,
    ``wal.commit:*``) so a chaos plan with ``kind="kill"`` can terminate
    the "process" between any two physical write steps; ``fsync=False``
    trades durability for speed in tests that only exercise replay logic.
    """

    def __init__(
        self,
        path: str | Path,
        faults: FaultInjector | None = None,
        fsync: bool = True,
    ):
        self.path = Path(path)
        self._faults = faults if faults is not None else FaultInjector.disabled()
        self._fsync = fsync
        self._file: IO[bytes] | None = None
        self._records_written = 0

    # -- file lifecycle -------------------------------------------------
    def open(self) -> None:
        if self._file is not None:
            return
        existed = self.path.exists()
        is_new = not existed or self.path.stat().st_size == 0
        if not is_new:
            with open(self.path, "rb") as fh:
                magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                # whoever reads this log by its magic would skip an
                # ``append`` record, i.e. lose rows
                raise DurabilityError(
                    f"{self.path} is not a {MAGIC[:-1].decode()} log and "
                    f"cannot be appended to; DurableStore.open() folds an "
                    f"older log into a checkpoint first"
                )
        self._file = open(self.path, "ab")
        if is_new:
            self._file.write(MAGIC)
            self._file.flush()
            self._sync()
            if not existed and self._fsync:
                # fsyncing the file makes its *contents* durable; a freshly
                # created file also needs its directory entry persisted, or
                # power loss can lose the whole log despite every record
                # fsync that follows
                fsync_directory(self.path.parent)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    @property
    def records_written(self) -> int:
        """Records appended through this writer since open/truncate."""
        return self._records_written

    def truncate(self, length: int | None = None) -> None:
        """Physically truncate the file (to empty-with-header by default);
        a writer that was open is open again afterwards."""
        was_open = self._file is not None
        self.close()
        with open(self.path, "r+b" if self.path.exists() else "wb") as fh:
            fh.truncate(len(MAGIC) if length is None else length)
            if length is None:
                fh.seek(0)
                fh.write(MAGIC)
            fh.flush()
            os.fsync(fh.fileno())
        self._records_written = 0
        if was_open:
            self.open()

    def _sync(self) -> None:
        assert self._file is not None
        if self._fsync:
            os.fsync(self._file.fileno())

    def _require_open(self) -> IO[bytes]:
        if self._file is None:
            self.open()
        assert self._file is not None
        return self._file

    # -- appending ------------------------------------------------------
    def append(self, record: dict[str, Any]) -> None:
        """Write one auto-commit record, durable before returning.

        Crash points: ``wal.append:before`` (nothing written),
        ``wal.append:mid`` (record torn in half — recovery truncates),
        ``wal.append:written`` (record complete, not yet fsynced),
        ``wal.append:synced`` (fully durable).
        """
        fh = self._require_open()
        self._faults.on_call("wal.append:before")
        data = encode_record(record)
        split = len(data) // 2
        fh.write(data[:split])
        fh.flush()
        self._faults.on_call("wal.append:mid")
        fh.write(data[split:])
        fh.flush()
        self._faults.on_call("wal.append:written")
        self._sync()
        self._records_written += 1
        self._faults.on_call("wal.append:synced")

    def commit(
        self, txn_id: int, records: Iterable[dict[str, Any]]
    ) -> None:
        """Write one transaction as a begin + records + commit batch.

        The batch only becomes visible to replay once its ``commit`` marker
        is on disk — a crash at ``wal.commit:begin`` or ``wal.commit:mid``
        leaves an uncommitted prefix that recovery discards.
        """
        fh = self._require_open()
        body = [{"op": "begin", "txn": txn_id}, *records]
        self._faults.on_call("wal.commit:begin")
        fh.write(b"".join(encode_record(r) for r in body))
        fh.flush()
        self._faults.on_call("wal.commit:mid")
        fh.write(encode_record({"op": "commit", "txn": txn_id}))
        fh.flush()
        self._faults.on_call("wal.commit:marker")
        self._sync()
        self._records_written += len(body) + 1
        self._faults.on_call("wal.commit:synced")

    def size(self) -> int:
        if not self.path.exists():
            return 0
        return self.path.stat().st_size


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
