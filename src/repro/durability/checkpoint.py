"""Atomic catalog checkpoints.

A checkpoint is one JSON document holding the full BAT catalog, the pickled
MIL ``ProcDef`` ASTs, and the registered module names, wrapped with a
format tag and a CRC32 over the canonically serialized body::

    {"format": 1, "crc": <crc32>, "body": {"seqno": ..., "catalog": ...}}

The writer encodes the body once, with the C JSON encoder and sorted keys,
takes the CRC over those bytes and writes the document around them in one
``write``. It encodes a BAT at a time, and a :class:`CheckpointEncoder`
kept from the previous checkpoint re-encodes only the rows a BAT gained
since: a checkpoint's encoding costs what was appended, while its bytes —
still a full image — stay exactly those of the whole body encoded at once.
The reader re-encodes the parsed body the same way to check
the CRC, so it also accepts documents whose body keys are in any order —
those written before the body was embedded canonically. Columns of
numeric, bool and string atoms are serialized as they stand; only the
other atoms' values are tagged (:mod:`repro.durability.wal`).

Writing is crash-atomic: serialize to ``checkpoint.tmp``, fsync, rename
over ``checkpoint``, fsync the directory. A reader therefore sees either
the previous checkpoint or the new one, never a torn hybrid; the CRC guards
against bit rot, not torn writes.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.durability.wal import (
    bat_from_payload,
    bat_to_payload,
    fsync_directory,
    rows_payload,
)
from repro.errors import RecoveryError
from repro.faults import FaultInjector
from repro.monet.bat import BAT

__all__ = [
    "CHECKPOINT_NAME",
    "Checkpoint",
    "CheckpointEncoder",
    "read_checkpoint",
    "write_checkpoint",
]

CHECKPOINT_NAME = "checkpoint"
CHECKPOINT_FORMAT = 1


@dataclass
class Checkpoint:
    """A deserialized checkpoint: the durable state at one seqno."""

    seqno: int = 0
    catalog: dict[str, BAT] = field(default_factory=dict)
    #: MIL procedure name -> pickled ProcDef AST (kept pickled until the
    #: kernel replays it, so loading a store never requires the modules).
    procs: dict[str, bytes] = field(default_factory=dict)
    modules: list[str] = field(default_factory=list)

    def definitions(self) -> dict[str, Any]:
        """Unpickled ProcDef ASTs keyed by procedure name."""
        return {name: pickle.loads(blob) for name, blob in self.procs.items()}


def _body(checkpoint: Checkpoint) -> dict[str, Any]:
    return {
        "seqno": checkpoint.seqno,
        "catalog": {
            name: bat_to_payload(bat) for name, bat in checkpoint.catalog.items()
        },
        "procs": {
            name: base64.b64encode(blob).decode("ascii")
            for name, blob in checkpoint.procs.items()
        },
        "modules": sorted(checkpoint.modules),
    }


def _dumps(value: Any) -> str:
    return json.dumps(value, sort_keys=True, allow_nan=True)


def _canonical(body: Mapping[str, Any]) -> bytes:
    return _dumps(body).encode("utf-8")


def _items(values: list[Any]) -> str:
    """A JSON list's encoding without its brackets."""
    return _dumps(values)[1:-1]


def _joined(items: str, more: str) -> str:
    return f"{items}, {more}" if items and more else items or more


#: ``_canonical(bat_to_payload(bat))``, its two columns' items spliced in.
_BAT_TEMPLATE = (
    '{"head": [%s], "head_type": %s, "next_oid": %s, "tail": [%s], "tail_type": %s}'
)
#: How ``_canonical(_body(...))`` begins: ``"catalog"`` is its first key.
_CATALOG_OPEN = '{"catalog": {'


class CheckpointEncoder:
    """Encodes checkpoint bodies, re-encoding only rows appended since
    the last body it encoded.

    It remembers, per BAT name, the :meth:`BAT.version` it encoded and
    the encoded items of both columns. A BAT that has only grown since
    (:meth:`BAT.appended_since`) has rows ``[at, len)`` encoded and
    appended after the remembered items; any other — new, rebound,
    rewritten, rolled back, or of mutable values — is encoded whole. The
    result is byte for byte ``_canonical(_body(checkpoint))``, and a fresh
    encoder (a reopened store) simply encodes everything.
    """

    def __init__(self) -> None:
        self._memo: dict[str, tuple[tuple[object, int, int], str, str]] = {}

    def encode(self, checkpoint: Checkpoint) -> bytes:
        memo: dict[str, tuple[tuple[object, int, int], str, str]] = {}
        bats = []
        for name in sorted(checkpoint.catalog):
            bat = checkpoint.catalog[name]
            # lineage and rewrites read before the rows, as for a WAL delta
            lineage, rewrites, _ = bat.version()
            remembered = self._memo.get(name)
            at = None if remembered is None else bat.appended_since(remembered[0])
            if at is None:
                at, head, tail = 0, "", ""
            else:
                _, head, tail = remembered
            rows = rows_payload(bat, at)
            head = _joined(head, _items(rows["head"]))
            tail = _joined(tail, _items(rows["tail"]))
            memo[name] = ((lineage, rewrites, at + len(rows["tail"])), head, tail)
            bats.append(
                f"{_dumps(name)}: "
                + _BAT_TEMPLATE
                % (
                    head,
                    _dumps(bat.head_type),
                    _dumps(rows["next_oid"]),
                    tail,
                    _dumps(bat.tail_type),
                )
            )
        self._memo = memo
        # everything but the catalog, encoded around an empty one
        frame = _dumps(_body(replace(checkpoint, catalog={})))
        return (
            _CATALOG_OPEN + ", ".join(bats) + frame[len(_CATALOG_OPEN) :]
        ).encode("utf-8")


def write_checkpoint(
    directory: str | Path,
    checkpoint: Checkpoint,
    faults: FaultInjector | None = None,
    fsync: bool = True,
    encoder: CheckpointEncoder | None = None,
) -> Path:
    """Atomically install ``checkpoint`` as ``<directory>/checkpoint``.

    Crash points: ``checkpoint:before`` (nothing written),
    ``checkpoint:temp-written`` (temp file complete, not yet renamed),
    ``checkpoint:replaced`` (renamed over the old checkpoint, but the
    directory entry for the rename is not yet fsynced — power loss here
    may surface either checkpoint, both of which must recover),
    ``checkpoint:renamed`` (rename durable on the directory entry, caller
    has not yet truncated the WAL). All four leave a recoverable store.

    ``encoder`` is the :class:`CheckpointEncoder` that encoded the
    previous checkpoint of the same catalog, so that only rows appended
    since are encoded; without one, every BAT is encoded whole. The
    bytes are the same either way.
    """
    faults = faults if faults is not None else FaultInjector.disabled()
    directory = Path(directory)
    final = directory / CHECKPOINT_NAME
    temp = directory / (CHECKPOINT_NAME + ".tmp")
    # the body is encoded once, canonically: the CRC is over these very
    # bytes, and the document embeds them as they are
    body = (encoder or CheckpointEncoder()).encode(checkpoint)
    header = '{"format": %d, "crc": %d, "body": ' % (
        CHECKPOINT_FORMAT,
        zlib.crc32(body),
    )
    faults.on_call("checkpoint:before")
    with open(temp, "wb") as fh:
        fh.write(b"".join((header.encode("ascii"), body, b"}")))
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    faults.on_call("checkpoint:temp-written")
    os.replace(temp, final)
    faults.on_call("checkpoint:replaced")
    if fsync:
        fsync_directory(directory)
    faults.on_call("checkpoint:renamed")
    return final


def read_checkpoint(directory: str | Path) -> Checkpoint | None:
    """Load the checkpoint, or None when the store has never checkpointed.

    A structurally damaged checkpoint raises :class:`RecoveryError`: the
    write protocol makes torn checkpoints impossible, so damage here means
    real corruption that silent fallback to an empty catalog would hide.
    """
    path = Path(directory) / CHECKPOINT_NAME
    if not path.exists():
        return None
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise RecoveryError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if document.get("format") != CHECKPOINT_FORMAT:
        raise RecoveryError(
            f"checkpoint {path} has unsupported format {document.get('format')!r}"
        )
    body = document.get("body")
    if not isinstance(body, dict):
        raise RecoveryError(f"checkpoint {path} has no body")
    if zlib.crc32(_canonical(body)) != document.get("crc"):
        raise RecoveryError(f"checkpoint {path} failed its CRC check")
    catalog = {
        name: bat_from_payload(payload, name=name)
        for name, payload in body.get("catalog", {}).items()
    }
    procs = {
        name: base64.b64decode(blob)
        for name, blob in body.get("procs", {}).items()
    }
    return Checkpoint(
        seqno=int(body.get("seqno", 0)),
        catalog=catalog,
        procs=procs,
        modules=list(body.get("modules", [])),
    )


def pickle_definition(definition: Any) -> bytes:
    """Pickle one MIL ProcDef AST for WAL/checkpoint storage."""
    return pickle.dumps(definition)


def checkpoint_from_state(
    seqno: int,
    catalog: Mapping[str, BAT],
    definitions: Mapping[str, Any],
    modules: Iterable[str],
) -> Checkpoint:
    """Build a Checkpoint from live kernel state (BATs are deep-copied)."""
    return Checkpoint(
        seqno=seqno,
        catalog={name: bat.copy(name=name) for name, bat in catalog.items()},
        procs={
            name: pickle_definition(definition)
            for name, definition in definitions.items()
        },
        modules=sorted(modules),
    )
