"""Inspect, verify, and compact durable catalog stores.

Usage::

    python -m repro.durability inspect <store-dir>   # dump checkpoint + WAL
    python -m repro.durability inspect <log-file>    # dump one record log
    python -m repro.durability verify  <store-dir>   # read-only recovery
    python -m repro.durability compact <store-dir>   # fold WAL -> checkpoint

``verify`` exits non-zero when the store is unrecoverable, the recovered
catalog violates the :mod:`repro.check` invariants, or catalogcheck
reports *any* CAT finding (warnings included) — so CI can gate on a clean
store.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any

from repro.durability.checkpoint import read_checkpoint
from repro.durability.store import WAL_FILE, DurableStore
from repro.durability.wal import JOURNAL_MAGIC, BatchAssembler, read_records
from repro.errors import CatalogCheckError, DurabilityError, ReproError


def _describe(record: dict[str, Any]) -> str:
    op = record["op"]
    if op == "persist":
        payload = record.get("bat", {})
        return (
            f" {record.get('name')!r} "
            f"BAT[{payload.get('head_type')},{payload.get('tail_type')}] "
            f"({len(payload.get('head', []))} associations)"
        )
    if op == "append":
        return (
            f" {record.get('name')!r} at {record.get('at')} "
            f"(+{len(record.get('tail', []))} row(s))"
        )
    if "txn" in record:  # a batch marker
        return f" txn {record['txn']}"
    if "name" in record:
        return f" {record['name']!r}"
    return "".join(
        f" {key}={value!r}" for key, value in record.items() if key != "op"
    )


def _cmd_inspect(args: argparse.Namespace) -> int:
    target = Path(args.store)
    log = target
    if target.is_dir():
        log = target / WAL_FILE
        checkpoint = read_checkpoint(target)
        if checkpoint is None:
            print("checkpoint: (none)")
        else:
            print(f"checkpoint: seqno {checkpoint.seqno}")
            for name in sorted(checkpoint.catalog):
                bat = checkpoint.catalog[name]
                print(f"  {bat!r}")
            for name in sorted(checkpoint.procs):
                print(f"  PROC {name} ({len(checkpoint.procs[name])} pickled bytes)")
            if checkpoint.modules:
                print(f"  modules: {', '.join(checkpoint.modules)}")
    journal = False
    if log.is_file():
        with open(log, "rb") as fh:
            journal = fh.read(len(JOURNAL_MAGIC)) == JOURNAL_MAGIC
    if journal:
        # its ``commit``/``abort`` records are placement ops, not batch
        # markers: every record stands alone
        scan = read_records(log, magics=(JOURNAL_MAGIC,))
        in_effect = {id(record) for record in scan.records}
        print(
            f"placement journal: {len(scan.records)} record(s), "
            f"{scan.valid_length} valid byte(s) of {scan.file_length}"
        )
    else:
        scan = read_records(log)
        in_effect = {id(r) for r in BatchAssembler().feed(scan.records)}
        appends = [r for r in scan.records if r.get("op") == "append"]
        print(
            f"wal: format {scan.format}, {len(scan.records)} record(s) "
            f"({len(appends)} append(s) of "
            f"{sum(len(r.get('tail', [])) for r in appends)} row(s)), "
            f"{scan.valid_length} valid byte(s) of {scan.file_length}"
        )
    if scan.corruption:
        print(f"  CORRUPT TAIL: {scan.corruption} ({scan.torn_bytes} byte(s))")
    for index, record in enumerate(scan.records):
        lost = "txn" not in record and id(record) not in in_effect
        print(
            f"  [{index:04d}] {record['op']}{_describe(record)}"
            + ("  (uncommitted batch: recovery discards it)" if lost else "")
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    store = DurableStore(args.store)
    try:
        state = store.recover(dry_run=True)
    except CatalogCheckError as exc:
        print("catalog invariants VIOLATED on the recovered store:")
        for diagnostic in exc.diagnostics:
            print(f"  {diagnostic}")
        return 1
    except ReproError as exc:
        print(f"UNRECOVERABLE: {exc}")
        return 1
    print(state.report.describe())
    findings = state.report.diagnostics
    print(
        f"catalog invariants (CAT001-CAT006): checked, "
        f"{len(findings)} finding(s)"
    )
    if findings:
        # any finding — warnings included — fails verification, so CI can
        # gate on a clean store rather than merely a recoverable one
        for diagnostic in findings:
            print(f"  {diagnostic}")
        print("store is recoverable but NOT clean")
        return 1
    print("store is recoverable")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    store = DurableStore(args.store)
    report = store.compact()
    print(report.describe())
    print(
        f"compacted into checkpoint seqno {report.checkpoint_seqno + 1}; "
        f"wal now {store.wal_size()} byte(s)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.durability",
        description="Inspect, verify, and compact durable stores.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, handler, doc in (
        ("inspect", _cmd_inspect, "dump the checkpoint and WAL records"),
        ("verify", _cmd_verify, "read-only recovery + invariant check"),
        ("compact", _cmd_compact, "fold the WAL into a fresh checkpoint"),
    ):
        sub = commands.add_parser(name, help=doc)
        sub.add_argument(
            "store", help="store directory (inspect: or one record-log file)"
        )
        sub.set_defaults(handler=handler)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DurabilityError as exc:
        print(f"error: {exc}")
        return 1
    except BrokenPipeError:
        # stdout went away (e.g. `inspect ... | head`); not an error
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
