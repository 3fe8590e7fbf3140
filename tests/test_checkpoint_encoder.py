"""Checkpoints that re-encode only appended rows.

``DurableStore`` keeps a :class:`CheckpointEncoder` that remembers each
BAT's encoded rows from the last checkpoint and encodes only what a BAT
gained since. Its output must stay byte for byte the whole body encoded
at once, ``_canonical(_body(checkpoint))``, whatever happened in between:
inserts, bulk inserts, deletes, replaces, a name rebound to a copy, drops,
rolled-back transactions, ``any``-atom BATs, NaN — and after a reopened
store (whose encoder remembers nothing) or a crash between a checkpoint's
rename and the WAL truncation.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.durability.checkpoint as checkpoint_module
from repro.durability import DurableStore
from repro.durability.checkpoint import (
    Checkpoint,
    CheckpointEncoder,
    _body,
    _canonical,
    write_checkpoint,
)
from repro.errors import SimulatedCrash
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.monet.bat import BAT, compare_catalogs
from repro.monet.kernel import MonetKernel

#: name -> (head type, tail type) of the BATs a script mutates
SCHEMAS = {
    "laps": ("void", "dbl"),
    "pairs": ("oid", "str"),
    "flags": ("int", "bit"),
    "models": ("void", "any"),
}

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, -0.0, math.inf, -math.inf]),
)
TAILS = {
    "dbl": floats,
    "str": st.text(max_size=4),
    "bit": st.booleans(),
    "any": st.one_of(
        st.integers(-3, 3),
        st.lists(st.integers(0, 3), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
    ),
}
HEADS = {"oid": st.integers(0, 50), "int": st.integers(-50, 50)}
names = st.sampled_from(sorted(SCHEMAS))


def rows(name: str):
    """``(heads or None, tails)`` of a few rows for BAT ``name``."""
    head, tail = SCHEMAS[name]
    tails = st.lists(TAILS[tail], max_size=4)
    if head == "void":
        return tails.map(lambda values: (None, values))
    return tails.flatmap(
        lambda values: st.lists(
            HEADS[head], min_size=len(values), max_size=len(values)
        ).map(lambda keys: (keys, values))
    )


mutations = st.one_of(
    names.flatmap(lambda n: rows(n).map(lambda r: ("insert", n, r))),
    names.flatmap(lambda n: rows(n).map(lambda r: ("insert_bulk", n, r))),
    st.tuples(st.just("delete"), names, st.integers(0, 10)),
    names.flatmap(
        lambda n: st.tuples(
            st.just("replace"), st.just(n), st.integers(0, 10), TAILS[SCHEMAS[n][1]]
        )
    ),
    names.flatmap(lambda n: rows(n).map(lambda r: ("rebind", n, r))),
    st.tuples(st.just("drop"), names),
)
steps = st.one_of(
    mutations,
    mutations.map(lambda m: ("rollback", m)),
    st.sampled_from([("checkpoint",), ("reopen",), ("crash",)]),
)


class Boom(Exception):
    """The failure a rolled-back step raises."""


def fresh(name: str) -> BAT:
    head, tail = SCHEMAS[name]
    return BAT(head, tail)


def mutate(kernel: MonetKernel, step: tuple) -> None:
    op, name, *args = step
    if name not in kernel.catalog:
        kernel.persist(name, fresh(name))
    bat = kernel.bat(name)
    if op == "insert":
        heads, tails = args[0]
        for index, tail in enumerate(tails):
            if heads is None:
                bat.insert(tail)
            else:
                bat.insert(heads[index], tail)
    elif op == "insert_bulk":
        bat.insert_bulk(*args[0])
    elif op == "delete" and len(bat):
        bat.delete(bat.heads()[args[0] % len(bat)])
    elif op == "replace" and len(bat):
        bat.replace(bat.heads()[args[0] % len(bat)], args[1])
    elif op == "rebind":
        # a copy that then grows, bound under its source's name: it shares
        # the source's lineage until the kernel binds it
        copy = bat.copy()
        copy.insert_bulk(*args[0])
        kernel.persist(name, copy)
    elif op == "drop":
        kernel.drop(name)


def open_kernel(path: Path) -> MonetKernel:
    return MonetKernel(threads=1, check="off", store=DurableStore(path, fsync=False))


def assert_recovers(path: Path, expected: dict[str, BAT]) -> MonetKernel:
    kernel = open_kernel(path)
    assert compare_catalogs(expected, kernel.snapshot()) == []
    return kernel


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(script=st.lists(steps, max_size=25))
def test_every_checkpoint_is_the_whole_body_encoded_at_once(script):
    encoded: list[bytes] = []
    original = CheckpointEncoder.encode

    def checked(self, checkpoint: Checkpoint) -> bytes:
        body = original(self, checkpoint)
        assert body == _canonical(_body(checkpoint))
        encoded.append(body)
        return body

    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
        patch.setattr(CheckpointEncoder, "encode", checked)
        path = Path(scratch) / "s"
        kernel = open_kernel(path)
        for step in script:
            if step[0] == "checkpoint":
                kernel.checkpoint()
            elif step[0] == "reopen":
                kernel.close()
                kernel = assert_recovers(path, kernel.snapshot())
            elif step[0] == "crash":
                expected = kernel.snapshot()
                kernel.store.faults = FaultInjector(
                    FaultPlan(
                        seed=1,
                        specs=(FaultSpec(site="checkpoint:renamed", kind="kill"),),
                    )
                )
                with pytest.raises(SimulatedCrash):
                    kernel.checkpoint()
                kernel.close()
                kernel = assert_recovers(path, expected)
            elif step[0] == "rollback":
                before = kernel.snapshot()
                with pytest.raises(Boom):
                    with kernel.transaction():
                        mutate(kernel, step[1])
                        raise Boom
                assert compare_catalogs(before, kernel.snapshot()) == []
            else:
                with kernel.transaction():
                    mutate(kernel, step)
        kernel.checkpoint()
        kernel.close()
        assert_recovers(path, kernel.snapshot()).close()
    assert encoded


def test_only_rows_appended_since_the_last_checkpoint_are_encoded(
    tmp_path, monkeypatch
):
    starts: list[tuple[int, int]] = []
    original = checkpoint_module.rows_payload

    def recording(bat, start=0):
        starts.append((len(bat), start))
        return original(bat, start)

    monkeypatch.setattr(checkpoint_module, "rows_payload", recording)
    kernel = open_kernel(tmp_path)
    with kernel.transaction():
        for name in ("grown", "untouched", "rewritten", "objects"):
            kernel.persist(name, BAT("void", "any" if name == "objects" else "dbl"))
            kernel.bat(name).insert_bulk(None, [1.0, math.nan, -0.0])
    kernel.checkpoint()
    assert sorted(starts) == [(3, 0)] * 4  # first checkpoint: all whole
    starts.clear()
    with kernel.transaction():
        kernel.bat("grown").insert_bulk(None, [4.0, 5.0])
        kernel.bat("rewritten").replace(1, 7.0)
        kernel.bat("objects").insert(8.0)
    kernel.checkpoint()
    # names are encoded in sorted order: grown, objects, rewritten, untouched
    assert starts == [(5, 3), (4, 0), (3, 0), (3, 3)]
    kernel.close()

    starts.clear()
    reopened = open_kernel(tmp_path)  # a new store remembers nothing
    reopened.checkpoint()
    assert starts == [(5, 0), (4, 0), (3, 0), (3, 0)]
    reopened.close()


def test_a_caller_without_an_encoder_gets_the_same_bytes(tmp_path):
    catalog = {
        "laps": BAT.from_columns("void", "dbl", [0, 1], [78.5, math.nan], next_oid=2),
        "names": BAT.from_columns("oid", "str", [4, 2], ["é", "\n"]),
    }
    encoder = CheckpointEncoder()
    encoder.encode(Checkpoint(seqno=1, catalog=catalog))
    catalog["laps"].insert(-0.0)
    later = Checkpoint(seqno=2, catalog=catalog, modules=["dbn"])
    body = encoder.encode(later)
    assert body == CheckpointEncoder().encode(later) == _canonical(_body(later))
    write_checkpoint(tmp_path, later, fsync=False)
    assert (tmp_path / "checkpoint").read_bytes().endswith(b'"body": ' + body + b"}")
