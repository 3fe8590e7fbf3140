"""Differential model test of the durable write path.

A hypothesis state machine drives a durable kernel with one replica
through everything that reaches the WAL — inserts, bulk inserts, deletes,
replaces, in-place changes to mutable values, fresh BATs and diverged
copies bound under existing names, drops, nested savepoints, rollbacks,
all of it inside and outside transactions, checkpoints, pumps — and keeps
a model of what must be durable; it also crashes the kernel, plainly and
between a checkpoint's rename and its WAL truncation, and pumps over a
lagging link. After every step a fresh recovery of the store directory (run twice) has
to reproduce that model BAT by BAT, oid counter included; after every full
pump the replica has to; after every rollback the live catalog has to be
the one the scope found.

The model is three lines: a commit or a checkpoint makes the live catalog
durable, an auto-commit ``persist``/``drop`` makes that one name durable,
and nothing else does. Row deltas, full-image fallbacks, ``at`` and the
link's offsets are all invisible to it — which is the point. (BATs of
mutable values are only touched inside transactions: outside one, nothing
promises that a later commit notices.)
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.durability import DurableStore, write_checkpoint
from repro.durability.checkpoint import checkpoint_from_state
from repro.monet.bat import BAT
from repro.monet.kernel import MonetKernel
from repro.replication import Replica, ReplicationLink

NAMES = st.sampled_from(["a", "b", "c"])
VALUES = st.sampled_from([0.0, 1.5, -2.0, float("nan")])
PICK = st.integers(min_value=0, max_value=7)
EPOCH = 1

#: One mutation: (kind, BAT name, a row pick, a value).
OPS = st.tuples(
    st.sampled_from(
        [
            "insert",
            "insert_bulk",
            "delete",
            "replace",
            "change_in_place",
            "persist_fresh",
            "persist_fresh_mutable",
            "stash_a_copy",
            "persist_the_stash",
            "drop",
        ]
    ),
    NAMES,
    PICK,
    VALUES,
)
#: A transaction body: mutations and nested scopes ``("scope", body,
#: commits)`` — a scope that does not commit raises out of its ``with``.
BODIES = st.recursive(
    st.lists(OPS, max_size=4),
    lambda inner: st.lists(
        OPS | st.tuples(st.just("scope"), inner, st.booleans()), max_size=5
    ),
    max_leaves=12,
)


class ScopeFails(Exception):
    """What a scope that must roll back raises."""


def assert_same_catalog(actual: dict[str, BAT], expected: dict[str, BAT], who: str):
    assert sorted(actual) == sorted(expected), who
    for name, bat in expected.items():
        assert actual[name].equals(bat), f"{who}: BAT {name!r} differs"


class DurableKernelMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.base = Path(tempfile.mkdtemp(prefix="repro-model-"))
        self.kernel = self._open()
        self.link = ReplicationLink(self.base / "primary")
        self.replica = Replica("replica", self.base / "replica")
        self.durable: dict[str, BAT] = {}  # the model
        self.stash: BAT | None = None  # a copy that outlives its source's growth
        # start somewhere interesting: one BAT of each kind, checkpointed,
        # so the log holds no full image that would paper over a bad delta
        self.kernel.persist("a", BAT("void", "dbl").insert_bulk(None, [0.0, 1.5]))
        self.kernel.persist("b", BAT("void", "any").insert_bulk(None, [[1.5], [0.0]]))
        self.checkpoint()

    def _open(self) -> MonetKernel:
        store = DurableStore(self.base / "primary", fsync=False)
        return MonetKernel(threads=1, check="off", store=store)

    def teardown(self):
        self.kernel.close()
        shutil.rmtree(self.base, ignore_errors=True)

    def _everything_is_durable(self) -> None:
        self.durable = self.kernel.snapshot()

    # -- mutations ---------------------------------------------------------
    def _apply(self, op: tuple, in_transaction: bool) -> None:
        kind, name, pick, value = op
        kernel = self.kernel
        bound = None
        if kind in ("persist_fresh", "persist_fresh_mutable"):
            bound = BAT("void", "any" if kind.endswith("mutable") else "dbl")
            bound.insert_bulk(None, self._values(bound, [value] * (pick % 3)))
        elif kind == "persist_the_stash":
            bound, self.stash = self.stash, None
        if kind.startswith("persist"):
            if bound is None or bound.holds_mutable_values and not in_transaction:
                return
            kernel.persist(name, bound)
            if not in_transaction:
                self.durable[name] = bound.copy()
            return
        bat = kernel.catalog.get(name)
        if bat is None or bat.holds_mutable_values and not in_transaction:
            return  # outside a transaction, nothing promises a commit notices
        values = self._values(bat, [value, value, 1.5])
        if kind == "drop":
            kernel.drop(name)
            if not in_transaction:
                self.durable.pop(name, None)
        elif kind == "stash_a_copy":
            self.stash = bat.copy().insert(values[0])  # and diverge
        elif kind == "insert":
            bat.insert(values[0])
        elif kind == "insert_bulk":
            bat.insert_bulk(None, values[: pick % 4])
        elif len(bat) == 0:
            return
        elif kind == "delete":
            bat.delete(bat.heads()[pick % len(bat)])
        elif kind == "replace":
            bat.replace(bat.heads()[pick % len(bat)], values[0])
        elif kind == "change_in_place" and bat.holds_mutable_values:
            bat.fetch(pick % len(bat))[1].extend(values[0])

    @staticmethod
    def _values(bat: BAT, rows: list[float]) -> list:
        # ``any`` tails hold lists: mutable values, the compare-by-value path
        # (without NaN: inside a list it only equals itself by identity)
        if bat.tail_type == "any":
            return [[v if v == v else 0.0] for v in rows]
        return rows

    def _run_scope(self, body: list, commits: bool) -> None:
        found = self.kernel.snapshot()
        try:
            with self.kernel.transaction():
                for item in body:
                    if item[0] == "scope":
                        self._run_scope(item[1], item[2])
                    else:
                        self._apply(item, in_transaction=True)
                if not commits:
                    raise ScopeFails
        except ScopeFails:
            assert not commits
            assert_same_catalog(self.kernel.snapshot(), found, "rolled-back catalog")

    @rule(body=BODIES, commits=st.booleans())
    def transaction(self, body, commits):
        self._run_scope(body, commits)
        if commits:
            self._everything_is_durable()

    @rule(op=OPS)
    def outside_any_transaction(self, op):
        self._apply(op, in_transaction=False)

    # -- checkpoints, crashes, shipping ------------------------------------------
    @rule()
    def checkpoint(self):
        self.kernel.checkpoint()
        self._everything_is_durable()

    @rule()
    def crash_and_restart(self):
        self.kernel.close()  # whatever no commit logged is gone
        self.kernel = self._open()
        assert_same_catalog(self.kernel.snapshot(), self.durable, "restarted kernel")

    @rule()
    def crash_between_checkpoint_rename_and_wal_truncation(self):
        live = self.kernel.snapshot()
        if sorted(live) != sorted(self.durable) or not all(
            bat.equals(self.durable[name]) for name, bat in live.items()
        ):
            # the stale log would replay over rows only the checkpoint has:
            # mutations no commit ever logged are not promised to survive
            return
        store = self.kernel.store
        seqno = store.recover(dry_run=True).report.checkpoint_seqno + 1
        write_checkpoint(
            store.path,
            checkpoint_from_state(seqno, self.kernel.catalog, {}, ()),
            fsync=False,
        )
        self.crash_and_restart()

    @rule()
    def pump(self):
        shipment = self.link.fetch(self.replica.position, EPOCH)
        self.replica.apply_shipment(shipment)
        assert shipment.remaining == 0
        assert_same_catalog(self.replica.catalog(), self.durable, "replica")

    @rule(withhold=st.integers(min_value=1, max_value=3))
    def pump_a_lagging_link(self, withhold):
        shipment = self.link.fetch(self.replica.position, EPOCH, withhold=withhold)
        self.replica.apply_shipment(shipment)

    # -- the oracle ------------------------------------------------------------
    @invariant()
    def recovery_reproduces_the_model(self):
        for attempt in ("recovery", "second recovery"):
            state = DurableStore(self.base / "primary", fsync=False).recover()
            assert_same_catalog(state.catalog, self.durable, attempt)


TestDurableKernelModel = DurableKernelMachine.TestCase
TestDurableKernelModel.settings = settings(
    max_examples=100, stateful_step_count=25, derandomize=True, deadline=None
)
