"""Binary Association Tables (BATs).

Monet's storage model is fully decomposed: every persistent structure is a
*Binary Association Table*, a two-column table of (head, tail) associations.
Wider relations are modelled as groups of BATs that share head oids. This
module implements the BAT together with the classic kernel operators used by
the paper's MIL snippets (``insert``, ``reverse``, ``find``, ``select``,
``join``, ``max`` ...).

Columns are Python lists; speed comes from Monet-style *accelerators* hung
on the BAT and built on demand: a value -> ascending-positions hash per
column (:meth:`BAT.tail_positions`, :meth:`BAT.head_positions`, the
batched :meth:`BAT.tail_positions_many` / :meth:`BAT.head_positions_many`,
:meth:`BAT.tail_exists`, and :meth:`BAT.tail_runs` /
:meth:`BAT.tail_positions_in`, which read the hash in place and copy only
what they return) and a memoised read-only numpy image of the tail column
(:meth:`BAT.tail_array`).
Inserts never touch them — appended rows
are caught up on the next probe — and every other mutation drops them, so
the Cobra metadata store and the feature-extraction extensions get index-
and column-shaped reads without a cache to size or invalidate by hand.

Writes are cheapest a column at a time too: :meth:`BAT.insert_bulk`,
:meth:`BAT.from_columns` and :meth:`BAT.append_columns` check a whole
column's value types once and take a column that already holds the atom's
stored type (``int``, ``float`` or ``str``; no negative oid) as it stands
(a float column with every NaN made the atom's one nil), coercing value by
value only otherwise — with the same results and the same errors as
:meth:`BAT.insert` would give row by row.
"""

from __future__ import annotations

import copy as _copy
import math
import threading
from bisect import bisect_left
from typing import Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.errors import BatError
from repro.monet.atoms import ATOMS, Atom

__all__ = ["BAT", "compare_catalogs", "new_bat"]

_NUMERIC_ATOMS = {"oid", "void", "int", "flt", "dbl"}

#: Object-dtype atoms whose values are nevertheless immutable: sharing the
#: value between a live BAT and a snapshot copy cannot leak mutations.
_IMMUTABLE_OBJECT_ATOMS = {"str", "chr"}


def _holds_mutable_values(atom: Atom) -> bool:
    """Object-dtype atoms (``any`` and extension types) may hold mutable
    Python values; numeric/bool/string atoms never do."""
    return atom.dtype == np.dtype(object) and atom.name not in _IMMUTABLE_OBJECT_ATOMS


def _copy_column(values: list[Any], atom: Atom) -> list[Any]:
    """Snapshot one column so later mutation of the source cannot leak.

    Immutable values only need a new list; mutable ones must be
    deep-copied for the snapshot to be genuinely independent.
    """
    if _holds_mutable_values(atom):
        return [_copy.deepcopy(v) for v in values]
    return list(values)


#: The one Python type every stored value of these atoms has: a column of
#: nothing else needs no coercion (an oid/void column also no negative).
_EXACT_TYPES = {"int": int, "oid": int, "void": int, "flt": float, "dbl": float, "str": str}


def _coerced(atom: Atom, values: Iterable[Any]) -> list[Any]:
    """A new list of ``values`` in the atom's stored form, a column at a
    time: taken as it stands when every value already has the atom's
    exact stored type, else ``atom.coerce`` value by value."""
    values = list(values)
    exact = _EXACT_TYPES.get(atom.name)
    if exact is not None and set(map(type, values)) <= {exact}:
        if exact is float:
            # every NaN becomes the atom's one nil, as ``atom.coerce`` makes
            # it; the sum is NaN if any value is (or inf meets -inf)
            total = sum(values)
            if total != total:
                values = [v if v == v else math.nan for v in values]
            return values
        if exact is not int or atom.name == "int" or not values or min(values) >= 0:
            return values
    coerce = atom.coerce
    return [coerce(v) for v in values]


def _truncated(live: list[Any], saved: list[Any], rows: int) -> list[Any]:
    """A column rolled back to its first ``rows`` saved values: the live
    list cut back in place while it still is the saved one (it has only
    grown since), else a new list of the saved prefix."""
    if live is saved:
        del live[rows:]
        return live
    return saved[:rows]

#: Sentinel distinguishing ``select(v)`` from ``select(lo, hi)``.
_MISSING = object()

#: Hash key standing for every NaN, so probes keep ``_eq``'s null semantics
#: (NaN equals NaN) although ``nan != nan`` defeats a plain dict lookup.
_NAN = object()


def _hash_key(value: Any) -> Any:
    return _NAN if isinstance(value, float) and value != value else value


#: What a probe reads for a key with no rows (never changed by a reader).
_NO_HITS: list[int] = []


def _runs(hits: list[int]) -> list[tuple[int, int]]:
    """Ascending positions as maximal runs of consecutive ones, ``[lo, hi)``
    pairs. ``hits[k] - k`` never falls, and stays the same exactly along a
    run, so each run's end is found by galloping and then bisecting on it:
    O(log length) steps per run."""
    runs: list[tuple[int, int]] = []
    start, count = 0, len(hits)
    while start < count:
        offset = hits[start] - start
        if hits[-1] - (count - 1) == offset:  # the rest is one run
            runs.append((hits[start], hits[-1] + 1))
            break
        last, step = start, 1  # hits[last] is in the run
        while last + step < count and hits[last + step] - (last + step) == offset:
            last += step
            step *= 2
        beyond = min(last + step, count)  # hits[beyond] is not, if it exists
        while beyond - last > 1:
            middle = (last + beyond) // 2
            if hits[middle] - middle == offset:
                last = middle
            else:
                beyond = middle
        runs.append((hits[start], hits[last] + 1))
        start = last + 1
    return runs


class _Hash:
    """One column's accelerator: value -> ascending positions over rows
    ``[0, rows)``; rows appended since are added by :meth:`catch_up`."""

    __slots__ = ("positions", "rows", "floats")

    def __init__(self, atom: Atom):
        self.positions: dict[Any, list[int]] = {}
        self.rows = 0
        # only float-capable columns can hold a NaN to normalise
        self.floats = (
            atom.dtype.kind in "fO" and atom.name not in _IMMUTABLE_OBJECT_ATOMS
        )

    def catch_up(self, column: list[Any]) -> None:
        positions, start = self.positions, self.rows
        if start == len(column):
            return
        new = column[start:]
        if self.floats:
            new = [_hash_key(v) for v in new]
        get = positions.get
        for position, value in enumerate(new, start):
            hits = get(value)
            if hits is None:
                positions[value] = [position]
            else:
                hits.append(position)
        self.rows = start + len(new)


class BAT:
    """A two-column (head, tail) association table.

    Args:
        head_type: atom-type name of the head column. ``"void"`` declares a
            dense oid sequence: single-argument inserts auto-assign heads.
        tail_type: atom-type name of the tail column.
        name: optional catalog name, set when the BAT is persisted.

    BATs are safe for concurrent *inserts* from the MIL parallel block (a
    single mutex guards mutation). Accelerator probes
    (:meth:`tail_positions`, :meth:`head_positions`, the batched and range
    probes, :meth:`tail_exists`, :meth:`tail_array`) take the same mutex
    and are therefore snapshot-consistent against concurrent inserts —
    the *watermark guarantee*: a
    probe sees every row that was complete when it started (in particular
    every row below a ``len()`` read beforehand) and returns no position at
    or beyond a ``len()`` read afterwards, because an accelerator covers
    rows ``[0, watermark)`` and is caught up to the column length, under
    the mutex, before it answers. Plain scans (``select``, ``find``,
    iteration) during concurrent mutation stay unsynchronized, matching
    Monet's bulk-processing usage.

    Accelerators are built on first probe, never at insert; ``delete`` /
    ``replace`` / ``restore`` drop them, and ``copy`` / ``from_columns`` /
    derived BATs start without any, so they live exactly as long as the
    BAT object they describe.

    The same split — inserts only ever append, everything else rewrites —
    lets :meth:`appended_since` tell in O(1) which rows a BAT gained since
    an earlier :meth:`version` of it: a BAT carries a *lineage* token and a
    *rewrite counter* that ``delete`` / ``replace`` / ``restore`` bump and
    ``copy`` carries over, and inserts touch neither.
    """

    def __init__(self, head_type: str, tail_type: str, name: str | None = None):
        self._head_atom: Atom = ATOMS.get(head_type)
        self._tail_atom: Atom = ATOMS.get(tail_type)
        self._head: list[Any] = []
        self._tail: list[Any] = []
        self._lock = threading.Lock()
        self.name = name
        self._next_oid = 0
        self._hashes: dict[str, _Hash] = {}  # "head" / "tail" accelerators
        self._tail_memo: np.ndarray | None = None
        self._lineage = object()  # shared with copies, see appended_since
        self._rewrites = 0  # mutations other than an append, so far

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def head_type(self) -> str:
        return self._head_atom.name

    @property
    def tail_type(self) -> str:
        return self._tail_atom.name

    @property
    def holds_mutable_values(self) -> bool:
        """Whether a stored value can change in place — without the BAT
        knowing: true of ``any`` and extension atoms, never of numbers,
        bools and strings."""
        return _holds_mutable_values(self._head_atom) or _holds_mutable_values(
            self._tail_atom
        )

    def count(self) -> int:
        """Number of associations (MIL ``b.count``)."""
        return len(self._head)

    def __len__(self) -> int:
        return len(self._head)

    def __iter__(self) -> Iterator[tuple[Any, Any]]:
        return iter(zip(self._head, self._tail))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "<transient>"
        return (
            f"BAT[{self.head_type},{self.tail_type}] {label} "
            f"({len(self)} associations)"
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, *args: Any) -> "BAT":
        """Insert one association.

        ``b.insert(tail)`` is valid only for void-headed BATs and assigns the
        next dense oid; ``b.insert(head, tail)`` inserts an explicit pair.
        Returns ``self`` so MIL call-chains work.
        """
        if len(args) == 1:
            if self.head_type != "void":
                raise BatError(
                    f"single-argument insert needs a void head, not {self.head_type}"
                )
            with self._lock:
                self._head.append(self._next_oid)
                self._next_oid += 1
                self._tail.append(self._tail_atom.coerce(args[0]))
            return self
        if len(args) != 2:
            raise BatError(f"insert takes 1 or 2 arguments, got {len(args)}")
        head, tail = args
        with self._lock:
            self._head.append(self._head_atom.coerce(head))
            self._tail.append(self._tail_atom.coerce(tail))
        return self

    def insert_bulk(self, heads: Iterable[Any] | None, tails: Iterable[Any]) -> "BAT":
        """Bulk insert; ``heads=None`` auto-assigns dense oids (void head).

        Every value is coerced before any row lands, so a value its atom
        rejects leaves the BAT as it was. Coercion is a column at a time:
        a column whose values all have the atom's stored type already
        lands as it stands."""
        if heads is None and self.head_type != "void":
            raise BatError("bulk insert without heads needs a void head")
        tails = _coerced(self._tail_atom, tails)
        if heads is None:
            with self._lock:
                start = self._next_oid
                self._head.extend(range(start, start + len(tails)))
                self._next_oid = start + len(tails)
                self._tail.extend(tails)
            return self
        heads = _coerced(self._head_atom, heads)
        if len(heads) != len(tails):
            raise BatError(
                f"bulk insert arity mismatch: {len(heads)} heads, {len(tails)} tails"
            )
        with self._lock:
            self._head.extend(heads)
            self._tail.extend(tails)
        return self

    def delete(self, head: Any) -> "BAT":
        """Delete all associations whose head equals ``head``."""
        key = self._head_atom.coerce(head)
        with self._lock:
            keep = [i for i, h in enumerate(self._head) if h != key]
            self._head = [self._head[i] for i in keep]
            self._tail = [self._tail[i] for i in keep]
            self._drop_accelerators()
        return self

    def replace(self, head: Any, tail: Any) -> "BAT":
        """Replace the tail of the first association with the given head.

        The tail column is a new list, as after ``delete``: a column list
        only ever changes by growing (:meth:`_savepoint` relies on it)."""
        key = self._head_atom.coerce(head)
        value = self._tail_atom.coerce(tail)
        with self._lock:
            for i, h in enumerate(self._head):
                if h == key:
                    tail_column = list(self._tail)
                    tail_column[i] = value
                    self._tail = tail_column
                    self._drop_accelerators()
                    return self
        raise BatError(f"replace: head {head!r} not present")

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def find(self, head: Any) -> Any:
        """Return the tail of the first association with the given head.

        This is the MIL ``b.find(v)`` used in Fig. 4 of the paper to map the
        best HMM score back to its model name via ``b.reverse.find``.
        """
        key = self._head_atom.coerce(head)
        found = self._probe("head", [key], build=False)
        if found is None:
            positions = (i for i, h in enumerate(self._head) if _eq(h, key))
        else:
            positions = found[0]
        for position in positions:
            return self._tail[position]
        raise BatError(f"find: head {head!r} not present")

    def exist(self, head: Any) -> bool:
        key = self._head_atom.coerce(head)
        found = self._probe("head", [key], build=False)
        if found is None:
            return any(_eq(h, key) for h in self._head)
        return bool(found[0])

    def fetch(self, position: int) -> tuple[Any, Any]:
        """Positional access (MIL ``b.fetch(i)``)."""
        try:
            return self._head[position], self._tail[position]
        except IndexError:
            raise BatError(
                f"fetch: position {position} out of range 0..{len(self) - 1}"
            ) from None

    # ------------------------------------------------------------------
    # accelerators
    # ------------------------------------------------------------------
    def _drop_accelerators(self) -> None:
        """Forget every accelerator (caller holds the mutex): positions
        moved or a stored value changed, so nothing cached still holds —
        nor does "this BAT only grew" (:meth:`appended_since`)."""
        self._hashes.clear()
        self._tail_memo = None
        self._rewrites += 1

    def _probe(
        self,
        side: str,
        keys: list[Any],
        build: bool,
        read: Callable[[list[int]], Any] | None = None,
    ) -> list[Any] | None:
        """What ``read`` makes of each key's ascending positions in the head
        or tail column, from that column's hash caught up to the current
        length — one mutex acquisition and one catch-up however many keys.

        ``read`` runs under the mutex on the hash's own list (empty for a
        key never stored) and must not keep or change it; without one, the
        caller gets a copy of its own. ``None`` means "scan instead": the
        hash does not exist and ``build`` is false, or the column holds
        unhashable values.
        """
        with self._lock:
            index = self._hashes.get(side)
            if index is None:
                if not build:
                    return None
                index = _Hash(self._head_atom if side == "head" else self._tail_atom)
            try:
                index.catch_up(self._head if side == "head" else self._tail)
                if index.floats:
                    keys = [_hash_key(key) for key in keys]
                found = list(map(index.positions.get, keys))
            except TypeError:  # unhashable values in an object column
                self._hashes.pop(side, None)
                return None
            self._hashes[side] = index
            if read is None:
                return [hits[:] if hits else [] for hits in found]
            return [read(hits or _NO_HITS) for hits in found]

    def _positions(
        self,
        side: str,
        keys: list[Any],
        read: Callable[[list[int]], Any] | None = None,
    ) -> list[Any]:
        found = self._probe(side, keys, build=True, read=read)
        if found is None:
            column = self._head if side == "head" else self._tail
            found = [
                [i for i, value in enumerate(column) if _eq(value, key)]
                for key in keys
            ]
            if read is not None:
                found = [read(hits) for hits in found]
        return found

    def tail_positions(self, value: Any) -> list[int]:
        """Ascending positions whose tail equals ``value`` — the oid list
        of ``select(value)`` on a void-headed BAT, in O(matches) through
        the tail hash (built on first use)."""
        return self._positions("tail", [self._tail_atom.coerce(value)])[0]

    def head_positions(self, value: Any) -> list[int]:
        """Ascending positions whose head equals ``value`` (head hash)."""
        return self._positions("head", [self._head_atom.coerce(value)])[0]

    def head_positions_many(self, values: Iterable[Any]) -> list[list[int]]:
        """:meth:`head_positions` of every value, in order, from one probe
        of the head hash: a whole oid list's rows of an oid-headed BAT for
        one mutex acquisition and one catch-up, under the same watermark
        guarantee. The values are coerced a column at a time, as
        :meth:`insert_bulk` coerces, with the same results and errors."""
        return self._positions("head", _coerced(self._head_atom, values))

    def tail_positions_many(self, values: Iterable[Any]) -> list[list[int]]:
        """:meth:`tail_positions` of every value, in order, from one probe
        of the tail hash (:meth:`head_positions_many` on the tail side)."""
        return self._positions("tail", _coerced(self._tail_atom, values))

    def tail_runs(self, values: Iterable[Any]) -> list[list[tuple[int, int]]]:
        """Each value's tail positions as maximal runs of consecutive
        positions, ``[lo, hi)`` pairs in ascending order, from one probe of
        the tail hash. Rows that land a block at a time make few runs, so
        this costs about one step per run, not one per position."""
        return self._positions("tail", _coerced(self._tail_atom, values), _runs)

    def tail_positions_in(
        self, value: Any, groups: Iterable[list[tuple[int, int]]]
    ) -> list[list[int]]:
        """For each group of ``[lo, hi)`` ranges (such as :meth:`tail_runs`
        gives), the ascending positions inside them whose tail equals
        ``value``, from one probe of the tail hash: two bisections a range,
        and only the positions returned are copied."""
        groups = list(groups)

        def within(hits: list[int]) -> list[list[int]]:
            out = []
            for ranges in groups:
                found: list[int] = []
                for lo, hi in ranges:
                    found += hits[bisect_left(hits, lo) : bisect_left(hits, hi)]
                out.append(found)
            return out

        return self._positions("tail", [self._tail_atom.coerce(value)], within)[0]

    def tail_exists(self, value: Any) -> bool:
        """:meth:`exist` on the tail side: does any tail equal ``value``?"""
        return bool(self.tail_positions(value))

    def tails_at(self, positions: Iterable[int]) -> list[Any]:
        """Positional gather of tail values (Monet's fetch-join): what
        materialising a surviving oid list costs, instead of a copy of the
        whole column."""
        tail = self._tail
        return [tail[position] for position in positions]

    def heads_at(self, positions: Iterable[int]) -> list[Any]:
        """Positional gather of head values: :meth:`tails_at` on the head
        side, e.g. the event oids of a role BAT's probed rows."""
        head = self._head
        return [head[position] for position in positions]

    # ------------------------------------------------------------------
    # unary operators
    # ------------------------------------------------------------------
    def reverse(self) -> "BAT":
        """Return the BAT with head and tail columns swapped."""
        head_type = "oid" if self.head_type == "void" else self.head_type
        out = BAT(self.tail_type if self.tail_type != "void" else "oid", head_type)
        out._head = list(self._tail)
        out._tail = list(self._head)
        return out

    def mirror(self) -> "BAT":
        """Return a [head, head] BAT (Monet ``mirror``)."""
        head_type = "oid" if self.head_type == "void" else self.head_type
        out = BAT(head_type, head_type)
        out._head = list(self._head)
        out._tail = list(self._head)
        return out

    def mark(self, base: int = 0) -> "BAT":
        """Replace tails with a dense oid sequence starting at ``base``."""
        out = BAT(self.head_type if self.head_type != "void" else "oid", "oid")
        out._head = list(self._head)
        out._tail = list(range(base, base + len(self)))
        return out

    def copy(self, name: str | None = None) -> "BAT":
        """An independent copy: mutations through either BAT never leak
        into the other, even for mutable object-atom values."""
        out = BAT(self.head_type, self.tail_type, name=name)
        with self._lock:
            out._head = _copy_column(self._head, self._head_atom)
            out._tail = _copy_column(self._tail, self._tail_atom)
            out._next_oid = self._next_oid
            out._lineage, out._rewrites = self._lineage, self._rewrites
        return out

    def begin_lineage(self) -> None:
        """Cut the tie to every earlier :meth:`version`, those of copies
        included. The kernel calls this when a BAT object becomes bound
        under a catalog name, so a diverged copy rebound under the name of
        its source is never mistaken for the source having grown."""
        self._lineage = object()

    def version(self) -> tuple[object, int, int]:
        """``(lineage, rewrite counter, row count)`` as of now — all that
        :meth:`appended_since` needs to remember of this state."""
        with self._lock:
            return self._lineage, self._rewrites, len(self._head)

    def appended_since(self, version: tuple[object, int, int]) -> int | None:
        """Position of the first row this BAT gained since ``version`` was
        taken (of it, or of the BAT it is a :meth:`copy` of) —
        ``len(self)`` when it gained none — or ``None`` when that cannot be
        told without comparing values.

        O(1): the same lineage and rewrite counter mean every mutation in
        between was an insert, so the rows counted then are still rows
        ``[0, count)``. A BAT holding mutable object values always answers
        ``None``, because an in-place change to a stored value bumps
        nothing.
        """
        lineage, rewrites, rows = version
        if (
            lineage is not self._lineage
            or rewrites != self._rewrites
            or rows > len(self)
            or self.holds_mutable_values
        ):
            return None
        return rows

    def restore(self, snapshot: "BAT") -> "BAT":
        """Roll this BAT back to a snapshot copy, in place.

        In-place so that holders of a reference (the metadata store, MIL
        globals) see the rollback; a transaction rolls a BAT of mutable
        values back through this (:meth:`_roll_back`). The snapshot must
        have the same atom types.
        """
        if (snapshot.head_type, snapshot.tail_type) != (
            self.head_type,
            self.tail_type,
        ):
            raise BatError(
                f"cannot restore BAT[{self.head_type},{self.tail_type}] from "
                f"snapshot BAT[{snapshot.head_type},{snapshot.tail_type}]"
            )
        if self.appended_since(snapshot.version()) == len(self):
            return self  # untouched since the snapshot: nothing to roll back
        with self._lock:
            self._head = _copy_column(snapshot._head, snapshot._head_atom)
            self._tail = _copy_column(snapshot._tail, snapshot._tail_atom)
            self._next_oid = snapshot._next_oid
            self._drop_accelerators()
        return self

    def _savepoint(self) -> Any:
        """What :meth:`_roll_back` needs to return this BAT to now.

        A column list only ever grows in place — ``delete``, ``replace``,
        ``restore`` and a rollback install new lists — so the lists
        themselves, the row count, the oid counter and the version are
        enough: O(1), nothing copied. A BAT of mutable values is saved as
        a :meth:`copy`, because an in-place change to a stored value
        bumps nothing.
        """
        if self.holds_mutable_values:
            return self.copy(name=self.name)
        with self._lock:
            return (
                self._head,
                self._tail,
                len(self._head),
                self._next_oid,
                self._lineage,
                self._rewrites,
            )

    def _roll_back(self, savepoint: Any) -> None:
        """Return to a :meth:`_savepoint`, in place, so holders of a
        reference see the rollback. Untouched since, the BAT is left
        alone; otherwise a column still on its saved list is truncated to
        the saved row count, a rewritten one takes the saved list's
        prefix, and — as after :meth:`restore` — accelerators are dropped
        and the rewrite counter bumped.

        Savepoints nest: a rollback only ever cuts a list back to a row
        count at least that of any savepoint taken before it.
        """
        if isinstance(savepoint, BAT):
            self.restore(savepoint)
            return
        head, tail, rows, next_oid, lineage, rewrites = savepoint
        with self._lock:
            if (
                self._head is head
                and self._tail is tail
                and len(head) == rows
                and self._next_oid == next_oid
                and self._lineage is lineage
                and self._rewrites == rewrites
            ):
                return
            self._head = _truncated(self._head, head, rows)
            self._tail = _truncated(self._tail, tail, rows)
            self._next_oid = next_oid
            self._drop_accelerators()

    def equals(self, other: "BAT") -> bool:
        """Structural equality: same atom types, columns, and oid counter.

        NaN tails compare equal to NaN (null semantics), matching
        :meth:`find`. Used by the durability layer to compute transaction
        deltas and by :func:`compare_catalogs`.
        """
        if (self.head_type, self.tail_type) != (other.head_type, other.tail_type):
            return False
        if len(self) != len(other) or self._next_oid != other._next_oid:
            return False
        return all(
            _eq(a, b) for a, b in zip(self._head, other._head)
        ) and all(_eq(a, b) for a, b in zip(self._tail, other._tail))

    def columns(self, start: int = 0) -> tuple[list[Any], list[Any], int]:
        """Copies of (head column, tail column, next-oid counter), the
        columns from row ``start`` on.

        The serialization view used by the WAL/checkpoint writers.
        """
        with self._lock:
            return self._head[start:], self._tail[start:], self._next_oid

    def append_columns(
        self, head: Iterable[Any], tail: Iterable[Any], next_oid: int
    ) -> "BAT":
        """Append serialized rows in place: :meth:`columns` ``(start)`` of
        the writer, replayed on a BAT that holds rows ``[0, start)``.
        An :meth:`insert_bulk`, so accelerators survive it."""
        self.insert_bulk(head, tail)
        with self._lock:
            self._next_oid = int(next_oid)
        return self

    @classmethod
    def from_columns(
        cls,
        head_type: str,
        tail_type: str,
        head: Iterable[Any],
        tail: Iterable[Any],
        next_oid: int = 0,
        name: str | None = None,
    ) -> "BAT":
        """Rebuild a BAT from serialized columns (the recovery path).

        Values are re-coerced through the atom types, a column at a time
        as in :meth:`insert_bulk`, so a damaged log record that decodes to
        ill-typed values raises :class:`repro.errors.AtomTypeError` here
        instead of corrupting the catalog silently.
        """
        out = cls(head_type, tail_type, name=name)
        out._head = _coerced(out._head_atom, head)
        out._tail = _coerced(out._tail_atom, tail)
        if len(out._head) != len(out._tail):
            raise BatError(
                f"column length mismatch rebuilding {name or '<transient>'}: "
                f"{len(out._head)} heads, {len(out._tail)} tails"
            )
        out._next_oid = int(next_oid)
        return out

    def slice(self, lo: int, hi: int) -> "BAT":
        """Positional slice [lo, hi) preserving types."""
        out = BAT(self.head_type, self.tail_type)
        out._head = self._head[lo:hi]
        out._tail = self._tail[lo:hi]
        return out

    def unique(self) -> "BAT":
        """Drop duplicate (head, tail) pairs, keeping first occurrences."""
        out = BAT(self.head_type, self.tail_type)
        seen: set[tuple[Any, Any]] = set()
        for h, t in zip(self._head, self._tail):
            if (h, t) not in seen:
                seen.add((h, t))
                out._head.append(h)
                out._tail.append(t)
        return out

    def sort(self, reverse: bool = False) -> "BAT":
        """Return a copy ordered by tail value."""
        order = sorted(range(len(self)), key=lambda i: self._tail[i], reverse=reverse)
        out = BAT(self.head_type, self.tail_type)
        out._head = [self._head[i] for i in order]
        out._tail = [self._tail[i] for i in order]
        return out

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def select(self, lo: Any, hi: Any = _MISSING) -> "BAT":
        """Select associations by tail value.

        ``b.select(v)`` keeps tails equal to ``v``; ``b.select(lo, hi)`` keeps
        tails in the closed interval [lo, hi] (Monet range-select semantics).
        """
        out = BAT(self.head_type if self.head_type != "void" else "oid", self.tail_type)
        if hi is _MISSING:
            key = self._tail_atom.coerce(lo)
            found = self._probe("tail", [key], build=False)
            if found is None:
                pairs = [
                    (h, t) for h, t in zip(self._head, self._tail) if _eq(t, key)
                ]
            else:
                pairs = [(self._head[i], self._tail[i]) for i in found[0]]
        else:
            lo_v = self._tail_atom.coerce(lo)
            hi_v = self._tail_atom.coerce(hi)
            pairs = [
                (h, t)
                for h, t in zip(self._head, self._tail)
                if lo_v <= t <= hi_v
            ]
        for h, t in pairs:
            out._head.append(h)
            out._tail.append(t)
        return out

    def filter_tail(self, predicate: Callable[[Any], bool]) -> "BAT":
        """Keep associations whose tail satisfies an arbitrary predicate."""
        out = BAT(self.head_type if self.head_type != "void" else "oid", self.tail_type)
        for h, t in zip(self._head, self._tail):
            if predicate(t):
                out._head.append(h)
                out._tail.append(t)
        return out

    # ------------------------------------------------------------------
    # binary operators
    # ------------------------------------------------------------------
    def join(self, other: "BAT") -> "BAT":
        """Equi-join self's tail with other's head: [A,B] ⋈ [B,C] → [A,C]."""
        index: dict[Any, list[Any]] = {}
        for h, t in zip(other._head, other._tail):
            index.setdefault(h, []).append(t)
        out = BAT(
            self.head_type if self.head_type != "void" else "oid",
            other.tail_type if other.tail_type != "void" else "oid",
        )
        for h, t in zip(self._head, self._tail):
            for c in index.get(t, ()):
                out._head.append(h)
                out._tail.append(c)
        return out

    def semijoin(self, other: "BAT") -> "BAT":
        """Keep self's associations whose head occurs in other's head."""
        keys = set(other._head)
        out = BAT(self.head_type if self.head_type != "void" else "oid", self.tail_type)
        for h, t in zip(self._head, self._tail):
            if h in keys:
                out._head.append(h)
                out._tail.append(t)
        return out

    def kdiff(self, other: "BAT") -> "BAT":
        """Keep self's associations whose head does NOT occur in other."""
        keys = set(other._head)
        out = BAT(self.head_type if self.head_type != "void" else "oid", self.tail_type)
        for h, t in zip(self._head, self._tail):
            if h not in keys:
                out._head.append(h)
                out._tail.append(t)
        return out

    def kunion(self, other: "BAT") -> "BAT":
        """Union on heads: self's pairs plus other's pairs with new heads."""
        out = self.copy()
        keys = set(self._head)
        for h, t in zip(other._head, other._tail):
            if h not in keys:
                out._head.append(out._head_atom.coerce(h))
                out._tail.append(out._tail_atom.coerce(t))
        return out

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def _require_nonempty(self, op: str) -> None:
        if not self._tail:
            raise BatError(f"{op} on empty BAT")

    def max(self) -> Any:
        """Maximum tail value (MIL ``b.max``)."""
        self._require_nonempty("max")
        return max(self._tail)

    def min(self) -> Any:
        self._require_nonempty("min")
        return min(self._tail)

    def sum(self) -> Any:
        self._require_nonempty("sum")
        return sum(self._tail)

    def avg(self) -> float:
        self._require_nonempty("avg")
        return float(sum(self._tail)) / len(self._tail)

    def histogram(self) -> "BAT":
        """Return a [tail-value, count] BAT (Monet ``histogram``)."""
        counts: dict[Any, int] = {}
        for t in self._tail:
            counts[t] = counts.get(t, 0) + 1
        out = BAT(self.tail_type if self.tail_type != "void" else "oid", "int")
        for value, n in counts.items():
            out._head.append(value)
            out._tail.append(n)
        return out

    # ------------------------------------------------------------------
    # bulk views
    # ------------------------------------------------------------------
    def heads(self) -> list[Any]:
        return list(self._head)

    def tails(self) -> list[Any]:
        return list(self._tail)

    def tail_array(self) -> np.ndarray:
        """Tail column as a numpy array (dtype follows the atom type).

        Memoised and read-only: repeated calls share one array until the
        column changes (appended rows rebuild it on the next call), so
        callers that need to write must ``.copy()`` it first.
        """
        with self._lock:
            memo = self._tail_memo
            if memo is None or len(memo) != len(self._tail):
                dtype = (
                    self._tail_atom.dtype
                    if self.tail_type in _NUMERIC_ATOMS
                    else object
                )
                memo = np.array(self._tail, dtype=dtype)
                memo.flags.writeable = False
                self._tail_memo = memo
            return memo

    def head_array(self) -> np.ndarray:
        if self.head_type in _NUMERIC_ATOMS:
            return np.asarray(self._head, dtype=self._head_atom.dtype)
        return np.asarray(self._head, dtype=object)


def _eq(a: Any, b: Any) -> bool:
    """Equality that treats NaN as equal to NaN (null semantics)."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (np.isnan(a) and np.isnan(b))
    return a == b


def compare_catalogs(
    expected: Mapping[str, BAT], recovered: Mapping[str, BAT]
) -> list[str]:
    """Mismatch descriptions between an expected model and a recovered
    catalog — empty when they agree structurally (:meth:`BAT.equals`) AND
    the numeric tail arrays agree byte-for-byte."""
    failures: list[str] = []
    if set(expected) != set(recovered):
        failures.append(
            f"catalog names differ: expected {sorted(expected)}, "
            f"recovered {sorted(recovered)}"
        )
    for name in sorted(set(expected) & set(recovered)):
        want, got = expected[name], recovered[name]
        if not want.equals(got):
            failures.append(
                f"{name}: recovered BAT differs "
                f"(expected {len(want)} rows, got {len(got)})"
            )
            continue
        want_tail, got_tail = want.tail_array(), got.tail_array()
        if want_tail.dtype != got_tail.dtype:
            failures.append(
                f"{name}: tail dtype {got_tail.dtype} != expected {want_tail.dtype}"
            )
        elif want_tail.dtype != np.dtype(object) and (
            want_tail.tobytes() != got_tail.tobytes()
        ):
            failures.append(f"{name}: tail arrays differ byte-for-byte")
    return failures


def new_bat(head_type: str, tail_type: str) -> BAT:
    """MIL ``new(head, tail)`` constructor."""
    return BAT(head_type, tail_type)
