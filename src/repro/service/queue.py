"""The bounded admission queue with priority classes and shed-oldest.

Admission control is the service's first line of defence against overload:
the queue holds at most ``capacity`` requests across all priority classes,
and once full either rejects the newcomer (``shed_oldest=False``) or — the
shed-oldest policy — evicts the *oldest request of the least-urgent
nonempty class*, provided that victim is no more urgent than the newcomer.
An interactive query can therefore displace a queued batch registration,
but a batch job can never push out a waiting interactive query.

All decisions are synchronous and happen under one lock, so given a fixed
arrival order the admit/shed/reject outcome sequence is deterministic —
the property the replayable :class:`repro.service.metrics.ServiceReport`
is built on.
"""

from __future__ import annotations

import threading
from collections import deque
from enum import IntEnum
from typing import Any, Iterator

from repro.errors import OverloadError

__all__ = ["Priority", "AdmissionQueue"]


class Priority(IntEnum):
    """Request priority classes; lower value = more urgent."""

    INTERACTIVE = 0
    BATCH = 1


class AdmissionQueue:
    """A bounded, priority-classed FIFO of service requests.

    Entries are any objects carrying ``priority`` (a :class:`Priority`)
    and ``lane`` (a string) attributes. Within a class the order is FIFO;
    :meth:`pop` serves the most urgent class first.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise OverloadError(
                f"queue capacity must be >= 1, got {capacity}", reason="queue-full"
            )
        self._capacity = capacity
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._classes: dict[Priority, deque[Any]] = {
            priority: deque() for priority in Priority
        }

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return sum(len(q) for q in self._classes.values())

    def depth(self, priority: Priority) -> int:
        """Queued entries of one priority class."""
        with self._lock:
            return len(self._classes[priority])

    # ------------------------------------------------------------------
    def push(self, entry: Any, shed_oldest: bool = False) -> Any | None:
        """Admit ``entry``; returns the evicted entry when shedding made room.

        Raises :class:`repro.errors.OverloadError` (``reason="queue-full"``)
        when the queue is full and either shedding is off or every queued
        request is more urgent than the newcomer.
        """
        with self._not_empty:
            total = sum(len(q) for q in self._classes.values())
            victim = None
            if total >= self._capacity:
                if not shed_oldest:
                    raise OverloadError(
                        f"admission queue full ({self._capacity} queued)",
                        reason="queue-full",
                    )
                victim = self._shed_candidate(entry.priority)
                if victim is None:
                    raise OverloadError(
                        f"admission queue full ({self._capacity} queued, all "
                        f"more urgent than the new request)",
                        reason="queue-full",
                    )
            self._classes[entry.priority].append(entry)
            self._not_empty.notify()
            return victim

    def _shed_candidate(self, incoming: Priority) -> Any | None:
        """Remove and return the oldest entry of the least-urgent nonempty
        class, or None when everything queued outranks the newcomer."""
        for priority in sorted(Priority, reverse=True):
            queue = self._classes[priority]
            if queue:
                if priority >= incoming:
                    return queue.popleft()
                return None
        return None

    # ------------------------------------------------------------------
    def pop(self) -> Any | None:
        """The most urgent queued entry (FIFO within a class), or None."""
        with self._lock:
            return self._pop_locked()

    def _pop_locked(self, lane: str | None = None) -> Any | None:
        for priority in sorted(Priority):
            queue = self._classes[priority]
            if lane is None:
                if queue:
                    return queue.popleft()
                continue
            for index, entry in enumerate(queue):
                if entry.lane == lane:
                    del queue[index]
                    return entry
        return None

    def pop_lane_wait(self, lane: str, timeout: float) -> Any | None:
        """The most urgent queued entry bound for ``lane``, waiting up to
        ``timeout`` seconds for one; None on timeout."""
        with self._not_empty:
            entry = self._pop_locked(lane)
            if entry is not None:
                return entry
            self._not_empty.wait(timeout)
            return self._pop_locked(lane)

    def drain(self) -> Iterator[Any]:
        """Remove and yield every queued entry in (priority, FIFO) order."""
        while True:
            entry = self.pop()
            if entry is None:
                return
            yield entry
