"""Bulkhead worker lanes built on the kernel's :class:`ParallelExecutor`.

Each lane owns its *own* executor with a fixed width, so a wedged branch
(a stalled video extractor, a runaway batch registration) exhausts only
its lane's threads — the interactive lane keeps serving. This is the
bulkhead pattern: failure isolation by partitioning the thread budget,
not by sharing one big pool.

Lane thunks are expected to be *total* (the service wraps request
execution so errors are recorded on the request, never raised), which
keeps :meth:`ParallelExecutor.run`'s fail-fast sibling-cancellation out
of the picture: one request's failure must not cancel its lane-mates.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.monet.parallel import ParallelExecutor

__all__ = ["BulkheadPool"]


class BulkheadPool:
    """Named lanes, each a fixed-width :class:`ParallelExecutor`."""

    def __init__(self, lanes: Mapping[str, int]):
        self._widths = dict(lanes)
        self._executors = {
            name: ParallelExecutor(threads=width) for name, width in lanes.items()
        }

    def lanes(self) -> list[str]:
        return sorted(self._widths)

    def width(self, name: str) -> int:
        return self._widths[name]

    def run_batch(
        self,
        lane: str,
        thunks: Sequence[Callable[[], Any]],
        labels: Sequence[str] | None = None,
    ) -> list[Any]:
        """Run a batch of total thunks on one lane's executor."""
        return self._executors[lane].run(thunks, labels)
