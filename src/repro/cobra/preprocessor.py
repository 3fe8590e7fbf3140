"""The query preprocessor (§2).

"Dynamic feature/semantic extraction is facilitated by a query
pre-processor. It checks the availability of required metadata needed to
resolve the query. If metadata is not available it invokes feature/semantic
extraction engines to extract it dynamically. ... Depending on the
(un)availability of metadata ... as well as the cost and quality models of
the method, it makes a decision which method and feature set to use."

Extraction is the least reliable stage of the pipeline — it runs arbitrary
detector code against broadcast material — so every dynamic extraction is
executed under the resilience policy: retried on transient faults, guarded
by a per-method circuit breaker, and (when a kernel is attached) persisted
inside a catalog transaction so a failure cannot leave half-written event
BATs behind. In ``degrade`` mode a kind whose extraction keeps failing is
dropped from the query instead of aborting it, and the drop is recorded on
the :class:`PreprocessReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cobra.catalog import DomainKnowledge, ExtractionMethod
from repro.cobra.metadata import MetadataStore
from repro.cobra.query import CoqlQuery
from repro.errors import (
    ExtractionError,
    RequestCancelled,
    TimeoutExpired,
    TransientError,
    TransientExtractionError,
    UnknownConceptError,
)
from repro.faults import resolve_injector
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    FailureReport,
    ResiliencePolicy,
    cancel_checkpoint,
)

__all__ = [
    "PreprocessReport",
    "QueryPreprocessor",
    "ScatterPlan",
    "choose_scatter_plan",
]


@dataclass(frozen=True)
class ScatterPlan:
    """The preprocessor's cost-model verdict for one sharded gather.

    ``mode`` is ``"shard-local"`` (one shard owns everything the query
    touches), ``"fan-out"`` (scatter concurrently: longest shard plus the
    per-branch overhead beats visiting the shards in turn), or
    ``"sequential"`` (the fan-out overhead exceeds its concurrency win —
    the exact situation :mod:`repro.check.costcheck` flags as PERF006, so
    the planner refuses to scatter it).
    """

    mode: str
    shards: tuple[str, ...]
    fan_out_cost: float
    sequential_cost: float


def choose_scatter_plan(
    query: CoqlQuery, shard_costs: "dict[str, float]"
) -> ScatterPlan:
    """Choose between shard-local, fan-out, and sequential gather plans.

    This is the sharded analogue of :meth:`QueryPreprocessor
    ._choose_method`: a document-aware cost decision instead of a static
    rule. ``shard_costs`` maps each candidate shard to the estimated rows
    it would scan for this query (the fleet derives it from the feature
    and event rows of the documents placed there). The comparison reuses
    :data:`repro.check.costcheck.BRANCH_OVERHEAD` — the same constant the
    PERF006 lint charges per ``PARALLEL`` branch — so a gather the static
    pass would flag as fan-out-costlier-than-shard-local is exactly the
    gather this function executes sequentially instead. That is what makes
    PERF006 actionable: the advisory lint and the runtime planner apply
    one cost model.
    """
    from repro.check.costcheck import BRANCH_OVERHEAD

    targets = dict(sorted(shard_costs.items()))
    names = tuple(targets)
    sequential = float(sum(targets.values()))
    fan_out = float(max(targets.values(), default=0.0)) + BRANCH_OVERHEAD * len(
        targets
    )
    if query.video is not None or len(targets) <= 1:
        return ScatterPlan("shard-local", names, fan_out, sequential)
    if fan_out >= sequential:
        return ScatterPlan("sequential", names, fan_out, sequential)
    return ScatterPlan("fan-out", names, fan_out, sequential)


@dataclass
class PreprocessReport:
    """What the preprocessor did to make a query answerable."""

    required_kinds: list[str]
    available: list[str] = field(default_factory=list)
    extracted: list[tuple[str, str]] = field(default_factory=list)  # (kind, method)
    #: Event kinds the query gave up on, as ``(kind, reason)`` pairs.
    dropped: list[tuple[str, str]] = field(default_factory=list)
    #: Structured records of every fault handled along the way.
    failures: list[FailureReport] = field(default_factory=list)

    @property
    def ran_extraction(self) -> bool:
        return bool(self.extracted)

    @property
    def degraded(self) -> bool:
        """True when the answer comes from less metadata than requested."""
        return bool(self.dropped)

    def merge(self, other: "PreprocessReport") -> "PreprocessReport":
        """Fold in the report of the same query over other videos."""
        self.available += [k for k in other.available if k not in self.available]
        self.extracted += other.extracted
        self.dropped += other.dropped
        self.failures += other.failures
        return self


class QueryPreprocessor:
    """Metadata-availability analysis + dynamic extraction dispatch.

    ``breakers`` may be shared by the owning VDBMS so a method's failure
    history survives across queries; ``kernel`` (when given) provides the
    transactional catalog used to roll back failed extractions.
    """

    def __init__(
        self,
        metadata: MetadataStore,
        knowledge: DomainKnowledge,
        *,
        kernel: Any = None,
        resilience: ResiliencePolicy | None = None,
        faults: Any = None,
        breakers: dict[str, CircuitBreaker] | None = None,
    ):
        self._metadata = metadata
        self._knowledge = knowledge
        self._kernel = kernel
        self._resilience = resilience or ResiliencePolicy()
        self._faults = resolve_injector(faults)
        self._breakers = breakers if breakers is not None else {}

    def required_kinds(self, query: CoqlQuery) -> list[str]:
        """Event kinds the query touches (target + temporal joins)."""
        kinds = [query.kind]
        for condition in query.conditions:
            if condition.kind == "temporal":
                other = condition.get("other")
                if other not in kinds:
                    kinds.append(other)
        return kinds

    def prepare(
        self,
        query: CoqlQuery,
        videos: list[str],
        deadline: Deadline | None = None,
    ) -> PreprocessReport:
        """Ensure all metadata a query needs exists, extracting on demand.

        ``videos`` are the query's targets among this domain's videos.
        For every required kind, one availability probe
        (:meth:`MetadataStore.videos_without`) names the targets that lack
        it, however many there are; for each of those, pick the best
        applicable extraction method (the cheapest estimated plan within
        the top quality band — see :meth:`_choose_method`) and run it,
        persisting the produced events. Under a ``degrade`` policy a kind
        whose extraction fails is dropped (and reported) instead of
        aborting the whole query.
        """
        report = PreprocessReport(self.required_kinds(query))
        for kind in report.required_kinds:
            cancel_checkpoint(f"preprocess:{kind}")
            if deadline is not None:
                deadline.check(f"preprocess:{kind}")
            missing = self._metadata.videos_without(kind, videos)
            if len(missing) < len(videos):
                report.available.append(kind)
            for video_id in missing:
                cancel_checkpoint(f"preprocess:{kind}")
                if deadline is not None:
                    deadline.check(f"preprocess:{kind}")
                method = self._choose_method(kind, video_id)
                if method is None:
                    raise UnknownConceptError(
                        f"no stored events of kind {kind!r} for video "
                        f"{video_id!r} and no extraction method can produce it"
                    )
                try:
                    self._run_method(method, video_id, report, deadline)
                except Exception as exc:  # noqa: BLE001 - policy decides
                    if not self._resilience.degrade:
                        raise
                    reason = f"{type(exc).__name__}: {exc}"
                    report.dropped.append((kind, reason))
                    report.failures.append(
                        FailureReport.from_exception(
                            f"extractor:{method.name}",
                            exc,
                            action="dropped",
                            detail=f"kind {kind!r} on video {video_id!r}",
                        )
                    )
                else:
                    report.extracted.append((kind, method.name))
        return report

    # ------------------------------------------------------------------
    def _choose_method(self, kind: str, video_id: str) -> ExtractionMethod | None:
        """Cost-model plan choice over the applicable extraction methods.

        The catalog's static ordering (quality, then declared unit cost)
        ignores the document: a method with a low unit cost can still be
        the expensive plan when its prerequisite feature tracks are long.
        Selection therefore keeps the methods within
        :data:`repro.check.costcheck.QUALITY_TOLERANCE` of the best
        applicable quality and picks the lowest *estimated* cost —
        ``unit cost x feature rows actually scanned on this document``
        (:func:`repro.check.costcheck.estimate_extraction_cost`) — with
        quality, then name, as deterministic tie-breaks.
        """
        from repro.check.costcheck import (
            QUALITY_TOLERANCE,
            estimate_extraction_cost,
        )

        document = self._metadata.document(video_id)
        applicable = [
            method
            for method in self._knowledge.methods_for(kind)
            if all(document.has_feature(f) for f in method.requires_features)
        ]
        if not applicable:
            return None
        best_quality = max(method.quality for method in applicable)
        band = [
            method
            for method in applicable
            if method.quality >= best_quality - QUALITY_TOLERANCE
        ]
        return min(
            band,
            key=lambda method: (
                estimate_extraction_cost(method, document),
                -method.quality,
                method.name,
            ),
        )

    def _breaker_for(self, method: ExtractionMethod) -> CircuitBreaker:
        breaker = self._breakers.get(method.name)
        if breaker is None:
            breaker = self._resilience.new_breaker(f"extractor:{method.name}")
            self._breakers[method.name] = breaker
        return breaker

    def _run_method(
        self,
        method: ExtractionMethod,
        video_id: str,
        report: PreprocessReport,
        deadline: Deadline | None = None,
    ) -> None:
        site = f"extractor:{method.name}"
        breaker = self._breaker_for(method)

        def attempt() -> list:
            breaker.allow()
            try:
                self._faults.on_call(site)
                cancel_checkpoint(site)
                events = method.extract(document)
            except (TimeoutExpired, RequestCancelled):
                # Not the extractor's fault: the caller's budget expired or
                # the request was cancelled. Give the half-open probe slot
                # back (no outcome to record) and propagate.
                breaker.release_probe()
                raise
            except TransientError as exc:
                breaker.record_failure()
                raise TransientExtractionError(
                    f"extraction method {method.name!r} hit a transient fault "
                    f"on {video_id!r}: {exc}"
                ) from exc
            except Exception as exc:  # noqa: BLE001 - boundary translation
                breaker.record_failure()
                raise ExtractionError(
                    f"extraction method {method.name!r} failed on {video_id!r}: {exc}"
                ) from exc
            breaker.record_success()
            return list(events)

        def on_retry(attempts: int, exc: BaseException) -> None:
            report.failures.append(
                FailureReport.from_exception(
                    site, exc, action="retried", attempts=attempts
                )
            )

        document = self._metadata.document(video_id)
        events = self._resilience.retry.call(
            attempt, site=site, deadline=deadline, on_retry=on_retry
        )
        self._record_events(video_id, document, events)

    def _record_events(self, video_id: str, document: Any, events: list) -> None:
        """Persist extracted events; atomic when a kernel is attached.

        The kernel transaction rolls back the event BATs; the in-memory
        ``document.events`` additions are undone alongside so both views of
        the metadata stay consistent after a failed run.
        """
        added: list[str] = []
        try:
            if self._kernel is not None:
                with self._kernel.transaction():
                    self._persist(video_id, document, events, added)
            else:
                self._persist(video_id, document, events, added)
        except Exception:
            for event_id in added:
                document.events.pop(event_id, None)
            raise

    def _persist(
        self, video_id: str, document: Any, events: list, added: list[str]
    ) -> None:
        for event in events:
            if event.event_id not in document.events:
                added.append(event.event_id)
            document.events[event.event_id] = event
            self._metadata.store_event(video_id, event)
