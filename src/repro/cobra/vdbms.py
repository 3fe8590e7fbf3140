"""The Cobra VDBMS facade — the three-level architecture in one object.

Conceptual level: COQL parsing + the query preprocessor (dynamic
extraction). Logical level: the Moa extension registry holding the four
extensions. Physical level: the Monet kernel with the BAT-backed metadata
store and the extensions' MEL modules.
"""

from __future__ import annotations

from contextlib import nullcontext as _null_scope
from dataclasses import dataclass, field
from typing import Any

from repro.cobra.catalog import DomainKnowledge, KnowledgeCatalog
from repro.cobra.compound import CompoundEventDef
from repro.cobra.extensions import (
    DbnExtension,
    RuleExtension,
    VideoProcessingExtension,
)
from repro.cobra.metadata import MetadataStore
from repro.cobra.model import VideoDocument
from repro.cobra.preprocessor import PreprocessReport, QueryPreprocessor
from repro.cobra.query import CoqlQuery, QueryExecutor, parse_coql
from repro.errors import CobraError, UnknownConceptError
from repro.faults import resolve_injector
from repro.hmm.parallel import HmmExtension
from repro.moa.extension import ExtensionRegistry
from repro.moa.rewrite import MoaCompiler
from repro.monet.kernel import MonetKernel
from repro.resilience import (
    CancellationToken,
    CircuitBreaker,
    Deadline,
    FailureReport,
    ResiliencePolicy,
    cancel_scope,
)

__all__ = ["QueryResult", "DrainedFailures", "CobraVDBMS"]


@dataclass
class DrainedFailures:
    """Failure reports plus the circuit-breaker panel, drained together.

    ``breakers`` maps each extraction method that has a breaker to its
    current state (``closed`` / ``open`` / ``half-open``).
    """

    failures: list[FailureReport] = field(default_factory=list)
    breakers: dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.failures)

    def __iter__(self):
        return iter(self.failures)


@dataclass
class QueryResult:
    """Records answering a query plus the preprocessing trace."""

    query: CoqlQuery
    records: list[dict[str, Any]]
    report: PreprocessReport
    #: Faults handled while answering (retries, drops, rollbacks) across
    #: all three levels — kernel command failures included.
    failures: list[FailureReport] = field(default_factory=list)
    #: Shard coverage of the answer when it came from a sharded fleet
    #: (a :class:`repro.sharding.ShardCoverageReport`); None on a
    #: single-kernel VDBMS, where the answer always covers everything.
    coverage: Any = None

    def __len__(self) -> int:
        return len(self.records)

    def intervals(self) -> list:
        return [r["interval"] for r in self.records]

    @property
    def degraded(self) -> bool:
        """True when the answer was computed from less than was asked."""
        if self.coverage is not None and not self.coverage.complete:
            return True
        return self.report.degraded

    def degradations(self) -> list[str]:
        """Human-readable list of everything dropped or recovered from."""
        notes = [
            f"dropped kind {kind!r}: {reason}" for kind, reason in self.report.dropped
        ]
        if self.coverage is not None and not self.coverage.complete:
            notes.append(f"partial shard coverage: {self.coverage.describe()}")
        notes.extend(str(f) for f in self.failures)
        return notes


class CobraVDBMS:
    """The prototype video DBMS (Fig. 2).

    Usage::

        db = CobraVDBMS()
        db.register_domain(knowledge)           # models + methods
        db.register_document(document, "formula1")
        result = db.query('RETRIEVE fly_out WHERE ROLE driver = HAKKINEN')
    """

    def __init__(
        self,
        threads: int = 4,
        check: str = "error",
        faults: Any = None,
        resilience: ResiliencePolicy | None = None,
        store: Any = None,
    ):
        self.faults = resolve_injector(faults)
        self.resilience = resilience or ResiliencePolicy()
        #: ``store`` (a directory path or :class:`repro.durability
        #: .DurableStore`) makes the catalog durable: registered documents
        #: and preprocessor extraction results survive a restart, and the
        #: startup :class:`RecoveryReport` lands on :attr:`recovery`.
        self.kernel = MonetKernel(
            threads=threads,
            check=check,
            faults=self.faults,
            resilience=self.resilience,
            store=store,
        )
        self.recovery = self.kernel.recovery
        self.metadata = MetadataStore(self.kernel)
        self.extensions = ExtensionRegistry(faults=self.faults)
        self.compiler = MoaCompiler(
            self.kernel, extensions=self.extensions, check=check
        )
        self.catalog = KnowledgeCatalog()
        self._domain_of_video: dict[str, str] = {}
        self._videos_of_domain: dict[str, list[str]] = {}
        self._compound_defs: dict[str, CompoundEventDef] = {}
        #: Per-extraction-method circuit breakers, persisted across queries
        #: so a flapping extractor's failure history is not forgotten.
        self._breakers: dict[str, CircuitBreaker] = {}

        # the four extensions of §3
        self.videoproc = VideoProcessingExtension()
        self.hmm = HmmExtension(self.kernel, n_servers=6)
        self.dbn = DbnExtension(self.kernel, check=check)
        self.rules = RuleExtension()
        for extension in (self.videoproc, self.hmm, self.dbn, self.rules):
            self.extensions.register(extension)

    @property
    def diagnostics(self) -> list[Any]:
        """Static-analysis findings collected across all three levels."""
        return (
            self.kernel.diagnostics
            + list(self.compiler.diagnostics)
            + list(self.dbn.diagnostics)
        )

    # ------------------------------------------------------------------
    # domains & documents
    # ------------------------------------------------------------------
    def register_domain(self, knowledge: DomainKnowledge) -> None:
        self.catalog.add_domain(knowledge)

    def register_document(
        self,
        document: VideoDocument,
        domain: str,
        token: CancellationToken | None = None,
    ) -> None:
        """Register a video under a domain; its metadata becomes queryable.

        Runs in a kernel transaction: the document's event and object rows
        land in the metadata BATs atomically, and on a durable kernel the
        whole registration is one WAL commit. ``token`` (from the service's
        batch lane) makes the registration cancellable; cancellation rolls
        the transaction back, so no partial document is ever visible.
        """
        self.catalog.domain(domain)  # raises if unknown
        with cancel_scope(token) if token is not None else _null_scope():
            with self.kernel.transaction():
                self.metadata.register_document(document)
        self._domain_of_video[document.raw.video_id] = domain
        self._videos_of_domain.setdefault(domain, []).append(document.raw.video_id)

    def document(self, video_id: str) -> VideoDocument:
        return self.metadata.document(video_id)

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(
        self, coql: str | CoqlQuery, token: CancellationToken | None = None
    ) -> QueryResult:
        """Parse, preprocess (extracting missing metadata), and execute.

        The whole round runs under the policy's query budget; faults the
        layers recovered from (kernel retries, dropped extraction kinds,
        rollbacks) are gathered on ``QueryResult.failures``.

        ``token`` (from the service layer) rides as the deadline *and* as
        the ambient cancellation token, so every checkpoint down to MIL
        statement dispatch observes both expiry and explicit cancellation.
        """
        parsed = parse_coql(coql) if isinstance(coql, str) else coql
        self.kernel.drain_failures()  # don't attribute stale faults here
        deadline = token if token is not None else self.resilience.query_deadline()
        with cancel_scope(token) if token is not None else _null_scope():
            report = self._preprocess(parsed, deadline)
            try:
                records = QueryExecutor(self.metadata).execute(parsed)
            except UnknownConceptError:
                # A kind whose extraction was dropped under the degrade
                # policy may be entirely absent from the store: answer
                # empty rather than failing a query we deliberately kept
                # alive.
                if not any(kind == parsed.kind for kind, _ in report.dropped):
                    raise
                records = []
        failures = list(report.failures) + self.kernel.drain_failures()
        return QueryResult(parsed, records, report, failures=failures)

    def _preprocess(
        self, query: CoqlQuery, deadline: Deadline | None = None
    ) -> PreprocessReport:
        """Each domain's knowledge prepares that domain's videos only; the
        reports merge into one."""
        if query.video is not None:
            targets = {self._domain_of(query.video): [query.video]}
        else:
            targets = {
                domain: sorted(videos)
                for domain, videos in sorted(self._videos_of_domain.items())
            }
        report: PreprocessReport | None = None
        for domain, videos in targets.items():
            preprocessor = QueryPreprocessor(
                self.metadata,
                self.catalog.domain(domain),
                kernel=self.kernel,
                resilience=self.resilience,
                faults=self.faults,
                breakers=self._breakers,
            )
            prepared = preprocessor.prepare(query, videos, deadline)
            report = prepared if report is None else report.merge(prepared)
        if report is None:
            raise CobraError("no videos registered")
        return report

    def _domain_of(self, video_id: str) -> str:
        try:
            return self._domain_of_video[video_id]
        except KeyError:
            raise CobraError(f"unknown video {video_id!r}") from None

    # ------------------------------------------------------------------
    # operations: failures, breakers, durability
    # ------------------------------------------------------------------
    def drain_failures(self) -> DrainedFailures:
        """Drain accumulated failure reports, with the breaker panel."""
        return DrainedFailures(
            failures=self.kernel.drain_failures(),
            breakers=self.breaker_states(),
        )

    def breaker_states(self) -> dict[str, str]:
        """Current state of every per-extraction-method circuit breaker."""
        return {
            name: breaker.state
            for name, breaker in sorted(self._breakers.items())
        }

    def checkpoint(self) -> int:
        """Fold the durable kernel's WAL into a fresh checkpoint."""
        return self.kernel.checkpoint()

    def close(self) -> None:
        """Release the durable store (no-op for an in-memory kernel)."""
        self.kernel.close()

    # ------------------------------------------------------------------
    # compound events (§5.6)
    # ------------------------------------------------------------------
    def define_compound_event(self, definition: CompoundEventDef) -> None:
        if definition.name in self._compound_defs:
            raise CobraError(
                f"compound event {definition.name!r} already defined"
            )
        self._compound_defs[definition.name] = definition

    def materialize_compound_event(self, name: str, video_id: str) -> int:
        """Evaluate a compound definition and store the found events.

        Returns the number of new events — "adding a newly defined event
        ... will speed up the future retrieval of this event".
        """
        try:
            definition = self._compound_defs[name]
        except KeyError:
            raise CobraError(f"no compound event named {name!r}") from None
        # component kinds may themselves need dynamic extraction first
        for component in definition.components:
            self._preprocess(CoqlQuery(kind=component.kind, video=video_id))
        return len(definition.materialize(self.metadata, video_id))
