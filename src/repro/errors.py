"""Exception hierarchy for the Cobra VDBMS reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type at an API boundary. Subsystem errors mirror the
three-level DBMS architecture of the paper: kernel (Monet), algebra (Moa),
and conceptual (Cobra) levels, plus the probabilistic engines.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class TransientError(ReproError):
    """A fault where retrying the same operation may well succeed.

    Retry policies (:class:`repro.resilience.RetryPolicy`) only ever retry
    errors in this branch of the hierarchy; everything else is assumed to be
    deterministic and fails fast.
    """


class PermanentError(ReproError):
    """A deterministic fault retrying cannot fix (bad input/plan/model)."""


def is_transient(error: BaseException) -> bool:
    """Whether a retry of the failing operation could plausibly succeed."""
    return isinstance(error, TransientError)


def annotate(error: BaseException, note: str) -> BaseException:
    """Attach origin context to an exception without changing its type.

    Uses PEP 678 notes on Python >= 3.11; on 3.10 the note is folded into
    the message when the args are a plain one-string tuple, and always kept
    on ``error.context_notes`` for programmatic access.
    """
    notes = getattr(error, "context_notes", [])
    error.context_notes = [*notes, note]
    if hasattr(error, "add_note"):
        error.add_note(note)
    elif len(error.args) == 1 and isinstance(error.args[0], str):
        error.args = (f"{error.args[0]}\n  {note}",)
    return error


class DeadlineExceeded(ReproError):
    """A per-call or per-query monotonic-clock budget expired.

    Base of :class:`TimeoutExpired`, kept so existing ``except
    DeadlineExceeded`` handlers keep working; new code should raise and
    catch :class:`TimeoutExpired`, which is transient and carries the
    overshoot.
    """

    def __init__(self, message: str, site: str | None = None):
        self.site = site
        if site is not None:
            message = f"{message} (at {site})"
        super().__init__(message)


class TimeoutExpired(DeadlineExceeded, TransientError):
    """A deadline check fired: the budget is spent at a named site.

    Transient — the same operation may well succeed under a fresh budget —
    so :meth:`repro.resilience.FailureReport.from_exception` classifies it
    as retryable; but :class:`repro.resilience.RetryPolicy` never retries
    it (``GIVE_UP_ON``) because retrying under the *same* exhausted
    deadline cannot help. Carries ``site`` (where the check fired) and
    ``overshoot`` (seconds past the deadline when it was noticed).
    """

    def __init__(
        self,
        message: str,
        site: str | None = None,
        overshoot: float | None = None,
    ):
        self.overshoot = overshoot
        if overshoot is not None:
            message = f"{message} (overshot by {overshoot:.3f}s)"
        super().__init__(message, site=site)


class OverloadError(TransientError):
    """The query service refused work to protect itself.

    Raised by admission control (queue full, rate limit, draining) and by
    the shed-oldest policy when a queued request is evicted under sustained
    saturation. Transient — the client may retry after ``retry_after``
    seconds — but retry policies exclude it by default so a saturated
    service is not hammered. ``reason`` is one of ``"queue-full"``,
    ``"rate-limited"``, ``"draining"``, ``"shed"``, ``"bulkhead-full"``.
    """

    def __init__(
        self,
        message: str,
        reason: str = "queue-full",
        retry_after: float | None = None,
    ):
        self.reason = reason
        self.retry_after = retry_after
        super().__init__(message)


class RequestCancelled(ReproError):
    """A cooperatively cancelled request observed its cancellation token.

    Deliberately neither transient nor permanent: the work itself was
    fine — somebody (the client, or a draining service) asked it to stop.
    """

    def __init__(self, message: str, site: str | None = None):
        self.site = site
        if site is not None:
            message = f"{message} (at {site})"
        super().__init__(message)


class CircuitOpenError(TransientError):
    """A circuit breaker is open and the call was rejected without running.

    Transient — the breaker may close after its recovery timeout — but
    retry policies treat it as non-retryable by default so an open circuit
    keeps failing fast instead of being hammered.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        self.retry_after = retry_after
        super().__init__(message)


class InjectedFault(ReproError):
    """Base class for faults raised by :mod:`repro.faults` injection."""

    def __init__(self, message: str, site: str | None = None):
        self.site = site
        super().__init__(message)


class SimulatedCrash(BaseException):
    """An injected process kill (``kind="kill"`` fault at a crash point).

    Deliberately a :class:`BaseException`, not a :class:`ReproError`: a real
    ``kill -9`` is not catchable, so generic ``except Exception`` recovery
    paths (retry loops, degradation handlers) must not absorb it. Only a
    chaos harness that models the process boundary should catch it, discard
    the "dead" process state, and drive recovery from disk.
    """

    def __init__(self, message: str, site: str | None = None):
        self.site = site
        if site is not None:
            message = f"{message} (at {site})"
        super().__init__(message)


class InjectedTransientError(InjectedFault, TransientError):
    """An injected fault that models a recoverable glitch."""


class InjectedPermanentError(InjectedFault, PermanentError):
    """An injected fault that models a hard, deterministic failure."""


class MonetError(ReproError):
    """Error raised by the Monet-style binary-relational kernel."""


class AtomTypeError(MonetError, PermanentError):
    """A value does not conform to the declared atom type of a column."""


class BatError(MonetError, PermanentError):
    """Structural misuse of a BAT (arity, alignment, missing key)."""


class DurabilityError(MonetError):
    """Error in the durability layer (WAL, checkpoints, recovery)."""


class WalCorruptionError(DurabilityError):
    """The write-ahead log is structurally damaged beyond safe truncation."""


class RecoveryError(DurabilityError, PermanentError):
    """Crash recovery could not reconstruct a consistent catalog.

    Raised when the checkpoint is unreadable or the recovered catalog fails
    the :mod:`repro.check` invariants — replaying the same store will fail
    the same way, so the error is permanent.
    """


class ReplicationError(MonetError):
    """Error in the replicated kernel group (WAL shipping, failover)."""


class FencedWriteError(ReplicationError, PermanentError):
    """A write carrying a stale epoch was rejected by the fence.

    Raised when a deposed primary (or any holder of an old epoch lease)
    tries to mutate the group after a failover. Permanent by design: the
    caller's view of the world is obsolete and retrying the same write
    under the same lease can never succeed — it must re-acquire a lease
    from the current primary. Carries both epochs for the audit trail.
    """

    def __init__(self, message: str, lease_epoch: int, group_epoch: int):
        self.lease_epoch = lease_epoch
        self.group_epoch = group_epoch
        super().__init__(
            f"{message} (lease epoch {lease_epoch}, group epoch {group_epoch})"
        )


class ShardingError(MonetError):
    """Error in the sharded kernel fleet (placement, scatter-gather)."""


class PlacementError(ShardingError, PermanentError):
    """The placement map and the shard catalogs disagree.

    Raised when a write is presented for a shard that does not own the
    document, or when recovery finds a journaled placement no shard can
    attest — retrying the same operation against the same map cannot
    succeed.
    """


class InsufficientCoverageError(ShardingError, TransientError):
    """A gather lost too many shards to honor the caller's coverage floor.

    Transient — dead shards rebalance away, breakers close, stragglers
    catch up — so a retry may well see more of the corpus; but the fleet
    never silently returns an answer computed from less than the caller's
    ``min_coverage`` fraction of the documents. Carries the achieved
    ``coverage``, the ``required`` floor, and the full
    :class:`repro.sharding.ShardCoverageReport` for the audit trail.
    """

    def __init__(self, message: str, coverage: float, required: float, report=None):
        self.coverage = coverage
        self.required = required
        self.report = report
        super().__init__(
            f"{message} (covered {coverage:.3f} of the corpus, "
            f"floor {required:.3f})"
        )


class ShardConfigError(ShardingError, ValueError):
    """A fleet configuration value is outside its legal domain.

    Raised at :class:`repro.sharding.ShardedKernel` construction (and for
    per-call overrides) when a coverage floor falls outside [0, 1] or a
    catch-up lag floor is negative — a typed :class:`ValueError` so the
    misconfiguration fails where it was written, not silently at gather
    time where an impossible floor would reject (or wave through) every
    answer.
    """


class MigrationError(ShardingError):
    """Error in the online shard split/migration subsystem."""


class MigrationLagError(MigrationError, TransientError):
    """Cutover refused: the destination lags the source beyond the floor.

    Transient by design — another catch-up round ships more of the
    source's WAL tail for the moving document, so a retry after
    ``catch_up`` may well succeed. Carries the observed ``lag`` (pending
    tail records), the configured ``floor``, and the moving ``video`` id.
    """

    def __init__(self, message: str, lag: int, floor: int, video: str = ""):
        self.lag = lag
        self.floor = floor
        self.video = video
        super().__init__(
            f"{message} (lag {lag} record(s), floor {floor})"
        )


class MilError(MonetError):
    """Base error for the MIL interpreter."""


class MilSyntaxError(MilError, PermanentError):
    """The MIL source text could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MilNameError(MilError, PermanentError):
    """Reference to an unknown MIL variable, procedure, or command."""


class MilRecursionError(MilError, PermanentError):
    """PROC call nesting exceeded the interpreter's depth limit.

    Raised by :meth:`repro.monet.mil.MilInterpreter._call_proc` instead of
    letting recursive MIL blow the Python stack. The limit is
    :data:`repro.monet.mil.MIL_RECURSION_LIMIT` — the same bound the CALL002
    whole-program diagnostic cites when it flags statically-unbounded
    recursion at registration time. Carries the ``proc`` whose call tipped
    over and the ``depth`` reached.
    """

    def __init__(self, message: str, proc: str | None = None, depth: int | None = None):
        self.proc = proc
        self.depth = depth
        super().__init__(message)


class MilTypeError(MilError, PermanentError):
    """A MIL operation was applied to operands of the wrong type."""


class MoaError(ReproError):
    """Error in the Moa object algebra layer."""


class MoaTypeError(MoaError, PermanentError):
    """A Moa expression does not type-check against its structures."""


class MoaNameError(MoaError, PermanentError):
    """Reference to an unknown Moa extension or extension operator.

    Carries ``suggestions`` — close-matching known names — so callers can
    render a "did you mean" hint.
    """

    def __init__(self, message: str, suggestions: "list[str] | None" = None):
        self.suggestions = list(suggestions or [])
        if self.suggestions:
            hint = ", ".join(repr(s) for s in self.suggestions)
            message = f"{message} (did you mean {hint}?)"
        super().__init__(message)


class CobraError(ReproError):
    """Error at the conceptual (Cobra VDBMS) level."""


class QuerySyntaxError(CobraError, PermanentError):
    """A COQL query string could not be parsed."""


class UnknownConceptError(CobraError, PermanentError):
    """A query references an object/event concept the catalog does not know."""


class ExtractionError(CobraError):
    """A dynamic feature/semantic extraction invocation failed.

    Transiency depends on the cause, so this base commits to neither; use
    :class:`TransientExtractionError` when the underlying failure was
    transient (the preprocessor re-wraps accordingly).
    """


class TransientExtractionError(ExtractionError, TransientError):
    """An extraction failure whose underlying cause was transient."""


class InferenceError(ReproError):
    """Error inside a probabilistic engine (BN, DBN, or HMM)."""


class GraphStructureError(InferenceError, PermanentError):
    """A network definition is not a DAG or references unknown nodes."""


class CpdError(InferenceError, PermanentError):
    """A conditional probability table is malformed or unnormalized."""


class LearningError(InferenceError, PermanentError):
    """Parameter learning failed (empty data, dimension mismatch, ...)."""


class SignalError(ReproError):
    """Error in the audio/video/text signal-processing substrates."""


class SynthesisError(ReproError):
    """Error while synthesizing a Formula 1 race."""


class RuleError(ReproError):
    """Error in the rule-based inference extension."""


class DiagnosticError(PermanentError):
    """A static checker found error-severity diagnostics.

    The offending :class:`repro.check.Diagnostic` objects ride along on
    ``diagnostics`` so callers can render per-line findings.
    """

    def __init__(self, message: str, diagnostics: "Sequence | None" = None):
        self.diagnostics = list(diagnostics or [])
        if self.diagnostics:
            details = "\n".join(f"  {d}" for d in self.diagnostics)
            message = f"{message}\n{details}"
        super().__init__(message)


class CatalogCheckError(DiagnosticError, MonetError):
    """Catalog invariant checking found error-severity diagnostics.

    Raised by crash recovery before a restored catalog is opened for use,
    and available standalone through :func:`repro.check.check_catalog`.
    """


class MilCheckError(DiagnosticError, MilError):
    """Static analysis rejected a MIL procedure before execution."""


class SanitizerError(DiagnosticError, MonetError):
    """The runtime sanitizer (``check="sanitize"``) caught a violation.

    Raised while a plan executes: a conflicting catalog write across
    PARALLEL branches (RACE001), a catalog mutation from a thread that
    does not own the open transaction (RACE005), or a command value-range
    contract broken by actual data (FLOW005). The offending diagnostics
    ride along like on every :class:`DiagnosticError`.
    """


class MoaCheckError(DiagnosticError, MoaError):
    """Static analysis rejected a Moa expression before compilation."""


class ShardingCheckError(DiagnosticError, ShardingError):
    """Static analysis rejected MIL registered on a sharded fleet.

    Raised by :meth:`repro.sharding.ShardedKernel.run` when the ``scatter``
    stage of the MIL pass pipeline finds error-severity findings in source
    registered for scatter execution."""


class ModelCheckError(DiagnosticError, InferenceError):
    """Static analysis rejected a BN/DBN model before registration."""
