"""The Monet kernel facade.

Ties together the BAT catalog, the MIL interpreter, the thread pool, and the
MEL-style module registry into the "extensible parallel database kernel used
at the physical level" of the paper's three-level architecture.
"""

from __future__ import annotations

import math
import threading
import time
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.errors import MonetError, SimulatedCrash, TimeoutExpired, annotate
from repro.faults import FaultInjector, FaultPlan, resolve_injector
from repro.monet.atoms import ATOMS
from repro.monet.bat import BAT
from repro.monet.mil import MilInterpreter
from repro.monet.module import CommandSignature, MonetModule
from repro.monet.parallel import ParallelExecutor
from repro.resilience import (
    Deadline,
    FailureReport,
    ResiliencePolicy,
    cancel_checkpoint,
    current_token,
)

if TYPE_CHECKING:  # imported lazily at runtime: durability layers on monet
    from repro.durability.store import DurableStore, RecoveryReport

__all__ = ["MonetKernel"]


class MonetKernel:
    """An in-memory binary-relational kernel with MIL and MEL extensibility.

    Typical use::

        kernel = MonetKernel()
        kernel.load_module(HmmModule(...))
        kernel.run(mil_source)              # define PROCs
        result = kernel.call("hmmP", bats)  # invoke one

    Named BATs are persisted in the catalog and visible to MIL by name.

    ``check`` sets the strictness of the static analyzers that run on every
    ``PROC`` definition: ``"error"`` (default) rejects procedures with
    error-severity findings, ``"warn"`` only collects diagnostics,
    ``"off"`` disables analysis, and ``"sanitize"`` rejects like
    ``"error"`` *and* arms the runtime sanitizer
    (:class:`repro.check.sanitize.KernelSanitizer`) so parallel fan-outs,
    catalog writes, and range-contracted commands are also checked while
    plans execute.

    ``faults`` is an opt-in :class:`repro.faults.FaultInjector` (or plan)
    consulted before every command invocation (site
    ``kernel.command:<name>``); ``resilience`` configures the retry policy
    and deadlines guarding those invocations. Transient command failures are
    retried with exponential backoff and recoveries are recorded as
    :class:`FailureReport` entries on :attr:`failures`.

    ``transaction()`` scopes are savepoints by watermark: entry records
    each BAT's column lists and row count — O(#BATs), nothing copied but
    BATs of mutable values — and a rollback cuts grown columns back to
    those counts in place.

    ``store`` opts into durability: pass a directory path (or a configured
    :class:`repro.durability.DurableStore`) and the kernel recovers the
    catalog, PROC definitions, and expected module list from it at startup,
    then write-ahead-logs every catalog mutation. ``transaction()`` becomes
    the WAL commit boundary: what the catalog gained over what the store
    holds — the rows appended to a BAT that only grew, the whole BAT
    otherwise — is group-committed (fsynced) when the outermost transaction
    exits cleanly. A durable write therefore costs the rows it wrote plus
    O(#BATs), not the catalog.
    The :class:`RecoveryReport` of the startup recovery is on
    :attr:`recovery`; modules named in :attr:`expected_modules` must be
    re-loaded by the caller (module code cannot be serialized).
    """

    def __init__(
        self,
        threads: int = 2,
        check: str = "error",
        faults: "FaultInjector | FaultPlan | None" = None,
        resilience: ResiliencePolicy | None = None,
        store: "DurableStore | str | Path | None" = None,
    ):
        # imported lazily: the repro.check modules import this package
        from repro.check.diagnostics import CheckMode

        check = CheckMode.of(check)
        self._catalog: dict[str, BAT] = {}
        self._modules: dict[str, MonetModule] = {}
        self._executor = ParallelExecutor(threads=threads)
        self._commands: dict[str, Callable[..., Any]] = {}
        self._signatures: dict[str, CommandSignature] = {}
        self.faults = resolve_injector(faults)
        self.resilience = resilience or ResiliencePolicy()
        #: Structured FailureReports (retries, rollbacks) in event order.
        self.failures: list[FailureReport] = []
        self._active_deadline: Deadline | None = None
        #: Savepoint stack, one per open ``transaction()``: name -> (BAT,
        #: :meth:`BAT._savepoint`).
        self._txn_stack: list[dict[str, tuple[BAT, Any]]] = []
        self._txn_owner: int | None = None
        self._in_recovery = False
        #: RecoveryReport of the startup recovery (None without a store).
        self.recovery: RecoveryReport | None = None
        #: Module names the recovered state expects the caller to re-load.
        self.expected_modules: list[str] = []
        self._sanitizer = None
        if check is CheckMode.SANITIZE:
            from repro.check.sanitize import KernelSanitizer

            self._sanitizer = KernelSanitizer(weakref.proxy(self))
        self._install_builtins()
        self._mil = MilInterpreter(
            commands=self._commands,
            globals_scope=_CatalogView(self._catalog),
            run_parallel=_weakly(self._run_parallel),
            signatures=self._signatures,
            check=check,
            call_guard=_weakly(self._guarded_command),
            on_statement=_weakly(self._deadline_tick),
            on_define=_weakly(self._on_proc_defined),
        )
        self._store: DurableStore | None = None
        if store is not None:
            from repro.durability.store import DurableStore as _Store

            if isinstance(store, _Store):
                self._store = store
            else:
                self._store = _Store(store, faults=self.faults)
            self._recover_from_store()

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def persist(self, name: str, bat: BAT) -> BAT:
        """Store a BAT in the catalog under ``name`` (overwriting).

        With a durable store and no open transaction this is auto-committed:
        the full BAT image is WAL-logged and fsynced before returning.
        """
        if self._sanitizer is not None:
            self._sanitizer.on_catalog_write("persist", name, bat)
        bat.name = name
        if self._catalog.get(name) is not bat:
            # a rebound name commits as a full image, even when the new BAT
            # is a copy of the old one that has grown since
            bat.begin_lineage()
        self._catalog[name] = bat
        if self._logging_autocommit():
            self._store.log_persist(name, bat)
            self._maybe_checkpoint()
        return bat

    def bat(self, name: str) -> BAT:
        try:
            return self._catalog[name]
        except KeyError:
            raise MonetError(f"no BAT named {name!r} in the catalog") from None

    def drop(self, name: str) -> None:
        if name not in self._catalog:
            raise MonetError(f"no BAT named {name!r} in the catalog")
        if self._sanitizer is not None:
            self._sanitizer.on_catalog_write("drop", name)
        del self._catalog[name]
        if self._logging_autocommit():
            self._store.log_drop(name)
            self._maybe_checkpoint()

    def _logging_autocommit(self) -> bool:
        """True when a mutation outside any transaction must hit the WAL."""
        return (
            self._store is not None
            and not self._in_recovery
            and not self._txn_stack
        )

    def catalog_names(self) -> list[str]:
        return sorted(self._catalog)

    @property
    def catalog(self) -> dict[str, BAT]:
        """The live name -> BAT mapping itself: what log replay
        (:func:`repro.durability.store.replay`) writes a store-less
        replica's state into. Everything else goes through
        :meth:`persist` / :meth:`drop`, which log and sanitize."""
        return self._catalog

    # ------------------------------------------------------------------
    # snapshot / savepoints
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, BAT]:
        """A deep copy of the catalog (names -> copied BATs), for
        comparison: replication and fleet convergence checks, chaos
        oracles and tests hold it against a catalog later. Transactions
        do not use it (see :meth:`transaction`)."""
        return {name: bat.copy(name=name) for name, bat in self._catalog.items()}

    def _roll_back(self, saved: dict[str, tuple[BAT, Any]]) -> None:
        """Return the catalog to a savepoint (each name's BAT and its
        :meth:`BAT._savepoint`, see :meth:`transaction`): names bound since
        are dropped, and every saved BAT object is rolled back in place
        (holders of a reference — the metadata store, MIL globals — see
        it) and bound under its name again."""
        for name in [name for name in self._catalog if name not in saved]:
            del self._catalog[name]
        for name, (bat, savepoint) in saved.items():
            bat._roll_back(savepoint)
            bat.name = name
            self._catalog[name] = bat

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Catalog savepoint/rollback scope — and the WAL commit boundary.

        On any exception the catalog is rolled back to its state at entry,
        so a failed MIL ``PROC`` or preprocessor run cannot leave
        half-written BATs behind; the exception then propagates, annotated.

        Entry costs O(#BATs) and copies nothing: a savepoint records each
        BAT's column lists and row count (columns only grow in place), and
        a rollback truncates a grown BAT back to its count — see
        :meth:`BAT._savepoint`. BATs of mutable values are the exception
        and are copied at entry.

        Scopes nest as savepoints: an inner exception rolls back only the
        inner scope's changes. With a durable store, the catalog delta is
        computed and group-committed to the WAL when the *outermost* scope
        exits cleanly — inner commits release their savepoint without any
        I/O, and a rollback writes only an audit ``abort`` marker (nothing
        to undo: transaction records never reach the log before commit).
        Transactions are single-owner: opening one while another thread's
        transaction is active raises :class:`MonetError`.
        """
        me = threading.get_ident()
        if self._txn_stack and self._txn_owner != me:
            raise MonetError(
                "a transaction is already active on another thread; "
                "concurrent transactions are not supported"
            )
        saved = {name: (bat, bat._savepoint()) for name, bat in self._catalog.items()}
        self._txn_stack.append(saved)
        self._txn_owner = me
        try:
            yield
        except BaseException as exc:
            self._txn_stack.pop()
            if not self._txn_stack:
                self._txn_owner = None
            self._abandon(saved, exc, log_abort=not isinstance(exc, SimulatedCrash))
            raise
        self._txn_stack.pop()
        if self._txn_stack:
            return  # inner savepoint released; the outermost scope commits
        self._txn_owner = None
        if self._store is not None and not self._in_recovery:
            try:
                self._store.commit(self._catalog_delta(saved))
            except BaseException as exc:
                # no commit marker, so recovery drops the batch and so does
                # the catalog; no abort marker behind a write the log failed
                self._abandon(saved, exc, log_abort=False)
                raise
            self._maybe_checkpoint()

    def _abandon(
        self, saved: dict[str, tuple[BAT, Any]], exc: BaseException, log_abort: bool
    ) -> None:
        """Roll the catalog back to ``saved`` and record why; ``log_abort``
        writes the audit marker when the outermost scope ends durably."""
        self._roll_back(saved)
        self.failures.append(
            FailureReport.from_exception(
                "kernel.transaction", exc, "rolled-back",
                detail=f"catalog restored to {len(saved)} BAT(s)",
            )
        )
        if log_abort and self._store is not None and not (self._txn_stack or self._in_recovery):
            self._store.log_abort()
        annotate(exc, f"catalog rolled back to its savepoint of {len(saved)} BAT(s)")

    def _catalog_delta(self, saved: dict[str, tuple[BAT, Any]]) -> list[tuple]:
        """What one WAL commit batch carries: per BAT, the rows it gained
        since the store last logged it when it has only grown since, and
        its full image when the store cannot vouch for any row (a BAT that
        is new, rebound, or was rewritten); then the drops.

        A BAT of mutable values is never vouched for, so it is logged in
        full whenever it differs from the copy its name's BAT was saved as
        at transaction entry.
        """
        delta: list[tuple] = []
        for name, bat in self._catalog.items():
            at = self._store.rows_logged(name, bat)
            if at is None:
                _, entry_copy = saved.get(name, (None, None))
                if not (
                    bat.holds_mutable_values
                    and isinstance(entry_copy, BAT)
                    and entry_copy.equals(bat)
                ):
                    delta.append(("persist", name, bat))
            elif at < len(bat):
                delta.append(("append", name, bat, at))
        for name in saved:
            if name not in self._catalog:
                delta.append(("drop", name))
        return delta

    # ------------------------------------------------------------------
    # modules & commands
    # ------------------------------------------------------------------
    def load_module(self, module: MonetModule) -> None:
        """Register a MEL-style module's commands and atom types."""
        if module.name in self._modules:
            raise MonetError(f"module {module.name!r} already loaded")
        for atom_type in module.atoms:
            if atom_type.name not in ATOMS:
                ATOMS.register(atom_type)
        for name, fn in module.commands().items():
            if name in self._commands:
                raise MonetError(
                    f"command {name!r} from module {module.name!r} clashes "
                    f"with an existing command"
                )
            self._commands[name] = fn
        self._signatures.update(module.signatures())
        self._modules[module.name] = module
        if self._store is not None and not self._in_recovery:
            self._store.log_module(module.name)

    def register_command(
        self,
        name: str,
        fn: Callable[..., Any],
        signature: CommandSignature | None = None,
    ) -> None:
        """Register a single ad-hoc command (bypassing the module system)."""
        if name in self._commands:
            raise MonetError(f"command {name!r} already registered")
        self._commands[name] = fn
        if signature is not None:
            self._signatures[name] = signature

    def has_command(self, name: str) -> bool:
        return name in self._commands

    def command_names(self) -> list[str]:
        return sorted(self._commands)

    def command_signatures(self) -> dict[str, CommandSignature]:
        """Declared MIL signatures, keyed by command name."""
        return dict(self._signatures)

    def module_names(self) -> list[str]:
        return sorted(self._modules)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        mil_source: str,
        deadline: Deadline | None = None,
        transactional: bool = False,
    ) -> Any:
        """Execute MIL source at global scope.

        ``deadline`` bounds the whole execution (checked per statement and
        per command); ``transactional=True`` rolls the BAT catalog back if
        the execution raises.
        """
        return self._execute(lambda: self._mil.run(mil_source), deadline, transactional)

    def call(
        self,
        proc_name: str,
        args: Sequence[Any] = (),
        deadline: Deadline | None = None,
        transactional: bool = False,
    ) -> Any:
        """Invoke a MIL PROC defined earlier via :meth:`run`."""
        return self._execute(
            lambda: self._mil.call(proc_name, args), deadline, transactional
        )

    def _execute(
        self,
        thunk: Callable[[], Any],
        deadline: Deadline | None,
        transactional: bool,
    ) -> Any:
        previous = self._active_deadline
        if deadline is None and previous is None:
            if self.resilience.query_budget is not None:
                deadline = Deadline(self.resilience.query_budget)
        if deadline is not None:
            self._active_deadline = deadline
        try:
            if transactional:
                with self.transaction():
                    return thunk()
            return thunk()
        finally:
            self._active_deadline = previous

    def drain_failures(self) -> list[FailureReport]:
        """Return and clear the accumulated failure reports."""
        out = self.failures
        self.failures = []
        return out

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    @property
    def store(self) -> DurableStore | None:
        return self._store

    def _recover_from_store(self) -> None:
        assert self._store is not None
        state = self._store.open()
        self._in_recovery = True
        try:
            for name, bat in state.catalog.items():
                bat.name = name
                self._catalog[name] = bat
            for definition in state.definitions.values():
                # static checks are off: the modules these PROCs call may
                # not be re-loaded yet (see ``expected_modules``)
                self._mil.define_proc(definition, check="off")
        finally:
            self._in_recovery = False
        self.recovery = state.report
        self.expected_modules = state.modules

    def _on_proc_defined(self, proc: Any) -> None:
        """WAL-log every PROC definition (interpreter ``on_define`` hook).

        PROC definitions are not rolled back with the BAT catalog, so they
        are logged immediately even inside an open transaction.
        """
        if self._store is None or self._in_recovery:
            return
        self._store.log_proc(proc.name, proc.definition)
        self._maybe_checkpoint()

    def checkpoint(self) -> int:
        """Fold the WAL into a fresh atomic checkpoint; returns its seqno."""
        if self._store is None:
            raise MonetError("kernel has no durable store to checkpoint")
        if self._txn_stack:
            raise MonetError("cannot checkpoint inside an open transaction")
        definitions = {
            name: procedure.definition
            for name, procedure in self._mil.procedures.items()
        }
        return self._store.checkpoint(
            self._catalog, definitions, self.module_names()
        )

    def _maybe_checkpoint(self) -> None:
        if (
            self._store is not None
            and not self._txn_stack
            and self._store.wants_checkpoint()
        ):
            self.checkpoint()

    def close(self) -> None:
        """Release the durable store's WAL file handle (no-op otherwise)."""
        if self._store is not None:
            self._store.close()

    # ------------------------------------------------------------------
    # resilience guards
    # ------------------------------------------------------------------
    def _deadline_tick(self) -> None:
        cancel_checkpoint("mil.statement")
        deadline = self._active_deadline
        if deadline is not None:
            deadline.check("mil.statement")

    def _guarded_command(
        self, name: str, fn: Callable[..., Any], args: list[Any]
    ) -> Any:
        """Invoke one kernel command under fault injection + retry + deadline."""
        site = f"kernel.command:{name}"
        deadline = self._active_deadline
        faults = self.faults
        call_timeout = self.resilience.call_timeout
        if self._sanitizer is not None:
            fn = self._sanitizer.wrap_command(
                name, self._signatures.get(name), fn
            )

        def attempt() -> Any:
            faults.on_call(site)
            cancel_checkpoint(site)
            if call_timeout is None:
                return fn(*args)
            started = time.monotonic()
            result = fn(*args)
            elapsed = time.monotonic() - started
            if elapsed > call_timeout:
                raise TimeoutExpired(
                    f"command ran {elapsed:.3f}s, over its {call_timeout}s "
                    f"per-call budget",
                    site=site,
                    overshoot=elapsed - call_timeout,
                )
            return result

        if not faults.enabled and deadline is None and call_timeout is None:
            token = current_token()
            if token is None:
                return fn(*args)  # fast path: nothing to guard
            # Token-only path: checkpoint, but skip the retry machinery —
            # cancellation and timeouts are in GIVE_UP_ON anyway.
            token.check(site)
            return fn(*args)

        def on_retry(attempt_number: int, error: BaseException) -> None:
            self.failures.append(
                FailureReport.from_exception(
                    site, error, "retried", attempts=attempt_number
                )
            )

        return self.resilience.retry.call(
            attempt, site=site, deadline=deadline, on_retry=on_retry
        )

    def procedures(self) -> list[str]:
        return sorted(self._mil.procedures)

    @property
    def interpreter(self) -> MilInterpreter:
        return self._mil

    @property
    def diagnostics(self) -> list[Any]:
        """Static-analysis findings collected across PROC definitions."""
        return list(self._mil.diagnostics)

    def parallel(self, thunks: Sequence[Callable[[], Any]]) -> list[Any]:
        """Run Python thunks on the kernel pool (used by extensions)."""
        return self._run_parallel(thunks)

    def _run_parallel(
        self,
        thunks: Sequence[Callable[[], Any]],
        labels: Sequence[str] | None = None,
    ) -> list[Any]:
        """Executor fan-out, routed through the sanitizer when armed."""
        if self._sanitizer is not None:
            return self._sanitizer.run_parallel(self._executor.run, thunks, labels)
        return self._executor.run(thunks, labels)

    @property
    def sanitizer(self) -> Any:
        """The armed :class:`repro.check.sanitize.KernelSanitizer`, or None."""
        return self._sanitizer

    @property
    def threads(self) -> int:
        return self._executor.threads

    # ------------------------------------------------------------------
    # builtins
    # ------------------------------------------------------------------
    def _install_builtins(self) -> None:
        self._commands.update(
            {
                "threadcnt": self._executor.threadcnt,
                "print": _mil_print,
                "abs": abs,
                "sqrt": math.sqrt,
                "log": math.log,
                "exp": math.exp,
                "floor": math.floor,
                "ceil": math.ceil,
                "min2": min,
                "max2": max,
                "int": int,
                "flt": float,
                "str": str,
                "len": len,
                "bat": _weakly(self.bat),
                "persist": _weakly(self.persist),
                "cancelpoint": _mil_cancelpoint,
            }
        )
        self._signatures.update(
            {
                "threadcnt": CommandSignature("threadcnt", ("int",), "int"),
                "print": CommandSignature("print", ("any",), "any", varargs=True),
                "abs": CommandSignature("abs", ("dbl",), "dbl"),
                "sqrt": CommandSignature("sqrt", ("dbl",), "dbl"),
                "log": CommandSignature("log", ("dbl",), "dbl"),
                "exp": CommandSignature("exp", ("dbl",), "dbl"),
                "floor": CommandSignature("floor", ("dbl",), "int"),
                "ceil": CommandSignature("ceil", ("dbl",), "int"),
                "min2": CommandSignature("min2", ("any", "any"), "any"),
                "max2": CommandSignature("max2", ("any", "any"), "any"),
                "int": CommandSignature("int", ("any",), "int"),
                "flt": CommandSignature("flt", ("any",), "dbl"),
                "str": CommandSignature("str", ("any",), "str"),
                "len": CommandSignature("len", ("any",), "int"),
                "bat": CommandSignature("bat", ("str",), "BAT"),
                "persist": CommandSignature("persist", ("str", "BAT"), "BAT"),
                "cancelpoint": CommandSignature("cancelpoint", (), "int"),
            }
        )


class _CatalogView(dict):
    """Global MIL scope backed by the kernel catalog.

    Plain MIL globals live in the dict itself; catalog BATs shine through by
    name so ``PROC`` bodies can reference persisted metadata directly.
    """

    def __init__(self, catalog: dict[str, BAT]):
        super().__init__()
        self._bat_catalog = catalog

    def __contains__(self, key: object) -> bool:  # type: ignore[override]
        return super().__contains__(key) or key in self._bat_catalog

    def __getitem__(self, key: str) -> Any:
        if super().__contains__(key):
            return super().__getitem__(key)
        return self._bat_catalog[key]

    def __iter__(self):
        # Iteration exposes catalog names too, so the static checker can
        # treat persisted BATs as known globals.
        yield from super().__iter__()
        for key in self._bat_catalog:
            if not super().__contains__(key):
                yield key


def _weakly(method: Callable[..., Any]) -> Callable[..., Any]:
    """``method`` of the kernel, bound without keeping the kernel alive.

    The interpreter and the command table are owned by the kernel and call
    back into it; holding its bound methods would make a kernel <-> interpreter
    cycle, which only the cyclic collector frees. Through a weak binding, a
    dropped kernel (and the catalog it holds) goes with its last reference.
    """
    ref = weakref.WeakMethod(method)
    name = method.__name__

    def call(*args: Any, **kwargs: Any) -> Any:
        bound = ref()
        if bound is None:
            raise MonetError(f"{name}: the kernel this interpreter served is gone")
        return bound(*args, **kwargs)

    return call


def _mil_print(*args: Any) -> None:
    print(*args)


def _mil_cancelpoint() -> int:
    """MIL ``cancelpoint()``: explicit cancellation checkpoint.

    Long-running hand-written loops (notably unbounded ``WHILE`` bodies in
    service-registered PROCs — see diagnostic SVC001) call this so a
    cancelled or expired request stops inside the loop. Returns 0 so it can
    sit in expression position.
    """
    cancel_checkpoint("mil.cancelpoint")
    return 0
