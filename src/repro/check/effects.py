"""The one effect inference: an ordered event stream over MIL code.

Every pass that asks "which names does this code read, declare, assign or
mutate, and what does it call" filters :func:`events` instead of keeping
its own descent, so all of them see the same precision: a ``delete`` buried
in a ``WHILE`` condition, a ``BinOp`` operand or a call argument is the
same write everywhere.

Event kinds, in the order evaluation produces them:

=========  ==========================================================
kind       meaning (``name`` / ``node``)
=========  ==========================================================
read       a variable is read (``Name``), or is the receiver of a
           non-mutating method (``MethodCall``)
append     receiver of an :data:`APPEND_METHODS` call — commutes under
           the BAT lock
write      receiver of a :data:`WRITE_METHODS` call — exclusive
declare    ``VAR name`` (after its initialiser's events)
assign     ``name := ...`` (after the value's events)
commit     a :data:`CATALOG_COMMANDS` call; ``name`` is the catalog
           name when it is a string literal, else ``None``
call       any other ``Call``; ``name`` is the callee (``new`` included)
=========  ==========================================================

A method call whose receiver is a plain name yields exactly one event for
that receiver, classified by what the method does to it and located at the
call — the receiver is always evaluated, so consumers that want "every
name this code looks at" take ``read``, ``append`` and ``write`` together
(:data:`ACCESSES`). A nested ``ProcDef`` yields nothing: defining a
procedure runs none of its body.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, NamedTuple

from repro.monet.mil import (
    Assign,
    Call,
    Literal,
    MethodCall,
    Name,
    ProcDef,
    VarDecl,
    children,
)

__all__ = [
    "ACCESSES",
    "APPEND_METHODS",
    "CATALOG_COMMANDS",
    "IMPURE_COMMANDS",
    "MUTATIONS",
    "WRITE_METHODS",
    "Event",
    "branch_summary",
    "events",
    "names",
    "shared_events",
]

#: BAT methods that append under the BAT lock — commutative, race-free.
APPEND_METHODS = frozenset({"insert", "insert_bulk"})

#: BAT methods that mutate non-append — exclusive writers.
WRITE_METHODS = frozenset({"delete", "replace"})

#: Kernel commands that mutate the catalog (and auto-commit the WAL).
CATALOG_COMMANDS = frozenset({"persist", "drop"})

#: Kernel commands with effects beyond their return value: scheduler state,
#: stdout, catalog allocation/commit, and cancellation checkpoints.
IMPURE_COMMANDS = frozenset(
    {"threadcnt", "print", "bat", "persist", "drop", "cancelpoint"}
)

#: Event kinds that evaluate a variable.
ACCESSES = frozenset({"read", "append", "write"})

#: Event kinds after which a variable may hold something else.
MUTATIONS = frozenset({"declare", "assign", "append", "write"})


class Event(NamedTuple):
    """One effect of evaluating MIL code (see the module table)."""

    kind: str
    name: str | None
    line: int | None
    #: The AST node that produced the event.
    node: Any


def events(code: Any) -> list[Event]:
    """Effect events of a node or statement list, in evaluation order."""
    out: list[Event] = []
    _emit(code, out.append)
    return out


def _emit(code: Any, emit: Callable[[Event], None]) -> None:
    if isinstance(code, list):
        for statement in code:
            _emit(statement, emit)
        return
    match code:
        case ProcDef():
            return
        case Name(ident=ident, line=line):
            emit(Event("read", ident, line, code))
            return
        case MethodCall(target=Name(ident=ident), method=method, args=args, line=line):
            if method in APPEND_METHODS:
                kind = "append"
            elif method in WRITE_METHODS:
                kind = "write"
            else:
                kind = "read"
            emit(Event(kind, ident, line, code))
            _emit(args, emit)
            return
    for child in children(code):
        _emit(child, emit)
    match code:
        case VarDecl(ident=ident, line=line):
            emit(Event("declare", ident, line, code))
        case Assign(ident=ident, line=line):
            emit(Event("assign", ident, line, code))
        case Call(func=func, args=args, line=line) if func in CATALOG_COMMANDS:
            first = args[0] if args else None
            literal = isinstance(first, Literal) and isinstance(first.value, str)
            emit(Event("commit", first.value if literal else None, line, code))
        case Call(func=func, line=line):
            emit(Event("call", func, line, code))


def names(code: Any, kinds: Iterable[str]) -> set[str]:
    """Names ``code`` touches through events of the given ``kinds``."""
    return {e.name for e in events(code) if e.kind in kinds and e.name is not None}


def shared_events(branch: Any) -> Iterator[Event]:
    """Events of one ``PARALLEL`` branch on state its siblings can see.

    A name is branch-local from its ``VAR`` onwards (MIL has no hoisting:
    a use before the declaration still means the enclosing variable), so
    ``declare`` events and everything on a declared name are dropped, as
    are plain ``call`` events; catalog commits always pass.
    """
    local: set[str] = set()
    for event in events(branch):
        if event.kind == "declare":
            local.add(event.name)
        elif event.kind == "commit" or (
            event.kind != "call" and event.name not in local
        ):
            yield event


def branch_summary(branch: Any) -> tuple[set[str], set[str], set[str]]:
    """(touched, non-append-mutated, assigned) shared names of a branch."""
    touched: set[str] = set()
    mutated: set[str] = set()
    assigned: set[str] = set()
    for event in shared_events(branch):
        if event.kind == "commit":
            continue
        touched.add(event.name)
        if event.kind == "write":
            mutated.add(event.name)
        elif event.kind == "assign":
            assigned.add(event.name)
    return touched, mutated, assigned
