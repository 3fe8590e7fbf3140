"""A MIL (Monet Interface Language) interpreter.

The paper's physical level is programmed in MIL: Moa operations are rewritten
into MIL procedures which the Monet kernel executes (Figs. 4 and 5b show the
parallel-HMM and DBN procedures). This module implements the MIL subset those
procedures need:

* ``PROC name(BAT[oid,dbl] f1, ...) : type := { ... }`` definitions,
* ``VAR x := expr;`` declarations and ``x := expr;`` assignments,
* method chains on BATs (``parEval.reverse.find(best)``, ``b.max``),
* ``new(void, int)`` BAT construction,
* ``IF``/``ELSE``, ``WHILE`` and ``RETURN`` control flow,
* a ``PARALLEL { ... }`` block that runs its statements concurrently on the
  kernel thread pool sized by ``threadcnt(n)`` — the mechanism behind the
  paper's parallel evaluation of six HMMs,
* ``#`` comments, numeric/string/bool literals, arithmetic and comparisons.

The interpreter is deliberately small and tree-walking; the heavy lifting is
in the kernel commands (Python callables registered by MEL-style modules).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import re
import threading
from typing import Any, Callable, Iterator, Sequence

from repro.errors import MilNameError, MilRecursionError, MilSyntaxError, MilTypeError
from repro.monet.bat import BAT

__all__ = [
    "MIL_RECURSION_LIMIT",
    "MilInterpreter",
    "MilProcedure",
    "children",
    "parse",
    "tokenize",
    "walk",
]

#: Maximum PROC call nesting depth. Deep enough for any legitimate plan
#: (the shipped procedures nest two levels at most), shallow enough that a
#: runaway recursion raises a typed :class:`repro.errors.MilRecursionError`
#: long before the Python stack would overflow. The whole-program CALL002
#: diagnostic (:mod:`repro.check.programcheck`) cites this same bound when
#: it flags statically-unbounded recursion at registration time.
MIL_RECURSION_LIMIT = 64


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<int>\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<assign>:=)
  | (?P<le><=)|(?P<ge>>=)|(?P<ne>!=)
  | (?P<sym>[()\[\]{},;.<>=+\-*/:])
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "PROC", "VAR", "RETURN", "IF", "ELSE", "WHILE", "PARALLEL",
    "AND", "OR", "NOT", "TRUE", "FALSE",
}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int


def tokenize(source: str) -> list[Token]:
    """Split MIL source into tokens, raising on unrecognized characters."""
    tokens: list[Token] = []
    line = 1
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise MilSyntaxError(f"unexpected character {source[pos]!r}", line)
        text = match.group(0)
        kind = match.lastgroup or "sym"
        if kind == "ws":
            line += text.count("\n")
        elif kind == "comment":
            pass
        elif kind == "name" and text.upper() in _KEYWORDS:
            tokens.append(Token(text.upper(), text, line))
        elif kind in ("assign", "le", "ge", "ne", "sym"):
            tokens.append(Token(text, text, line))
        else:
            tokens.append(Token(kind, text, line))
        pos = match.end()
    tokens.append(Token("eof", "", line))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass
class Literal:
    value: Any
    line: int | None = None


@dataclass
class Name:
    ident: str
    line: int | None = None


@dataclass
class Call:
    func: str
    args: list[Any]
    line: int | None = None


@dataclass
class MethodCall:
    target: Any
    method: str
    args: list[Any]
    line: int | None = None


@dataclass
class BinOp:
    op: str
    left: Any
    right: Any
    line: int | None = None


@dataclass
class UnaryOp:
    op: str
    operand: Any
    line: int | None = None


@dataclass
class VarDecl:
    ident: str
    value: Any | None
    line: int | None = None


@dataclass
class Assign:
    ident: str
    value: Any
    line: int | None = None


@dataclass
class ExprStmt:
    expr: Any
    line: int | None = None


@dataclass
class Return:
    expr: Any | None
    line: int | None = None


@dataclass
class If:
    cond: Any
    then: list[Any]
    orelse: list[Any]
    line: int | None = None


@dataclass
class While:
    cond: Any
    body: list[Any]
    line: int | None = None


@dataclass
class Parallel:
    body: list[Any]
    line: int | None = None


@dataclass
class Param:
    type_name: str
    ident: str


@dataclass
class ProcDef:
    name: str
    params: list[Param]
    return_type: str | None
    body: list[Any]
    line: int | None = None


def children(node: Any) -> Iterator[Any]:
    """Direct sub-nodes of a statement or expression, in evaluation order.

    This is the one place that knows the shape of the tree. Two rules are
    stated here and nowhere else: ``new(head, tail)`` takes type *atoms*
    that merely look like names, so they are not children (nothing reads
    them); and ``Param`` entries belong to a ``ProcDef``'s header, not its
    body.
    """
    match node:
        case Call(func=func, args=args):
            if func != "new":
                yield from args
        case MethodCall(target=target, args=args):
            yield target
            yield from args
        case BinOp(left=left, right=right):
            yield left
            yield right
        case UnaryOp(operand=operand):
            yield operand
        case VarDecl(value=value) | Assign(value=value):
            if value is not None:
                yield value
        case ExprStmt(expr=expr) | Return(expr=expr):
            if expr is not None:
                yield expr
        case If(cond=cond, then=then, orelse=orelse):
            yield cond
            yield from then
            yield from orelse
        case While(cond=cond, body=body):
            yield cond
            yield from body
        case Parallel(body=body) | ProcDef(body=body):
            yield from body


def walk(root: Any) -> Iterator[Any]:
    """Every node under ``root`` (a node or a statement list), pre-order.

    Nodes come out once each, a parent before its :func:`children` and
    those in evaluation order. A ``ProcDef`` below the root is yielded but
    not entered: it defines a procedure when the statement runs, its body
    is not part of the enclosing code — walk it from its own root.
    """
    if isinstance(root, list):
        pending = root[::-1]
    else:
        yield root
        pending = list(children(root))[::-1]
    while pending:
        node = pending.pop()
        yield node
        if not isinstance(node, ProcDef):
            pending.extend(list(children(node))[::-1])


@dataclass
class MilProcedure:
    """A parsed MIL procedure, callable through the interpreter."""

    definition: ProcDef

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def arity(self) -> int:
        return len(self.definition.params)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token helpers --------------------------------------------------
    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, kind: str) -> Token:
        token = self._next()
        if token.kind != kind:
            raise MilSyntaxError(
                f"expected {kind!r}, found {token.text!r}", token.line
            )
        return token

    def _accept(self, kind: str) -> Token | None:
        if self._peek().kind == kind:
            return self._next()
        return None

    # -- grammar ---------------------------------------------------------
    def parse_program(self) -> list[Any]:
        statements: list[Any] = []
        while self._peek().kind != "eof":
            statements.append(self.parse_statement())
        return statements

    def parse_statement(self) -> Any:
        token = self._peek()
        if token.kind == "PROC":
            return self._parse_proc()
        if token.kind == "VAR":
            return self._parse_var()
        if token.kind == "RETURN":
            self._next()
            if self._peek().kind == ";":
                self._next()
                return Return(None, line=token.line)
            expr = self.parse_expression()
            self._expect(";")
            return Return(expr, line=token.line)
        if token.kind == "IF":
            return self._parse_if()
        if token.kind == "WHILE":
            return self._parse_while()
        if token.kind == "PARALLEL":
            self._next()
            return Parallel(self._parse_block(), line=token.line)
        # assignment vs expression statement: lookahead for `name :=`
        if token.kind == "name" and self._tokens[self._pos + 1].kind == ":=":
            ident = self._next().text
            self._next()  # :=
            expr = self.parse_expression()
            self._expect(";")
            return Assign(ident, expr, line=token.line)
        expr = self.parse_expression()
        self._expect(";")
        return ExprStmt(expr, line=token.line)

    def _parse_proc(self) -> ProcDef:
        keyword = self._expect("PROC")
        name = self._expect("name").text
        self._expect("(")
        params: list[Param] = []
        if self._peek().kind != ")":
            while True:
                params.append(self._parse_param())
                if not self._accept(","):
                    break
        self._expect(")")
        return_type = None
        if self._accept(":"):
            return_type = self._parse_type_name()
        self._expect(":=")
        body = self._parse_block()
        return ProcDef(name, params, return_type, body, line=keyword.line)

    def _parse_param(self) -> Param:
        type_name = self._parse_type_name()
        ident = self._expect("name").text
        return Param(type_name, ident)

    def _parse_type_name(self) -> str:
        token = self._expect("name")
        type_name = token.text
        if type_name == "BAT" and self._accept("["):
            head = self._expect("name").text
            self._expect(",")
            tail = self._expect("name").text
            self._expect("]")
            return f"BAT[{head},{tail}]"
        return type_name

    def _parse_var(self) -> VarDecl:
        keyword = self._expect("VAR")
        ident = self._expect("name").text
        # Optional type annotation: VAR x : str := ...
        if self._accept(":"):
            self._parse_type_name()
        value = None
        if self._accept(":="):
            value = self.parse_expression()
        self._expect(";")
        return VarDecl(ident, value, line=keyword.line)

    def _parse_if(self) -> If:
        keyword = self._expect("IF")
        self._expect("(")
        cond = self.parse_expression()
        self._expect(")")
        then = self._parse_block()
        orelse: list[Any] = []
        if self._accept("ELSE"):
            if self._peek().kind == "IF":
                orelse = [self._parse_if()]
            else:
                orelse = self._parse_block()
        return If(cond, then, orelse, line=keyword.line)

    def _parse_while(self) -> While:
        keyword = self._expect("WHILE")
        self._expect("(")
        cond = self.parse_expression()
        self._expect(")")
        return While(cond, self._parse_block(), line=keyword.line)

    def _parse_block(self) -> list[Any]:
        self._expect("{")
        statements: list[Any] = []
        while self._peek().kind != "}":
            statements.append(self.parse_statement())
        self._expect("}")
        return statements

    # -- expressions ------------------------------------------------------
    def parse_expression(self) -> Any:
        return self._parse_or()

    def _parse_or(self) -> Any:
        left = self._parse_and()
        while self._accept("OR"):
            left = BinOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Any:
        left = self._parse_not()
        while self._accept("AND"):
            left = BinOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Any:
        if self._accept("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Any:
        left = self._parse_additive()
        while self._peek().kind in ("=", "<", ">", "<=", ">=", "!="):
            op = self._next().kind
            left = BinOp(op, left, self._parse_additive())
        return left

    def _parse_additive(self) -> Any:
        left = self._parse_multiplicative()
        while self._peek().kind in ("+", "-"):
            op = self._next().kind
            left = BinOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Any:
        left = self._parse_unary()
        while self._peek().kind in ("*", "/"):
            op = self._next().kind
            left = BinOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Any:
        if self._accept("-"):
            return UnaryOp("-", self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> Any:
        expr = self._parse_primary()
        while True:
            if self._accept("."):
                method_token = self._expect("name")
                method = method_token.text
                if self._accept("("):
                    args = self._parse_args()
                    expr = MethodCall(expr, method, args, line=method_token.line)
                else:
                    expr = MethodCall(expr, method, [], line=method_token.line)
            else:
                return expr

    def _parse_args(self) -> list[Any]:
        args: list[Any] = []
        if self._peek().kind != ")":
            while True:
                args.append(self.parse_expression())
                if not self._accept(","):
                    break
        self._expect(")")
        return args

    def _parse_primary(self) -> Any:
        token = self._next()
        if token.kind == "int":
            return Literal(int(token.text))
        if token.kind == "float":
            return Literal(float(token.text))
        if token.kind == "string":
            return Literal(_unescape(token.text[1:-1]))
        if token.kind == "TRUE":
            return Literal(True)
        if token.kind == "FALSE":
            return Literal(False)
        if token.kind == "name":
            if self._accept("("):
                args = self._parse_args()
                return Call(token.text, args, line=token.line)
            return Name(token.text, line=token.line)
        if token.kind == "(":
            expr = self.parse_expression()
            self._expect(")")
            return expr
        raise MilSyntaxError(f"unexpected token {token.text!r}", token.line)


def _unescape(text: str) -> str:
    return text.encode("utf-8").decode("unicode_escape")


def parse(source: str) -> list[Any]:
    """Parse MIL source into a statement list."""
    return _Parser(tokenize(source)).parse_program()


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------


#: ``getattr`` default telling a missing MIL method from a None-valued one.
_NO_ATTRIBUTE = object()


class _ReturnSignal(Exception):
    def __init__(self, value: Any):
        self.value = value


@dataclass
class _Scope:
    variables: dict[str, Any] = field(default_factory=dict)
    parent: "_Scope | None" = None

    def lookup(self, ident: str) -> Any:
        scope: _Scope | None = self
        while scope is not None:
            if ident in scope.variables:
                return scope.variables[ident]
            scope = scope.parent
        raise MilNameError(f"unknown MIL name {ident!r}")

    def assign(self, ident: str, value: Any) -> None:
        scope: _Scope | None = self
        while scope is not None:
            if ident in scope.variables:
                scope.variables[ident] = value
                return
            scope = scope.parent
        raise MilNameError(f"assignment to undeclared MIL variable {ident!r}")

    def declare(self, ident: str, value: Any) -> None:
        self.variables[ident] = value


class MilInterpreter:
    """Tree-walking evaluator for parsed MIL.

    The interpreter is owned by a :class:`repro.monet.kernel.MonetKernel`,
    which supplies the command registry (kernel builtins plus MEL module
    commands), the named-BAT catalog, and the thread pool for ``PARALLEL``
    blocks.
    """

    def __init__(
        self,
        commands: dict[str, Callable[..., Any]],
        globals_scope: dict[str, Any],
        run_parallel: Callable[..., list[Any]],
        signatures: dict[str, Any] | None = None,
        check: str = "error",
        call_guard: Callable[[str, Callable[..., Any], list[Any]], Any] | None = None,
        on_statement: Callable[[], None] | None = None,
        on_define: Callable[["MilProcedure"], None] | None = None,
    ):
        # imported lazily: the repro.check modules import this one
        from repro.check.diagnostics import CheckMode

        self._check = CheckMode.of(check)
        self._commands = commands
        self._globals = _Scope(globals_scope)
        self._procs: dict[str, MilProcedure] = {}
        self._run_parallel = run_parallel
        self._signatures = signatures if signatures is not None else {}
        #: Wraps kernel-command invocations (fault injection, retry,
        #: deadlines); default is a plain call.
        self._call_guard = call_guard or (lambda name, fn, args: fn(*args))
        #: Per-statement hook (the kernel's deadline tick).
        self._on_statement = on_statement
        #: Post-registration hook (the kernel's WAL logging of PROC defs).
        self._on_define = on_define
        #: Name of the PROC currently executing (for PARALLEL context).
        self._current_proc: str | None = None
        #: Procs of the program currently being run (forward references are
        #: visible to the static checker before their ProcDef executes).
        self._pending_procs: dict[str, ProcDef] = {}
        #: Every diagnostic collected by define_proc, in order.
        self.diagnostics: list[Any] = []
        #: Per-thread PROC call depth (PARALLEL branches recurse on pool
        #: threads, so one shared counter would overcount).
        self._depth = threading.local()
        #: Whole-program summary cache shared across define_proc calls:
        #: per-PROC effect/cost/cancellation summaries keyed by source
        #: fingerprint, so redefining one proc re-analyzes only it and its
        #: callers (see :class:`repro.check.programcheck.SummaryCache`).
        self.program_cache: Any = None

    @property
    def procedures(self) -> dict[str, MilProcedure]:
        return dict(self._procs)

    # -- public API --------------------------------------------------------
    def check_environment(self) -> Any:
        """The :class:`repro.check.environment.Environment` to check MIL
        against right now: commands, signatures, global/catalog names and
        every defined (or, mid-``run``, about to be defined) procedure.

        The one way static analysis looks into the interpreter — the
        define-time passes, the CLI, service and scatter registration all
        start from it.
        """
        from repro.check.environment import Environment

        return Environment(
            self._commands,
            self._signatures,
            self._globals.variables,
            {**self._procs, **self._pending_procs},
        )

    def run(self, source: str) -> Any:
        """Execute MIL source at global scope; returns the last RETURN or
        expression-statement value."""
        statements = parse(source)
        outer_pending = self._pending_procs
        self._pending_procs = {
            **outer_pending,
            **{s.name: s for s in statements if isinstance(s, ProcDef)},
        }
        try:
            return self._exec_block(statements, self._globals, toplevel=True)
        finally:
            self._pending_procs = outer_pending

    def define_proc(
        self,
        definition: "ProcDef | MilProcedure",
        source: str | None = None,
        check: str | None = None,
    ) -> MilProcedure:
        """Register a PROC, statically checking it first.

        The ``define`` stage of the pass pipeline runs on every definition
        (the ordered pass table is in the :mod:`repro.check` docstring).
        With ``check="error"`` (the default) or ``check="sanitize"``
        error-severity findings raise :class:`repro.errors.MilCheckError`
        and the procedure is NOT registered; ``check="warn"`` collects
        diagnostics without raising; ``check="off"`` skips analysis. All
        findings land in ``self.diagnostics``. ``check`` overrides the
        interpreter's mode for this one definition (crash recovery replays
        WAL-logged PROCs with ``check="off"`` because their modules may not
        be reloaded yet).
        """
        # imported lazily: the repro.check modules import this one
        from repro.check.diagnostics import CheckMode

        mode = self._check if check is None else CheckMode.of(check)
        if isinstance(definition, MilProcedure):
            definition = definition.definition
        if mode.checks:
            from repro.check.pipeline import check_definition
            from repro.check.programcheck import SummaryCache
            from repro.errors import MilCheckError

            # summaries are memoized on the interpreter's cache keyed by
            # source fingerprint, so unchanged procs are not re-analyzed on
            # every registration
            if self.program_cache is None:
                self.program_cache = SummaryCache()
            report = check_definition(
                self.check_environment(),
                definition,
                source,
                cache=self.program_cache,
            )
            self.diagnostics.extend(report)
            if mode.raises:
                report.raise_if_errors(
                    f"PROC {definition.name}", MilCheckError
                )
        proc = MilProcedure(definition)
        self._procs[definition.name] = proc
        if self._on_define is not None:
            self._on_define(proc)
        return proc

    def call(self, proc_name: str, args: Sequence[Any]) -> Any:
        """Invoke a previously defined PROC with Python-value arguments."""
        try:
            proc = self._procs[proc_name]
        except KeyError:
            raise MilNameError(f"unknown MIL procedure {proc_name!r}") from None
        return self._call_proc(proc, list(args))

    # -- execution ----------------------------------------------------------
    def _exec_block(
        self, statements: list[Any], scope: _Scope, toplevel: bool = False
    ) -> Any:
        last: Any = None
        for statement in statements:
            if self._on_statement is not None:
                self._on_statement()
            match statement:
                case ProcDef():
                    self.define_proc(statement)
                case VarDecl(ident=ident, value=value):
                    scope.declare(
                        ident, None if value is None else self._eval(value, scope)
                    )
                case Assign(ident=ident, value=value):
                    scope.assign(ident, self._eval(value, scope))
                case ExprStmt(expr=expr):
                    last = self._eval(expr, scope)
                case Return(expr=expr):
                    value = None if expr is None else self._eval(expr, scope)
                    if toplevel:
                        return value
                    raise _ReturnSignal(value)
                case If(cond=cond, then=then, orelse=orelse):
                    branch = then if self._truthy(cond, scope) else orelse
                    last = self._exec_block(branch, _Scope(parent=scope), toplevel)
                case While(cond=cond, body=body):
                    while self._truthy(cond, scope):
                        self._exec_block(body, _Scope(parent=scope), toplevel)
                case Parallel(body=body):
                    self._exec_parallel(body, scope)
                case _:
                    raise MilTypeError(f"cannot execute node {statement!r}")
        return last

    def _truthy(self, cond: Any, scope: _Scope) -> bool:
        return bool(self._eval(cond, scope))

    def _exec_parallel(self, statements: list[Any], scope: _Scope) -> None:
        """Run each top-level statement of a PARALLEL block concurrently.

        Each statement sees the enclosing scope; assignments made inside run
        under the GIL plus BAT locks, matching the Fig. 4 pattern of parallel
        inserts into one result BAT. Branch labels (index, MIL line, owning
        PROC) ride along so a failing branch propagates with its origin
        instead of a bare exception from an anonymous thread.
        """
        def make_thunk(statement: Any) -> Callable[[], Any]:
            def thunk() -> Any:
                return self._exec_block([statement], _Scope(parent=scope))
            return thunk

        labels = [
            self._branch_label(index, statement)
            for index, statement in enumerate(statements)
        ]
        self._run_parallel([make_thunk(s) for s in statements], labels)

    def _branch_label(self, index: int, statement: Any) -> str:
        label = f"PARALLEL branch {index + 1}"
        line = getattr(statement, "line", None)
        if line is not None:
            label += f" (line {line})"
        if self._current_proc is not None:
            label += f" of PROC {self._current_proc}"
        return label

    def _call_proc(self, proc: MilProcedure, args: list[Any]) -> Any:
        definition = proc.definition
        if len(args) != len(definition.params):
            raise MilTypeError(
                f"PROC {definition.name} expects {len(definition.params)} "
                f"arguments, got {len(args)}"
            )
        scope = _Scope(parent=self._globals)
        for param, value in zip(definition.params, args):
            if param.type_name.startswith("BAT[") and not isinstance(value, BAT):
                raise MilTypeError(
                    f"PROC {definition.name}: parameter {param.ident} "
                    f"expects a BAT, got {type(value).__name__}"
                )
            scope.declare(param.ident, value)
        depth = getattr(self._depth, "value", 0) + 1
        if depth > MIL_RECURSION_LIMIT:
            raise MilRecursionError(
                f"PROC call depth exceeded MIL_RECURSION_LIMIT "
                f"({MIL_RECURSION_LIMIT}) entering {definition.name!r} — "
                f"unbounded recursion (see CALL002)",
                proc=definition.name,
                depth=depth,
            )
        self._depth.value = depth
        enclosing_proc = self._current_proc
        self._current_proc = definition.name
        try:
            self._exec_block(definition.body, scope)
        except _ReturnSignal as signal:
            return signal.value
        finally:
            self._current_proc = enclosing_proc
            self._depth.value = depth - 1
        return None

    # -- expression evaluation ----------------------------------------------
    def _eval(self, node: Any, scope: _Scope) -> Any:
        match node:
            case Literal(value=value):
                return value
            case Name(ident=ident):
                return self._resolve(ident, scope)
            case Call(func=func, args=args):
                return self._eval_call(func, args, scope)
            case MethodCall(target=target, method=method, args=args):
                receiver = self._eval(target, scope)
                values = [self._eval(a, scope) for a in args]
                return self._dispatch_method(receiver, method, values)
            case BinOp(op=op, left=left, right=right):
                return self._eval_binop(op, left, right, scope)
            case UnaryOp(op=op, operand=operand):
                value = self._eval(operand, scope)
                if op == "-":
                    return -value
                if op == "NOT":
                    return not value
                raise MilTypeError(f"unknown unary operator {op!r}")
            case _:
                raise MilTypeError(f"cannot evaluate node {node!r}")

    def _resolve(self, ident: str, scope: _Scope) -> Any:
        try:
            return scope.lookup(ident)
        except MilNameError:
            pass
        if ident in self._commands:
            return self._commands[ident]
        raise MilNameError(f"unknown MIL name {ident!r}")

    def _eval_call(self, func: str, args: list[Any], scope: _Scope) -> Any:
        # `new(void, int)` takes type *names*, which arrive as Name nodes.
        if func == "new":
            type_names = [a.ident for a in args if isinstance(a, Name)]
            if len(type_names) != 2:
                raise MilTypeError("new(head_type, tail_type) needs two type names")
            return BAT(type_names[0], type_names[1])
        if func in self._procs:
            values = [self._eval(a, scope) for a in args]
            return self._call_proc(self._procs[func], values)
        try:
            target = scope.lookup(func)
            guarded = False
        except MilNameError:
            if func not in self._commands:
                raise MilNameError(f"unknown MIL name {func!r}") from None
            target = self._commands[func]
            guarded = True
        if not callable(target):
            raise MilTypeError(f"{func!r} is not callable")
        values = [self._eval(a, scope) for a in args]
        if guarded:
            # Kernel commands go through the guard (fault injection, retry
            # policies, deadlines); plain callables bound to MIL variables
            # stay direct.
            return self._call_guard(func, target, values)
        return target(*values)

    def _dispatch_method(self, receiver: Any, method: str, args: list[Any]) -> Any:
        if method.startswith("_"):
            raise MilNameError(f"MIL cannot access private attribute {method!r}")
        attr = getattr(receiver, method, _NO_ATTRIBUTE)
        if attr is _NO_ATTRIBUTE:  # not None: an attribute may hold None
            raise MilNameError(
                f"{type(receiver).__name__} has no MIL method {method!r}"
            )
        if callable(attr):
            return attr(*args)
        if args:
            raise MilTypeError(f"property {method!r} takes no arguments")
        return attr

    def _eval_binop(self, op: str, left_node: Any, right_node: Any, scope: _Scope) -> Any:
        if op == "AND":
            return bool(self._eval(left_node, scope)) and bool(
                self._eval(right_node, scope)
            )
        if op == "OR":
            return bool(self._eval(left_node, scope)) or bool(
                self._eval(right_node, scope)
            )
        left = self._eval(left_node, scope)
        right = self._eval(right_node, scope)
        match op:
            case "+":
                return left + right
            case "-":
                return left - right
            case "*":
                return left * right
            case "/":
                return left / right
            case "=":
                return left == right
            case "!=":
                return left != right
            case "<":
                return left < right
            case ">":
                return left > right
            case "<=":
                return left <= right
            case ">=":
                return left >= right
        raise MilTypeError(f"unknown operator {op!r}")
