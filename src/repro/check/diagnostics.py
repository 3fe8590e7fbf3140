"""Shared diagnostic model for the static checkers.

All three analyzers (:mod:`repro.check.milcheck`, :mod:`repro.check.moacheck`,
:mod:`repro.check.modelcheck`) report findings as :class:`Diagnostic` values:
a severity, a stable code (``MIL001``, ``MOA003``, ``MODEL002``, ...), an
optional source/line location, and a human-readable message. A
:class:`DiagnosticReport` aggregates them and raises the matching
:class:`repro.errors.DiagnosticError` subclass when errors are present.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import difflib
import enum
from typing import Iterable, Iterator

from repro.errors import DiagnosticError

__all__ = ["Severity", "Diagnostic", "DiagnosticReport", "CheckMode", "suggest"]


def suggest(name: str, candidates: Iterable[str]) -> str:
    """A `` (did you mean ...?)`` tail naming up to two close candidates."""
    matches = difflib.get_close_matches(name, list(candidates), n=2)
    if matches:
        return " (did you mean " + ", ".join(repr(m) for m in matches) + "?)"
    return ""


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so ``max()`` picks the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


class CheckMode(str, enum.Enum):
    """Strictness of a checker wired into a registration choke point.

    * ``ERROR`` — raise a :class:`repro.errors.DiagnosticError` subclass when
      any error-severity diagnostic fires (warnings are collected silently);
    * ``WARN`` — collect every diagnostic but never raise;
    * ``OFF`` — skip checking entirely;
    * ``SANITIZE`` — like ``ERROR``, and additionally arm the runtime
      sanitizer (:mod:`repro.check.sanitize`) so the same invariants are
      enforced dynamically while plans execute.
    """

    ERROR = "error"
    WARN = "warn"
    OFF = "off"
    SANITIZE = "sanitize"

    @property
    def raises(self) -> bool:
        """Whether error-severity findings should raise at choke points."""
        return self in (CheckMode.ERROR, CheckMode.SANITIZE)

    @property
    def checks(self) -> bool:
        """Whether static analysis should run at all."""
        return self is not CheckMode.OFF

    @staticmethod
    def of(value: "CheckMode | str") -> "CheckMode":
        if isinstance(value, CheckMode):
            return value
        try:
            return CheckMode(value)
        except ValueError:
            valid = ", ".join(m.value for m in CheckMode)
            raise ValueError(
                f"unknown check mode {value!r}; expected one of {valid}"
            ) from None


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    Attributes:
        code: stable diagnostic code (``MIL001``, ``MOA002``, ``MODEL003``).
        message: human-readable description of the finding.
        severity: :class:`Severity` of the finding.
        source: logical origin — a PROC name, file path, or model name.
        line: 1-based source line when the finding maps to MIL text.
        col: 1-based column within ``line``, when known.
        end_line: last line of a multi-line span, when the finding covers
            more than one line.
    """

    code: str
    message: str
    severity: Severity = Severity.ERROR
    source: str | None = None
    line: int | None = None
    col: int | None = None
    end_line: int | None = None

    def location(self) -> str:
        """The gcc-style location prefix: ``source:line[:col]`` / a span."""
        location = self.source or "<input>"
        if self.line is not None:
            location = f"{location}:{self.line}"
            if self.col is not None:
                location = f"{location}:{self.col}"
            elif self.end_line is not None and self.end_line != self.line:
                location = f"{location}-{self.end_line}"
        return location

    def sort_key(self) -> tuple:
        """Deterministic (file, line, col, code) ordering key."""
        return (
            self.source or "",
            self.line if self.line is not None else 0,
            self.col if self.col is not None else 0,
            self.code,
            self.message,
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (``None`` fields omitted)."""
        out: dict = {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
        }
        for key in ("source", "line", "col", "end_line"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def __str__(self) -> str:
        return f"{self.location()}: {self.severity} {self.code} {self.message}"


class DiagnosticReport:
    """An ordered collection of diagnostics with severity queries."""

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()):
        self.diagnostics: list[Diagnostic] = list(diagnostics)

    # ------------------------------------------------------------------
    def add(
        self,
        code: str,
        message: str,
        severity: Severity = Severity.ERROR,
        source: str | None = None,
        line: int | None = None,
        col: int | None = None,
        end_line: int | None = None,
    ) -> Diagnostic:
        diagnostic = Diagnostic(code, message, severity, source, line, col, end_line)
        self.diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def labelled(self, source: str) -> "DiagnosticReport":
        """A copy whose findings all carry ``source`` as their origin.

        An analysis memoised per definition records findings without an
        origin; each reader stamps the label it is reporting under.
        """
        return DiagnosticReport(replace(d, source=source) for d in self.diagnostics)

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def has_errors(self) -> bool:
        return bool(self.errors)

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    # ------------------------------------------------------------------
    def sorted(self) -> list[Diagnostic]:
        """Diagnostics ordered deterministically by (file, line, col, code)."""
        return sorted(self.diagnostics, key=Diagnostic.sort_key)

    def format(self) -> str:
        """One gcc-style line per diagnostic, deterministically ordered."""
        return "\n".join(str(d) for d in self.sorted())

    def to_dicts(self) -> list[dict]:
        """JSON-serializable diagnostic list, deterministically ordered."""
        return [d.to_dict() for d in self.sorted()]

    def raise_if_errors(
        self,
        context: str,
        error_class: type[DiagnosticError] = DiagnosticError,
    ) -> None:
        """Raise ``error_class`` carrying the error diagnostics, if any."""
        errors = sorted(self.errors, key=Diagnostic.sort_key)
        if errors:
            count = len(errors)
            noun = "error" if count == 1 else "errors"
            raise error_class(f"{context}: {count} static {noun}", errors)
