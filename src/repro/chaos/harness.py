"""The plumbing every chaos scenario shares.

* :class:`ChaosReport` — one deterministic run: what it observed (the
  ``payload``), what it found wrong (``failures``) and what happened, in
  order (``events``);
* :func:`kill_sweep` — run one scenario body per kill site, each in its
  own scratch directory under a one-shot kill plan, and flag a kill that
  never fired;
* :func:`run_twice` — run a scenario's sections twice in fresh
  directories; the two runs must serialize identically.

A section is a :class:`ChaosReport` or, for a sweep, a list of them
serialized as ``{"results": [...], "ok": ...}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Union

from repro.faults import FaultInjector, FaultPlan, FaultSpec

__all__ = [
    "ChaosReport",
    "Section",
    "describe_section",
    "kill_sweep",
    "run_twice",
    "section_dict",
]


@dataclass
class ChaosReport:
    """Outcome of one chaos run; every field is a pure function of the
    scenario, so two runs of it compare equal."""

    payload: dict[str, Any] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    events: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        facts = ", ".join(
            f"{key}={value}"
            for key, value in self.payload.items()
            if isinstance(value, (bool, int, float, str))
        )
        lines = [f"{'ok' if self.ok else 'FAIL'}  {facts}".rstrip()]
        lines.extend(f"      {failure}" for failure in self.failures)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable, wall-clock-free form; a run that narrated
        nothing carries no ``events`` key."""
        out = dict(self.payload)
        out["failures"] = list(self.failures)
        if self.events:
            out["events"] = list(self.events)
        out["ok"] = self.ok
        return out


Section = Union[ChaosReport, list[ChaosReport]]

#: One kill-sweep site run: ``(scratch, label, faults, fsync) -> report``.
SiteBody = Callable[[Path, str, FaultInjector, bool], ChaosReport]


def kill_sweep(
    base: Path,
    labels: Iterable[str],
    body: SiteBody,
    fsync: bool,
    extra: tuple[FaultSpec, ...] = (),
) -> list[ChaosReport]:
    """Run ``body`` once per kill label under a plan that kills at that
    site once (plus the ``extra`` specs), each run in its own directory.

    A label is a fault site, or ``<site>@<record>`` to kill inside the
    append of that record of a two-phase write (``prepare`` first, then
    ``commit``). A run whose kill never fired fails.
    """
    results = []
    for label in labels:
        site, _, record = label.partition("@")
        faults = FaultInjector(
            FaultPlan(
                name=f"kill@{label}",
                specs=(
                    FaultSpec(
                        site=site,
                        kind="kill",
                        max_triggers=1,
                        skip=int(record == "commit"),
                    ),
                    *extra,
                ),
            )
        )
        scratch = base / label.replace(":", "__").replace(".", "_").replace("@", "__")
        report = body(scratch, label, faults, fsync)
        if not any(injection.kind == "kill" for injection in faults.injections):
            report.failures.insert(0, f"kill at {label} never fired")
        results.append(report)
    return results


def section_dict(section: Section) -> dict[str, Any]:
    """A section's JSON form: a report's dict, or a sweep's envelope."""
    if isinstance(section, ChaosReport):
        return section.to_dict()
    return {
        "results": [report.to_dict() for report in section],
        "ok": all(report.ok for report in section),
    }


def describe_section(section: Section) -> str:
    if isinstance(section, ChaosReport):
        return section.describe()
    lines = [report.describe() for report in section]
    good = sum(1 for report in section if report.ok)
    lines.append(f"{good}/{len(section)} kill site(s) recovered")
    return "\n".join(lines)


def run_twice(
    sections: Mapping[str, Callable[[Path, bool], Section]],
    base: Path,
    fsync: bool,
) -> tuple[dict[str, Section], dict[str, Any]]:
    """Run every section in ``base/run-1``, then again in ``base/run-2``.

    Returns the first run's sections and the scenario's JSON form: each
    section's dict, ``deterministic`` (the runs serialized equal) and
    ``ok`` (deterministic, and every section passed).
    """
    runs = [
        {name: run(base / directory / name, fsync) for name, run in sections.items()}
        for directory in ("run-1", "run-2")
    ]
    first, second = (
        {name: section_dict(section) for name, section in run.items()}
        for run in runs
    )
    deterministic = first == second
    return runs[0], {
        **first,
        "deterministic": deterministic,
        "ok": deterministic and all(section["ok"] for section in first.values()),
    }
