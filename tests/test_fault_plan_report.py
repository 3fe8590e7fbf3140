"""The suite-under-faults report: with ``REPRO_FAULT_PLAN`` set, a run prints
the injections the global plan fired, by kind and site, and
``--min-injections N`` fails a run in which fewer fired.

Each case runs the repository's own ``conftest.py`` in a child pytest over a
one-test suite, so the child's global injector is its own.
"""

from __future__ import annotations

from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

CONFTEST = Path(__file__).with_name("conftest.py")
SRC = Path(__file__).resolve().parents[1] / "src"

#: 200 kernel commands: the ``kernel-transient`` plan fails some of them
#: (transiently, so the kernel's retry hides it from the test).
KERNEL_TEST = """
from repro.monet.kernel import MonetKernel

def test_commands():
    kernel = MonetKernel(threads=1, check="off")
    assert [kernel.run(f"RETURN abs({-i});") for i in range(200)] == list(range(200))
"""


def run_suite(pytester, monkeypatch, plan: str | None, *args: str):
    if plan is None:
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    else:
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan)
    monkeypatch.setenv("PYTHONPATH", str(SRC))  # the child runs elsewhere
    pytester.makeconftest(CONFTEST.read_text())
    pytester.makepyfile(test_kernel=KERNEL_TEST)
    return pytester.runpytest_subprocess("-q", "-p", "no:cacheprovider", *args)


def fired(result) -> int:
    [line] = [line for line in result.outlines if "injection(s) fired" in line]
    return int(line.split(": ")[1].split()[0])


def test_the_report_counts_the_plans_injections_by_kind_and_site(pytester, monkeypatch):
    result = run_suite(pytester, monkeypatch, "kernel-transient")
    assert result.ret == pytest.ExitCode.OK
    total = fired(result)
    assert total > 0
    rows = [line.split() for line in result.outlines if " fail @ kernel.command:" in line]
    assert rows and sum(int(row[0]) for row in rows) == total
    assert all(row[3].startswith("kernel.command:") for row in rows)


def test_the_report_counts_the_plans_draws_by_site_family(pytester, monkeypatch):
    """Every command dispatch is a draw at ``kernel.command:<name>``, fired
    or not: 200 ``abs`` calls draw at least 200 times in that family."""
    result = run_suite(pytester, monkeypatch, "kernel-transient")
    [total] = [line for line in result.outlines if line.startswith("draws by site family:")]
    [row] = [line.split() for line in result.outlines if " kernel.command:* (" in line]
    assert int(row[0]) >= 200 and int(row[0]) >= fired(result)
    assert int(total.split()[4]) == int(row[0])


def test_too_few_injections_fail_the_run(pytester, monkeypatch):
    total = fired(run_suite(pytester, monkeypatch, "kernel-transient"))
    enough = run_suite(pytester, monkeypatch, "kernel-transient", f"--min-injections={total}")
    assert enough.ret == pytest.ExitCode.OK
    short = run_suite(pytester, monkeypatch, "kernel-transient", f"--min-injections={total + 1}")
    assert short.ret == pytest.ExitCode.TESTS_FAILED
    short.stdout.fnmatch_lines([f"FAILED: fewer than --min-injections={total + 1} *"])


def test_no_plan_reports_nothing_unless_a_floor_is_asked_for(pytester, monkeypatch):
    quiet = run_suite(pytester, monkeypatch, None)
    assert quiet.ret == pytest.ExitCode.OK
    assert not any("global fault plan" in line for line in quiet.outlines)
    floor = run_suite(pytester, monkeypatch, None, "--min-injections=1")
    assert floor.ret == pytest.ExitCode.TESTS_FAILED
    assert fired(floor) == 0
