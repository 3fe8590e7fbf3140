"""Shared fixtures and the hypothesis profiles.

The expensive artifacts (a synthetic race with extracted features, a
trained retrieval system) are session-scoped: every integration test
shares one 180 s race.

Property tests run under the ``ci`` profile: derandomized, so a run draws
the same examples every time and a failure reproduces by rerunning it.
``--hypothesis-profile=explore`` draws fresh examples instead (pass
``--hypothesis-seed=N`` to replay a run), ``EXPLORE_FACTOR`` times each
test's own ``max_examples``.

Under a global fault plan (``REPRO_FAULT_PLAN`` names one) the run reports
the injections that plan fired, by kind and site, at the end, and how often
its injector drew at each site family (``extract.stream:*`` for every
``extract.stream:<name>``) — a draw is one hook call a spec of the plan
matched, fired or not; ``--min-injections N`` fails the run when fewer than
``N`` fired, so a plan that stops reaching the code it is meant to fault
shows up as a failure.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings

from repro.faults import plans
from repro.faults.injector import FaultInjector
from repro.fusion.pipeline import RaceData, prepare_race
from repro.synth.race import RaceSpec

settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
settings.register_profile("explore", database=None, print_blob=True)
settings.load_profile("ci")

#: How many times its own ``max_examples`` a property test draws under the
#: explore profile.
EXPLORE_FACTOR = 10


def pytest_collection_modifyitems(items):
    """Under the explore profile, scale every ``@given`` test's and every
    state machine's ``max_examples`` (each once, however parametrized)."""
    if settings.get_current_profile_name() != "explore":
        return
    scaled: set[int] = set()
    for item in items:
        # a ``@given`` test keeps its settings on the function hypothesis
        # wraps; a state machine's ``TestCase`` keeps them on the class
        test = getattr(item, "obj", None)
        test = getattr(test, "__func__", test)
        machine = getattr(item, "cls", None)
        if isinstance(getattr(machine, "settings", None), settings):
            owner, attribute = machine, "settings"
        elif isinstance(getattr(test, "_hypothesis_internal_use_settings", None), settings):
            owner, attribute = test, "_hypothesis_internal_use_settings"
        else:
            continue
        if id(owner) not in scaled:
            scaled.add(id(owner))
            current = getattr(owner, attribute)
            more = current.max_examples * EXPLORE_FACTOR
            setattr(owner, attribute, settings(current, max_examples=more))


#: (kind, site) -> injections the global fault plan fired this session
_FIRED = pytest.StashKey[Counter]()
#: site -> draws the global fault plan's injector made this session
_DRAWN = pytest.StashKey[Counter]()


def pytest_addoption(parser):
    parser.addoption(
        "--min-injections",
        type=int,
        default=0,
        metavar="N",
        help="fail the run unless the global fault plan (REPRO_FAULT_PLAN) "
        "fired at least N injections",
    )


def pytest_configure(config):
    """Count what the global plan draws and fires: a draw or an injection is
    the plan's when the injector making it is the one installed from
    ``REPRO_FAULT_PLAN`` (not an injector a test built or installed itself)."""
    name = os.environ.get(plans.ENV_VAR)
    if not name:
        return
    fired: Counter = Counter()
    drawn: Counter = Counter()
    config.stash[_FIRED] = fired
    config.stash[_DRAWN] = drawn
    log = FaultInjector._log
    next_invocation = FaultInjector._next_invocation

    def the_plans(injector) -> bool:
        return injector is plans._GLOBAL and plans._GLOBAL_FROM_ENV == name

    def counting_log(self, site, spec, invocation, detail=""):
        if the_plans(self):
            fired[spec.kind, site] += 1
        log(self, site, spec, invocation, detail)

    def counting_draw(self, site):
        if the_plans(self):
            drawn[site] += 1
        return next_invocation(self, site)

    FaultInjector._log = counting_log
    FaultInjector._next_invocation = counting_draw


def _fired(config) -> Counter | None:
    return config.stash.get(_FIRED, None)


def pytest_sessionfinish(session, exitstatus):
    fired = _fired(session.config)
    wanted = session.config.getoption("--min-injections")
    if wanted and sum((fired or Counter()).values()) < wanted:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    fired = _fired(config)
    wanted = config.getoption("--min-injections")
    if fired is None and not wanted:
        return
    total = sum((fired or Counter()).values())
    plan = os.environ.get(plans.ENV_VAR) or "(none installed)"
    terminalreporter.section("global fault plan")
    terminalreporter.write_line(f"plan {plan}: {total} injection(s) fired")
    for (kind, site), count in sorted((fired or Counter()).items()):
        terminalreporter.write_line(f"  {count:6d}  {kind} @ {site}")
    drawn = config.stash.get(_DRAWN, Counter())
    families: dict[str, list[int]] = {}
    for site, count in drawn.items():
        family = site.partition(":")[0] + (":*" if ":" in site else "")
        families.setdefault(family, []).append(count)
    terminalreporter.write_line(f"draws by site family: {sum(drawn.values())} in total")
    for family, counts in sorted(families.items()):
        terminalreporter.write_line(
            f"  {sum(counts):6d}  {family} ({len(counts)} site(s), "
            f"at most {max(counts)} at one)"
        )
    if total < wanted:
        terminalreporter.write_line(
            f"FAILED: fewer than --min-injections={wanted} injections fired", red=True
        )


MINI_SPEC = RaceSpec(
    name="testrace",
    duration=180.0,
    n_passings=2,
    n_fly_outs=1,
    n_pit_stops=1,
    passing_visibility=0.9,
    excitement_reaction=0.8,
    seed=77,
)


@pytest.fixture(scope="session")
def mini_race() -> RaceData:
    """One fully synthesized + feature-extracted race for the session."""
    return prepare_race(MINI_SPEC)


@pytest.fixture(scope="session")
def f1_system(mini_race):
    """A trained FormulaOneSystem over the mini race."""
    from repro.retrieval.system import FormulaOneSystem

    return FormulaOneSystem(mini_race, seed=3)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
