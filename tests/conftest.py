"""Shared fixtures and the hypothesis profiles.

The expensive artifacts (a synthetic race with extracted features, a
trained retrieval system) are session-scoped: every integration test
shares one 180 s race.

Property tests run under the ``ci`` profile: derandomized, so a run draws
the same examples every time and a failure reproduces by rerunning it.
``--hypothesis-profile=explore`` draws fresh examples instead (pass
``--hypothesis-seed=N`` to replay a run), ``EXPLORE_FACTOR`` times each
test's own ``max_examples``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

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
