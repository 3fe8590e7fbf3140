"""Shared benchmark fixtures.

The three synthetic Grands Prix and the trained networks are built once per
session; each table/figure bench consumes them. Building everything takes
a few minutes (three 600 s races through the full extraction chain) — the
price of regenerating every table from raw media.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.fusion.pipeline import AudioExperiment, AvExperiment, RaceData, prepare_race
from repro.synth.grandprix import BELGIAN_GP, GERMAN_GP, USA_GP

#: Where :func:`record_result` writes: the ``--results PATH`` option, or
#: nowhere, so a bench run never rewrites the tracked ``results.json``.
RESULTS_PATH: pathlib.Path | None = None


def pytest_addoption(parser):
    parser.addoption(
        "--results",
        metavar="PATH",
        help="accumulate the measured numbers as JSON in PATH "
        "(benchmarks/results.json to refresh the committed record)",
    )


def pytest_configure(config):
    global RESULTS_PATH
    path = config.getoption("--results")
    RESULTS_PATH = pathlib.Path(path) if path else None


def record_result(key: str, value) -> None:
    """Accumulate measured numbers into the ``--results`` file, if any."""
    if RESULTS_PATH is None:
        return
    data = {}
    if RESULTS_PATH.exists():
        data = json.loads(RESULTS_PATH.read_text())
    data[key] = value
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True))


@pytest.fixture(scope="session")
def german() -> RaceData:
    return prepare_race(GERMAN_GP)


@pytest.fixture(scope="session")
def belgian() -> RaceData:
    return prepare_race(BELGIAN_GP)


@pytest.fixture(scope="session")
def usa() -> RaceData:
    return prepare_race(USA_GP)


@pytest.fixture(scope="session")
def audio_dbn(german) -> AudioExperiment:
    """The fully parameterized audio DBN trained on the German GP."""
    return AudioExperiment(german, structure="a", temporal="v1", seed=1)


@pytest.fixture(scope="session")
def av_with_passing(german) -> AvExperiment:
    return AvExperiment(german, include_passing=True, seed=2)


@pytest.fixture(scope="session")
def av_without_passing(german) -> AvExperiment:
    return AvExperiment(german, include_passing=False, seed=2)
