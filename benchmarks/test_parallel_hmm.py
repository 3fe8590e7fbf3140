"""Fig. 3/4 — parallel evaluation of six HMMs through MIL.

Paper: "By distributing the HMM evaluation, we speed up the query
processing of the very costly inference operation." Six models are
evaluated in parallel under ``threadcnt(7)`` and the best one wins.

Python threads share the GIL, so the wall-clock speed-up of pure-numpy
evaluation is modest; the bench verifies the MECHANISM (all six models
evaluated through the parallel MIL PROC, correct argmax) and measures the
end-to-end classification cost.
"""

from conftest import record_result
import numpy as np
import pytest

from repro.hmm.algorithms import log_likelihood, sample
from repro.hmm.model import DiscreteHmm
from repro.hmm.parallel import HmmExtension
from repro.monet.kernel import MonetKernel

MODEL_NAMES = ["Service", "Forehand", "Smash", "Backhand", "VolleyB", "VolleyF"]


@pytest.fixture(scope="module")
def extension():
    kernel = MonetKernel()
    ext = HmmExtension(kernel, n_servers=6)
    for index, name in enumerate(MODEL_NAMES):
        ext.deploy(
            name,
            DiscreteHmm.random(5, 8, rng=np.random.default_rng(300 + index), name=name),
        )
    return ext


def test_parallel_classification_correct(extension, benchmark):
    rng = np.random.default_rng(42)
    observations = sample(
        extension.servers[0]._models["Smash"], 4000, rng
    )[1]

    expected = max(
        MODEL_NAMES,
        key=lambda n: log_likelihood(extension.servers[0]._models[n], observations),
    )
    result = benchmark(extension.classify, observations)
    assert result == expected

    # the server calls of one classification, however many rounds ran above
    before = sum(server.calls for server in extension.servers)
    extension.classify(observations)
    calls = sum(server.calls for server in extension.servers) - before
    assert calls == len(MODEL_NAMES)
    record_result("parallel_hmm", {"winner": result, "server_calls": calls})


def test_serial_vs_parallel_same_answer(extension, benchmark):
    rng = np.random.default_rng(7)
    observations = sample(extension.servers[0]._models["Backhand"], 2000, rng)[1]
    serial_best = max(
        MODEL_NAMES, key=lambda n: extension.evaluate(n, observations)
    )
    assert extension.classify(observations) == serial_best
    # serial evaluation cost for comparison with the parallel bench above
    benchmark(
        lambda: [extension.evaluate(n, observations) for n in MODEL_NAMES]
    )
