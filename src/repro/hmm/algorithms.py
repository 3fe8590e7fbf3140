"""HMM inference algorithms: scaled forward/backward (on the shared scan
kernel of :mod:`repro.dbn.scan`), Viterbi, posteriors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dbn import scan
from repro.errors import InferenceError
from repro.hmm.model import DiscreteHmm

__all__ = ["ForwardBackwardResult", "forward_backward", "log_likelihood", "viterbi", "sample"]


@dataclass
class ForwardBackwardResult:
    """Scaled forward/backward quantities for one sequence.

    Attributes:
        log_likelihood: log P(observations | model).
        gamma: state posteriors, shape (T, n_states).
        xi_sum: expected transition counts summed over time,
            shape (n_states, n_states).
        alphas: scaled forward variables, shape (T, n_states).
        scales: per-step scaling constants c_t with
            log P(o) = sum(log c_t).
    """

    log_likelihood: float
    gamma: np.ndarray
    xi_sum: np.ndarray
    alphas: np.ndarray
    scales: np.ndarray


def _chain(model: DiscreteHmm, obs: np.ndarray) -> tuple[np.ndarray, scan.StepMatrices]:
    """Slice 0's unnormalised belief and the step matrices of the rest:
    one transition table, the emission column of each symbol as its row."""
    configs = np.zeros(obs.shape[0] - 1, dtype=np.int64)
    steps = scan.StepMatrices.build(
        model.transition[None], configs, model.emission.T, obs[1:]
    )
    return model.initial * model.emission[:, obs[0]], steps


def forward_backward(model: DiscreteHmm, observations: Sequence[int]) -> ForwardBackwardResult:
    """Run the scaled forward-backward algorithm on one sequence."""
    obs = model.check_observations(observations)
    initial, steps = _chain(model, obs)
    alphas, log_scales = scan.forward(initial, steps, site="hmm.forward_backward")
    betas = scan.backward(steps, site="hmm.forward_backward")
    xi_sum = scan.expected_transitions(
        model.transition, alphas[:-1], model.emission.T[obs[1:]] * betas[1:]
    )
    return ForwardBackwardResult(
        log_likelihood=float(log_scales.sum()),
        gamma=scan.posteriors(alphas, betas),
        xi_sum=xi_sum,
        alphas=alphas,
        scales=np.exp(log_scales),
    )


def log_likelihood(model: DiscreteHmm, observations: Sequence[int]) -> float:
    """log P(observations | model) — the HMM *evaluation* operation.

    This is what each of the six parallel HMM servers computes in the
    paper's Fig. 3/4 before the best-scoring model is selected.
    """
    obs = model.check_observations(observations)
    try:
        _, log_scales = scan.forward(*_chain(model, obs), site="hmm.log_likelihood")
    except InferenceError:  # an impossible sequence scores -inf, not an error
        return float("-inf")
    return float(log_scales.sum())


def viterbi(model: DiscreteHmm, observations: Sequence[int]) -> tuple[list[int], float]:
    """Most probable state path and its log probability."""
    obs = model.check_observations(observations)
    t_len = obs.shape[0]
    n = model.n_states
    with np.errstate(divide="ignore"):
        log_a = np.log(model.transition)
        log_b = np.log(model.emission)
        log_pi = np.log(model.initial)

    delta = log_pi + log_b[:, obs[0]]
    back = np.zeros((t_len, n), dtype=np.int64)
    for t in range(1, t_len):
        candidates = delta[:, None] + log_a
        back[t] = np.argmax(candidates, axis=0)
        delta = candidates[back[t], np.arange(n)] + log_b[:, obs[t]]
    best_last = int(np.argmax(delta))
    path = [best_last]
    for t in range(t_len - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return path, float(delta[best_last])


def sample(
    model: DiscreteHmm, length: int, rng: np.random.Generator | None = None
) -> tuple[list[int], list[int]]:
    """Sample (states, observations) of the given length."""
    if length < 1:
        raise InferenceError("sample length must be >= 1")
    rng = rng or np.random.default_rng()
    states: list[int] = []
    observations: list[int] = []
    state = int(rng.choice(model.n_states, p=model.initial))
    for _ in range(length):
        states.append(state)
        observations.append(int(rng.choice(model.n_symbols, p=model.emission[state])))
        state = int(rng.choice(model.n_states, p=model.transition[state]))
    return states, observations
