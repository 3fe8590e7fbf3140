"""The scaled forward/backward recursion, once, as a blocked array kernel.

Every chain model in the repo — the compiled DBN's interface chain and the
discrete HMMs — filters with ``alpha_t ∝ (alpha_{t-1} · A_t) * lik_t`` and
smooths with the mirror-image recursion. This module is the only place
either is written down:

* :class:`StepMatrices` folds the per-step transition table and likelihood
  row into one matrix ``A · diag(lik)`` per *distinct* (table, row) pair of
  the sequence — discretised evidence repeats, so a 1,250-step race has
  ~100 of them — with every likelihood row divided by its maximum first
  (the logarithm is kept), so a run of steps cannot underflow merely
  because the likelihoods are small.
* :func:`forward` then performs one in-place ``np.dot`` per step into the
  preallocated ``(T, S)`` output and renormalises the running belief,
  tests for zero probability and polls for cancellation once per block of
  :data:`SCAN_BLOCK` steps instead of once per step; the rows inside a
  block are normalised together when the pass is over.
* :func:`backward` is :func:`forward` over the reversed sequence with the
  matrices transposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import InferenceError
from repro.resilience import cancel_checkpoint

__all__ = [
    "SCAN_BLOCK",
    "StepMatrices",
    "forward",
    "backward",
    "posteriors",
    "expected_transitions",
]

#: Steps between renormalisations / cancellation checkpoints.
SCAN_BLOCK = 16

#: A block whose final mass leaves this range is redone step by step: that
#: tells a true zero from an underflow, and names the step.
_MASS_FLOOR = 1e-100


@dataclass(frozen=True)
class StepMatrices:
    """Steps 1..T-1 of one sequence as indices into its distinct matrices.

    Attributes:
        matrices: ``tables[c] * lik_row[None, :]`` for every distinct pair,
            the likelihood row scaled to a maximum of one, shape (U, S, S).
        index: which matrix each step applies, shape (T-1,).
        log_peaks: log of the maximum divided out of each step's likelihood
            row, shape (T-1,) — what the scaling took from the likelihood.
    """

    matrices: np.ndarray
    index: np.ndarray
    log_peaks: np.ndarray

    @classmethod
    def build(
        cls,
        tables: np.ndarray,
        configs: np.ndarray,
        lik_rows: np.ndarray,
        rows: np.ndarray,
    ) -> "StepMatrices":
        """Fold per-step tables and likelihood rows into step matrices.

        Args:
            tables: transition tables, shape (C, S, S).
            configs: the table each step uses, shape (T-1,).
            lik_rows: distinct likelihood rows, shape (U, S).
            rows: the likelihood row each step uses, shape (T-1,).
        """
        peaks = lik_rows.max(axis=1)
        peaks[peaks <= 0] = 1.0  # an all-zero row stays zero and fails its step
        scaled = lik_rows / peaks[:, None]
        if tables.shape[0] == 1:
            matrices, index = tables * scaled[:, None, :], rows
        else:
            width = max(len(scaled), 1)
            pairs, index = np.unique(configs * width + rows, return_inverse=True)
            pair_config, pair_row = np.divmod(pairs, width)
            matrices = tables[pair_config] * scaled[pair_row][:, None, :]
        return cls(matrices, index, np.log(peaks)[rows])

    def reversed(self) -> "StepMatrices":
        """The same steps run from the last slice to the first."""
        return StepMatrices(
            self.matrices.transpose(0, 2, 1), self.index[::-1], self.log_peaks[::-1]
        )


def forward(
    initial: np.ndarray,
    steps: StepMatrices,
    *,
    site: str,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled forward pass.

    Args:
        initial: unnormalised belief of slice 0 (prior times likelihood).
        steps: the remaining slices.
        site: cancellation checkpoint name, polled once per block.
        project: optional map applied to every normalised belief before it
            is propagated (the Boyen-Koller projection); the pass then
            renormalises — and polls — every step.

    Returns:
        ``(beliefs, log_scales)``: normalised beliefs, shape (T, S), and
        per-slice ``log P(e_t | e_{1:t-1})``, shape (T,).

    Raises:
        InferenceError: the evidence has zero probability at some slice;
            the message names the first such ``t``.
    """
    t_len = steps.index.shape[0] + 1
    ones = np.ones(initial.shape[0])
    beliefs = np.empty((t_len, initial.shape[0]))
    #: mass of each row that closed a block, before it was normalised
    closing = np.zeros(t_len)
    closing[0] = initial.sum()
    if not closing[0] > 0:
        raise InferenceError("evidence has zero probability at t=0")
    np.divide(initial, closing[0], out=beliefs[0])
    if project is not None:
        beliefs[0] = project(beliefs[0])
    rows = list(beliefs)
    distinct = list(steps.matrices)
    matrices = [distinct[i] for i in steps.index.tolist()]
    dot = np.dot

    def advance(start: int, stop: int, block: int) -> None:
        for lo in range(start, stop, block):
            cancel_checkpoint(site)
            hi = min(lo + block, stop)
            for previous, matrix, row in zip(
                rows[lo - 1 : hi - 1], matrices[lo - 1 : hi - 1], rows[lo:hi]
            ):
                dot(previous, matrix, out=row)
            row = rows[hi - 1]
            mass = float(dot(row, ones))
            if block == 1:
                if not mass > 0:
                    raise InferenceError(f"evidence has zero probability at t={lo}")
            elif not _MASS_FLOOR < mass < 1 / _MASS_FLOOR:
                advance(lo, hi, 1)
                continue
            row /= mass
            closing[hi - 1] = mass
            if project is not None:
                row[:] = project(row)

    advance(1, t_len, 1 if project is not None else SCAN_BLOCK)
    # rows inside a block still carry the mass they had there; a row that
    # closed one has mass 1, and what it had before is in ``closing``
    masses = beliefs @ ones
    scales = np.where(closing > 0, closing, masses)
    scales[1:] /= masses[:-1]
    beliefs /= masses[:, None]
    log_scales = np.log(scales)
    log_scales[1:] += steps.log_peaks
    return beliefs, log_scales


def backward(steps: StepMatrices, *, site: str) -> np.ndarray:
    """Backward messages ``beta_t ∝ P(e_{t+1:T} | state_t)``, shape (T, S).

    Each row is scaled to sum to one — :func:`posteriors` and
    :func:`expected_transitions` normalise per step, so the scale is free.
    After a successful :func:`forward` over the same steps no message can
    be truly zero, so the zero-probability error cannot surface here.
    """
    n_states = steps.matrices.shape[-1]
    betas, _ = forward(np.ones(n_states), steps.reversed(), site=site)
    return betas[::-1]


def posteriors(alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Smoothed state posteriors from forward beliefs and backward messages."""
    gamma = alphas * betas
    gamma /= gamma.sum(axis=1, keepdims=True)
    return gamma


def expected_transitions(
    table: np.ndarray, previous: np.ndarray, weighted: np.ndarray
) -> np.ndarray:
    """``Σ_t P(state_{t-1}, state_t | e)`` over steps sharing one table.

    Args:
        table: the transition table of those steps, shape (S, S).
        previous: forward beliefs of slice t-1 per step, shape (n, S).
        weighted: likelihood row times backward message of slice t per
            step, shape (n, S); any per-row scale.
    """
    norm = ((previous @ table) * weighted).sum(axis=1)
    return table * (previous.T @ (weighted / norm[:, None]))
