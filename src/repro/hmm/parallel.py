"""Parallel HMM evaluation — the paper's Fig. 3/4 pathway.

The Cobra system distributes HMM evaluation over several HMM servers called
from a MIL procedure which fans the six calls out under ``threadcnt(7)`` and
picks the best-scoring model. Here:

* :class:`HmmServer` stands in for one remote HMM engine (it holds a model
  bank and answers evaluation calls);
* :class:`HmmModule` is the MEL-style kernel module exposing ``hmmOneCall``;
* :func:`build_parallel_eval_proc` emits the Fig. 4 MIL procedure for a
  given model list;
* :class:`HmmExtension` is the Moa-level extension offering ``train``,
  ``evaluate`` and ``classify`` operators (classify goes through the kernel
  so the parallel physical path is exercised end to end).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import InferenceError
from repro.hmm.algorithms import log_likelihood
from repro.hmm.model import DiscreteHmm
from repro.hmm.train import baum_welch
from repro.moa.extension import MoaExtension
from repro.monet.bat import BAT
from repro.monet.kernel import MonetKernel
from repro.monet.module import MonetModule, command

__all__ = [
    "HmmServer",
    "HmmModule",
    "HmmExtension",
    "build_parallel_eval_proc",
]


class HmmServer:
    """One HMM evaluation server (the paper runs six of these remotely).

    The server owns a bank of named models and evaluates observation
    sequences against them. ``calls`` counts evaluations, which the parallel
    bench uses to verify the fan-out actually happened.
    """

    def __init__(self, server_id: int):
        self.server_id = server_id
        self._models: dict[str, DiscreteHmm] = {}
        self.calls = 0

    def load_model(self, name: str, model: DiscreteHmm) -> None:
        self._models[name] = model

    def model_names(self) -> list[str]:
        return sorted(self._models)

    def evaluate(self, model_name: str, observations: Sequence[int]) -> float:
        """log P(observations | model) for one named model."""
        if model_name not in self._models:
            raise InferenceError(
                f"server {self.server_id} has no model {model_name!r}"
            )
        self.calls += 1
        return log_likelihood(self._models[model_name], observations)


class HmmModule(MonetModule):
    """Physical-level MEL module: the ``hmmOneCall`` command of Fig. 4."""

    name = "hmm"

    def __init__(self, servers: Sequence[HmmServer]):
        self._servers = {server.server_id: server for server in servers}

    @command(args=("int", "str", "BAT[void,int]"), returns="flt")
    def hmmOneCall(self, server_id: int, model_name: str, obs: BAT) -> float:
        """Evaluate one model on one server; obs is a [void,int] symbol BAT."""
        if server_id not in self._servers:
            raise InferenceError(f"no HMM server with id {server_id}")
        observations = [int(x) for x in obs.tails()]
        return self._servers[server_id].evaluate(model_name, observations)

    @command(
        args=("BAT[void,dbl]",),
        returns="BAT[void,int]",
        varargs=True,
        arg_ranges=((0.0, 1.0),),
    )
    def quantize(self, *feature_bats: BAT) -> BAT:
        """The Fig. 4 ``quant1``: fuse [void,dbl] feature BATs into symbols.

        Each 0.1 s step gets the index of its strongest feature — a simple
        vector quantization adequate for the evaluation benches.
        """
        if not feature_bats:
            raise InferenceError("quantize needs at least one feature BAT")
        arrays = [b.tail_array() for b in feature_bats]
        length = min(a.shape[0] for a in arrays)
        stacked = np.stack([a[:length] for a in arrays])
        symbols = np.argmax(stacked, axis=0)
        out = BAT("void", "int")
        out.insert_bulk(None, [int(s) for s in symbols])
        return out


def build_parallel_eval_proc(
    proc_name: str, model_names: Sequence[str], n_servers: int
) -> str:
    """Emit the Fig. 4 MIL procedure for parallel multi-model evaluation.

    One model is assigned per server, round-robin. The PROC takes the
    observation BAT, evaluates every model inside a ``PARALLEL`` block sized
    by ``threadcnt(n_servers + 1)``, and returns the best model's name.
    """
    if not model_names:
        raise InferenceError("need at least one model name")
    lines = [
        f"PROC {proc_name}(BAT[void,int] Obs) : str := {{",
        f"  VAR BrProcesa := threadcnt({n_servers + 1});",
        "  VAR parEval := new(str, flt);",
        "  PARALLEL {",
    ]
    for index, model_name in enumerate(model_names):
        server_id = index % n_servers
        lines.append(
            f'    parEval.insert("{model_name}", '
            f'hmmOneCall({server_id}, "{model_name}", Obs));'
        )
    lines += [
        "  }",
        "  VAR best := parEval.max;",
        "  VAR ret := (parEval.reverse).find(best);",
        "  RETURN ret;",
        "}",
    ]
    return "\n".join(lines)


class HmmExtension(MoaExtension):
    """Moa-level HMM extension: train / evaluate / classify operators."""

    name = "hmm"

    def __init__(self, kernel: MonetKernel, n_servers: int = 6):
        if n_servers < 1:
            raise InferenceError("need at least one HMM server")
        self._kernel = kernel
        self._servers = [HmmServer(i) for i in range(n_servers)]
        self._module = HmmModule(self._servers)
        kernel.load_module(self._module)
        self._classify_proc: str | None = None
        self._model_names: list[str] = []

    @property
    def servers(self) -> list[HmmServer]:
        return list(self._servers)

    def operators(self) -> dict[str, Any]:
        return {
            "train": self.train,
            "evaluate": self.evaluate,
            "classify": self.classify,
        }

    # ------------------------------------------------------------------
    def train(
        self,
        name: str,
        sequences: Sequence[Sequence[int]],
        n_states: int,
        n_symbols: int,
        seed: int = 0,
        max_iterations: int = 50,
    ) -> DiscreteHmm:
        """Baum-Welch a model and deploy it to every server under ``name``."""
        rng = np.random.default_rng(seed)
        start = DiscreteHmm.random(n_states, n_symbols, rng=rng, name=name)
        result = baum_welch(start, sequences, max_iterations=max_iterations)
        self.deploy(name, result.model)
        return result.model

    def deploy(self, name: str, model: DiscreteHmm) -> None:
        """Install an already-trained model on all servers."""
        for server in self._servers:
            server.load_model(name, model)
        if name not in self._model_names:
            self._model_names.append(name)
        self._classify_proc = None  # model set changed; re-emit MIL lazily

    def evaluate(self, name: str, observations: Sequence[int]) -> float:
        """Single-model evaluation via server 0."""
        return self._servers[0].evaluate(name, observations)

    def classify(self, observations: Sequence[int]) -> str:
        """Best-model classification through the Fig. 4 parallel MIL proc."""
        if not self._model_names:
            raise InferenceError("no models deployed; train or deploy first")
        if self._classify_proc is None:
            proc_name = f"hmmP{len(self._model_names)}x{id(self) % 10000}"
            source = build_parallel_eval_proc(
                proc_name, self._model_names, len(self._servers)
            )
            self._kernel.run(source)
            self._classify_proc = proc_name
        obs_bat = BAT("void", "int")
        obs_bat.insert_bulk(None, [int(o) for o in observations])
        return self._kernel.call(self._classify_proc, [obs_bat])
