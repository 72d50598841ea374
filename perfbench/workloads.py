"""The workloads: fixed traffic mixes, rates and phase plans.

Every workload serves the same corpus shape, so set-up time compares
across them. Inputs come only from the workload seed: the same seed
gives the same users, items, labels and arrival times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.frontend import wire
from repro.frontend.api import (
    ObserveApiRequest,
    PredictApiRequest,
    RetrainApiRequest,
    TopKApiRequest,
)

#: Corpus shape (SynthLens): users, items, mean ratings per user.
USERS = 1000
ITEMS = 1000
RATINGS_PER_USER = 25
#: Pipelined connections the generator opens (at most ``nproc`` = 2).
CONNECTIONS = 2
#: Set-ups per run; the last one serves, ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Zipf exponent of user and item popularity in the skewed mixes.
ZIPF_S = 1.0
#: Top-k shape.
TOPK_CANDIDATES = 100
TOPK_K = 10
#: Share of observes in the mixed workload.
WRITE_SHARE = 0.3
#: Label noise around the reference score for generated observes.
LABEL_NOISE = 0.25
#: Light write probe (workloads without writes of their own).
PROBE_RPS = 100.0
#: Retrains sent at the end, each followed by light reads for
#: ``RETRAIN_READS_S`` seconds (workloads without a retrain of their own).
SOLO_RETRAINS = 2
RETRAIN_READS_S = 0.15

#: Interleaved rounds of the light, steady and saturation phases.
ROUNDS = 5
#: Phase lengths as shares of ``--seconds`` (summed over the rounds).
LIGHT_SHARE = 0.25
STEADY_SHARE = 0.30
SATURATION_SHARE = 0.30
PROBE_SHARE = 0.10


@dataclass(frozen=True)
class Workload:
    """One traffic mix and its fixed rates."""

    name: str
    #: "predict", "topk" or "mixed" (predict + observe).
    mix: str
    #: Open-loop rate of the light phase (uniformly spaced arrivals).
    light_rps: float
    #: Open-loop rate of the steady phase (Poisson arrivals).
    steady_rps: float
    #: Closed-loop requests in flight per connection (saturation).
    window: int
    #: Zipf-skewed users (else uniform).
    zipf_users: bool = True
    replicas: int = 1
    #: Share of every steady round after which one retrain is sent
    #: (None: retrains under light reads run at the end instead).
    retrain_at: float | None = None


#: Steady rates sit at 20-30% of each workload's closed-loop throughput
#: on the reference machine (a shared 2-vCPU VM): nearer saturation,
#: queueing multiplies the machine's own slowdowns from run to run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("predict-zipf", "predict", light_rps=100.0,
                 steady_rps=1000.0, window=16),
        Workload("topk-wide", "topk", light_rps=50.0, steady_rps=100.0,
                 window=4, zipf_users=False),
        Workload("observe-mixed", "mixed", light_rps=80.0,
                 steady_rps=600.0, window=16, replicas=2),
        Workload("retrain-under-load", "predict", light_rps=100.0,
                 steady_rps=400.0, window=16, retrain_at=0.75),
    )
}


def _zipf_sampler(rng, n: int):
    """A function drawing ids in ``[0, n)`` with Zipf popularity over a
    seeded random ranking."""
    weights = 1.0 / np.arange(1, n + 1, dtype=float) ** ZIPF_S
    probs = np.empty(n)
    probs[rng.permutation(n)] = weights / weights.sum()
    return lambda size: rng.choice(n, size=size, p=probs)


@dataclass
class Requests:
    """One phase's requests, decoded fields plus pre-encoded frames."""

    kind: np.ndarray      # 0 predict, 1 top-k, 2 observe
    uid: np.ndarray
    item: np.ndarray      # predict/observe item (-1 for top-k)
    candidates: np.ndarray | None  # (n, TOPK_CANDIDATES) for top-k rows
    frames: list

    def __len__(self) -> int:
        return len(self.kind)


PREDICT, TOPK, OBSERVE = 0, 1, 2


class RequestMaker:
    """Draws a workload's requests from its seed."""

    def __init__(self, workload: Workload, seed: int, reference):
        self.workload = workload
        self.rng = np.random.default_rng([seed, 1])
        self.reference = reference
        self._users = (
            _zipf_sampler(self.rng, USERS) if workload.zipf_users
            else (lambda size: self.rng.integers(0, USERS, size))
        )
        self._items = _zipf_sampler(self.rng, ITEMS)

    def make(self, count: int, base: int, mix: str | None = None) -> Requests:
        """``count`` requests with correlation ids from ``base``.

        ``mix`` is ``"observe"`` for a pure write probe, ``"reads"`` for
        the workload's mix without its writes, or ``None`` for the
        workload's mix.
        """
        rng = self.rng
        if mix is None or mix == "reads":
            own = self.workload.mix
            mix = "predict" if mix == "reads" and own == "mixed" else own
        users = (
            rng.integers(0, USERS, count) if mix == "observe"
            else self._users(count)
        )
        items = self._items(count)
        kind = np.full(count, PREDICT, dtype=np.int8)
        candidates = None
        if mix == "topk":
            kind[:] = TOPK
            items[:] = -1
            candidates = np.stack([
                rng.choice(ITEMS, TOPK_CANDIDATES, replace=False)
                for _ in range(count)
            ])
        elif mix == "observe":
            kind[:] = OBSERVE
        elif mix == "mixed":
            kind[rng.random(count) < WRITE_SHARE] = OBSERVE
        label = np.zeros(count)
        observes = kind == OBSERVE
        if observes.any():
            noise = rng.normal(0.0, LABEL_NOISE, int(observes.sum()))
            exact = self.reference.scores(users[observes], items[observes])
            label[observes] = np.clip(exact + noise, 0.5, 5.0)
        frames = []
        for i in range(count):
            uid = int(users[i])
            if kind[i] == PREDICT:
                request = PredictApiRequest(uid=uid, item=int(items[i]))
            elif kind[i] == OBSERVE:
                request = ObserveApiRequest(uid=uid, item=int(items[i]),
                                            label=float(label[i]))
            else:
                request = TopKApiRequest(
                    uid=uid, items=tuple(int(x) for x in candidates[i]),
                    k=TOPK_K,
                )
            frames.append(wire.encode_request_frame(request, base + i))
        return Requests(kind, users, items, candidates, frames)

    def arrivals(self, rate: float, poisson: bool, count: int) -> np.ndarray:
        """Offsets (s) of ``count`` sends at ``rate`` per second: evenly
        spaced from one interval on, or Poisson arrivals from 0."""
        if not poisson:
            return np.arange(1, count + 1) / rate
        gaps = self.rng.exponential(1.0 / rate, count)
        return np.concatenate([[0.0], np.cumsum(gaps[:-1])])


def retrain_frame(corr_id: int) -> bytes:
    return wire.encode_request_frame(
        RetrainApiRequest(reason="benchmark"), corr_id
    )
