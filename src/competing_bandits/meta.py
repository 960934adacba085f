"""Bandits-over-bandits layer for unknown variation budgets.

When the number of preference changes is not known ahead of time, the
restart period cannot be tuned directly. Instead the horizon is cut into
epochs; an EXP3 meta-learner treats each candidate restart period in a
geometric ensemble as an arm, picks one per epoch, runs the base loop with
it, and is fed the normalized joint reward of the epoch. The meta layer
sees only those reward totals, never the timeline's change schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import SimulationConfig, SimulationTrace, _check_dimensions, _Run
from .environment import MeanRewardTimeline, stable_benchmarks
from .errors import InputError
from .market import MarketInstance


@dataclass(frozen=True)
class EpochEnsemble:
    """Candidate restart periods plus the epoch grid they are tried on."""

    periods: tuple[int, ...]
    epoch_length: int
    epoch_count: int


@dataclass
class Exp3State:
    """EXP3 weights with a fixed exploration mixture.

    Sampling probabilities are (1 - gamma) * w / sum(w) + gamma / J, so
    every arm keeps probability at least gamma / J.
    """

    weights: np.ndarray
    gamma: float
    rng: np.random.Generator

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1 or len(self.weights) < 1:
            raise InputError("weights must be a non-empty vector")
        if np.any(self.weights <= 0):
            raise InputError("weights must stay positive")
        if not (0 < self.gamma <= 1):
            raise InputError("exploration rate must be in (0, 1]")

    @classmethod
    def fresh(cls, n_arms: int, gamma: float, rng: np.random.Generator) -> "Exp3State":
        return cls(np.ones(n_arms), gamma, rng)

    def probabilities(self) -> np.ndarray:
        w = self.weights / self.weights.sum()
        return (1.0 - self.gamma) * w + self.gamma / len(w)


@dataclass(frozen=True)
class EpochSummary:
    epoch: int
    chosen_h: int
    normalized_reward: float
    probabilities: tuple[float, ...]


def build_ensemble(horizon: int) -> EpochEnsemble:
    """Geometric restart-period grid {1, 2, 4, ...} reaching about sqrt(T),
    tried over epochs of length about sqrt(T).

    The grid spans the tuned period for any change count between constant
    and linear in the horizon, each within a factor two of some member.
    """
    if horizon < 2:
        raise InputError("meta mode needs a horizon of at least 2")
    n_periods = math.ceil(0.5 * math.log2(horizon)) + 1
    periods = tuple(2 ** j for j in range(n_periods))
    root = math.isqrt(horizon)
    epoch_length = root if root * root == horizon else root + 1
    epoch_count = math.ceil(horizon / epoch_length)
    return EpochEnsemble(periods, epoch_length, epoch_count)


def default_gamma(n_arms: int, n_rounds: int) -> float:
    """Standard EXP3 exploration rate for a known number of meta rounds."""
    if n_arms < 2:
        return 1.0
    return min(1.0, math.sqrt(n_arms * math.log(n_arms) / ((math.e - 1) * n_rounds)))


def exp3_select(state: Exp3State) -> int:
    """Draw an arm index from the exploration-mixed weight distribution."""
    p = state.probabilities()
    return int(state.rng.choice(len(p), p=p / p.sum()))


def exp3_update(state: Exp3State, chosen: int, reward: float) -> None:
    """Importance-weighted exponential update of the chosen arm only."""
    if not (0.0 <= reward <= 1.0):
        raise InputError(f"meta reward {reward} outside [0, 1]")
    if not (0 <= chosen < len(state.weights)):
        raise InputError(f"arm index {chosen} out of range")
    p = state.probabilities()[chosen]
    n = len(state.weights)
    state.weights[chosen] *= math.exp(state.gamma * (reward / p) / n)
    # Rescale to keep weights bounded; probabilities are scale-invariant.
    state.weights /= state.weights.max()


def run_rcb_meta(
    config: SimulationConfig,
    market: MarketInstance,
    timeline: MeanRewardTimeline,
    rng: Optional[np.random.Generator] = None,
) -> SimulationTrace:
    """Run the restart loop with the restart period chosen per epoch by
    EXP3.

    Learner states reset at every epoch start and at every period boundary
    inside an epoch. At each epoch's end the meta-learner receives the sum
    of all sampled rewards in the epoch, normalized by N * epoch_length *
    mu_bar and clipped to [0, 1]. The trace gains per-round epoch/period
    columns and a per-epoch summary list.
    """
    _check_dimensions(config, market, timeline)
    if config.restart_period is not None:
        raise InputError("meta mode tunes the restart period itself; leave it unset")
    horizon = config.horizon
    ensemble = build_ensemble(horizon)
    run = _Run(
        config, market, timeline, [config.seed], stable_benchmarks(timeline, market), rng,
        restart_period=0,  # varies per epoch; see chosen_h
        epoch_index=[],
        chosen_h=[],
        epoch_summaries=[],
    )
    trace = run.traces[0]
    gamma = default_gamma(len(ensemble.periods), ensemble.epoch_count)
    exp3 = Exp3State.fresh(len(ensemble.periods), gamma, run.rngs[0])
    norm = market.n_players * ensemble.epoch_length * timeline.mu_bar

    for epoch in range(ensemble.epoch_count):
        arm = exp3_select(exp3)
        period = ensemble.periods[arm]
        start = epoch * ensemble.epoch_length + 1
        end = min(horizon, (epoch + 1) * ensemble.epoch_length)
        run.play(start, end, period)
        trace.epoch_index.extend([epoch] * (end - start + 1))
        trace.chosen_h.extend([period] * (end - start + 1))
        epoch_reward = sum(sum(r) for r in trace.rewards[start - 1:end].tolist())
        reward = min(1.0, max(0.0, epoch_reward / norm))
        exp3_update(exp3, arm, reward)
        trace.epoch_summaries.append(
            EpochSummary(epoch, period, reward, tuple(float(p) for p in exp3.probabilities()))
        )
    return trace


def write_epoch_summary_csv(trace: SimulationTrace, path) -> None:
    """One row per epoch: choice, normalized reward, probability snapshot."""
    if trace.epoch_summaries is None:
        raise InputError("trace has no epoch summaries (not a meta run)")
    import csv

    with open(path, "w", newline="") as fh:
        fh.write(f"# seed = {trace.seed}\n")
        fh.write(f"# horizon = {trace.horizon}\n")
        writer = csv.writer(fh)
        n_arms = len(trace.epoch_summaries[0].probabilities) if trace.epoch_summaries else 0
        writer.writerow(
            ["epoch", "chosen_H", "normalized_reward"]
            + [f"p_{j}" for j in range(n_arms)]
        )
        for s in trace.epoch_summaries:
            writer.writerow(
                [s.epoch, s.chosen_h, repr(s.normalized_reward)]
                + [repr(p) for p in s.probabilities]
            )
