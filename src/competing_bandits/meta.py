"""Bandits-over-bandits layer for unknown variation budgets.

When the number of preference changes is not known ahead of time, the
restart period cannot be tuned directly. Instead the horizon is cut into
epochs; an EXP3 meta-learner treats each candidate restart period in a
geometric ensemble as an arm, picks one per epoch, runs the base loop with
it, and is fed the normalized joint reward of the epoch. The meta layer
sees only those reward totals, never the timeline's change schedule.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .engine import SimulationConfig, SimulationTrace, _Run, _TraceStream
from .environment import MeanRewardTimeline, stable_benchmarks
from .errors import InputError, _check_integer, _check_real
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
            raise InputError("must be a non-empty vector", "weights")
        if not np.all((self.weights > 0) & np.isfinite(self.weights)):
            raise InputError(f"must be positive and finite, got {self.weights.tolist()}", "weights")
        if not 0 < _check_real("gamma", self.gamma) <= 1:
            raise InputError(f"must be in (0, 1], got {self.gamma}", "gamma")

    @classmethod
    def fresh(cls, n_arms: int, gamma: float, rng: np.random.Generator) -> "Exp3State":
        return cls(np.ones(_check_integer("n_arms", n_arms, least=1)), gamma, rng)

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
    _check_integer("horizon", horizon, least=2)  # meta mode needs two rounds
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
    if not 0.0 <= _check_real("reward", reward) <= 1.0:
        raise InputError(f"must be in [0, 1], got {reward}", "reward")
    chosen = _check_integer("chosen", chosen, least=0, most=len(state.weights) - 1)
    p = state.probabilities()[chosen]
    n = len(state.weights)
    state.weights[chosen] *= math.exp(state.gamma * (reward / p) / n)
    # Rescale to keep weights bounded; probabilities are scale-invariant.
    state.weights /= state.weights.max()


def run_rcb_meta(
    config: SimulationConfig,
    market: MarketInstance,
    timeline: MeanRewardTimeline,
    *, export: _TraceStream | None = None,
) -> SimulationTrace:
    """Run the restart loop with the restart period chosen per epoch by
    EXP3.

    Learner states reset at every epoch start and at every period boundary
    inside an epoch. At each epoch's end the meta-learner receives the sum
    of all sampled rewards in the epoch, normalized by N * epoch_length *
    mu_bar and clipped to [0, 1]. The trace's schedule holds one entry per
    epoch, from which its per-round epoch/period columns derive, and it
    gains a per-epoch summary list. An ``export``, ``engine._TraceStream(path,
    extra_metadata)``, also writes the trace CSV, while the epochs play where it can.
    """
    if config.restart_period is not None:
        raise InputError("meta mode tunes it itself; leave it unset", "restart_period")
    horizon = config.horizon
    ensemble = build_ensemble(horizon)
    run = _Run(
        config, market, timeline, [config.seed], stable_benchmarks(timeline, market),
        restart_period=0,  # varies per epoch; see schedule
        epoch_summaries=[],
    )
    trace = run.traces[0]
    gamma = default_gamma(len(ensemble.periods), ensemble.epoch_count)
    exp3 = Exp3State.fresh(len(ensemble.periods), gamma, run.rngs[0])
    norm = market.n_players * ensemble.epoch_length * timeline.mu_bar

    def play(send):
        for epoch in range(ensemble.epoch_count):
            arm = exp3_select(exp3)
            period = ensemble.periods[arm]
            start = epoch * ensemble.epoch_length + 1
            end = min(horizon, (epoch + 1) * ensemble.epoch_length)
            run.play(start, end, period)
            send(start, end, period)
            # Each round's rewards summed left to right from 0, then the round sums
            # in order, as sum(sum(r) for r in rows.tolist()) does; np.sum pairs.
            row_sums = 0.0 + trace.rewards[start - 1:end, 0]
            for column in trace.rewards[start - 1:end, 1:].T:
                row_sums += column
            epoch_reward = float(np.cumsum(row_sums)[-1])
            reward = min(1.0, max(0.0, epoch_reward / norm))
            exp3_update(exp3, arm, reward)
            trace.epoch_summaries.append(
                EpochSummary(epoch, period, reward, tuple(float(p) for p in exp3.probabilities()))
            )

    if export is None:
        play(lambda *call: None)
    else:
        export.run(trace, play)
    return trace


def write_epoch_summary_csv(trace: SimulationTrace, path) -> None:
    """One row per epoch: choice, normalized reward, probability snapshot."""
    if trace.epoch_summaries is None:
        raise InputError("trace has none (not a meta run)", "epoch_summaries")
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
