"""Ground-truth time-varying mean rewards and stochastic reward sampling.

A timeline holds the piecewise-constant mean reward mu[i][k] of every
player/arm pair over a horizon of T rounds. Changes enter as explicit
events; the materialized means are validated against the boundedness and
minimum-gap assumptions at construction. Timelines are immutable after
validation; reward sampling keeps all its state in the caller's generator.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AssumptionError, InputError, _check_choice, _check_integer, _check_real
from .market import MarketInstance, Matching, RankOrdering, optimal_pessimal

NOISE_FAMILIES = ("gaussian", "uniform", "none")

# Half-width of the zero-mean uniform noise; chosen so its variance is 1,
# matching the gaussian family's scale.
_UNIFORM_HALF_WIDTH = math.sqrt(3.0)


@dataclass(frozen=True)
class ChangeEvent:
    """One cell of the mean matrix taking a new value from round ``time`` on."""

    time: int
    player: int
    arm: int
    new_mean: float

    def __post_init__(self):
        for name in ("time", "player", "arm"):
            _check_integer(f"event {name}", getattr(self, name))
        new_mean = _check_real("event new_mean", self.new_mean, finite=False)
        object.__setattr__(self, "new_mean", new_mean)  # so 1 and 1.0 export the same bytes


class MeanRewardTimeline:
    """Piecewise-constant mean rewards over a horizon.

    Validation enforces: means within [0, mu_bar]; every event lands in
    [2, T], changes its cell and is the only one on its cell that round;
    and within every maximal constant segment each player's K means are
    pairwise distinct (so the global minimum gap is positive).
    """

    def __init__(
        self,
        horizon: int,
        initial_means: Sequence[Sequence[float]],
        events: Sequence[ChangeEvent] = (),
        mu_bar: float = 1.0,
    ):
        _check_integer("horizon", horizon, least=1)
        if not 0 < _check_real("mu_bar", mu_bar, finite=False) < math.inf:
            raise InputError(f"must be positive and finite, got {mu_bar}", "mu_bar")
        means = tuple(tuple(_check_real("initial_means", v, finite=False) for v in row)
                      for row in initial_means)
        if not means:
            raise InputError("must have at least one player row", "initial_means")
        if any(len(row) != len(means[0]) for row in means):
            raise InputError("rows must all have the same length", "initial_means")

        self.horizon = int(horizon)
        self.mu_bar = float(mu_bar)
        self.n_players, self.n_arms = len(means), len(means[0])
        self.initial_means = means
        self.events = tuple(sorted(events, key=lambda e: (e.time, e.player, e.arm)))

        self._validate_and_build_segments()

    def _validate_and_build_segments(self):
        self._check_matrix(self.initial_means, 1, "initial_means")
        current = [list(row) for row in self.initial_means]
        # (first round, means) of every segment, one per distinct event time.
        points = [(1, self.initial_means)]
        for t, group in itertools.groupby(self.events, key=operator.attrgetter("time")):
            if not (2 <= t <= self.horizon):
                raise InputError(f"event time {t} outside [2, {self.horizon}]", "events")
            for ev in group:
                if not (0 <= ev.player < self.n_players and 0 <= ev.arm < self.n_arms):
                    raise InputError(f"event at t={t} has out-of-range indices", "events")
                if not (0.0 <= ev.new_mean <= self.mu_bar):
                    raise AssumptionError(f"event at t={t} sets mean {ev.new_mean} "
                                          f"outside [0, {self.mu_bar}]", "events")
                if ev.new_mean == current[ev.player][ev.arm]:
                    raise InputError(f"event at t={t} for player {ev.player}, arm {ev.arm} "
                                     "does not change the mean", "events")
                current[ev.player][ev.arm] = ev.new_mean
            frozen = tuple(tuple(row) for row in current)
            self._check_matrix(frozen, t, "events")
            points.append((t, frozen))
        # Sorting keeps the events on one cell and round next to each other.
        for a, b in zip(self.events, self.events[1:]):
            if (a.time, a.player, a.arm) == (b.time, b.player, b.arm):
                raise InputError(f"second event at t={b.time} for player {b.player}, arm {b.arm}",
                                 "events")
        ends = [start - 1 for start, _ in points[1:]] + [self.horizon]
        self._segments = tuple((start, end, means) for (start, means), end in zip(points, ends))

    def _check_matrix(self, means, segment_start, field):
        for i, row in enumerate(means):
            for v in row:
                if not (0.0 <= v <= self.mu_bar):
                    raise AssumptionError(f"player {i}: mean {v} outside [0, {self.mu_bar}] "
                                          f"in segment starting at t={segment_start}", field)
            if len(set(row)) != len(row):
                raise AssumptionError(
                    f"player {i}: duplicate arm means in segment starting at t={segment_start} "
                    "(minimum-gap assumption needs distinct means)", field)

    def segments(self) -> list[tuple[int, int, tuple[tuple[float, ...], ...]]]:
        """Maximal constant segments as (first round, last round, means)."""
        return list(self._segments)


def means_at(timeline: MeanRewardTimeline, t: int) -> tuple[tuple[float, ...], ...]:
    """The mean matrix in force at round ``t`` (1-based)."""
    _check_integer("t", t, least=1, most=timeline.horizon)
    # The first segment that ends at round t or later.
    return timeline._segments[bisect.bisect_left(timeline._segments, t, key=lambda s: s[1])][2]


def total_changes(timeline: MeanRewardTimeline) -> int:
    """Total number of per-cell mean changes over the horizon.

    Equals the event count: construction rejects events that do not alter
    their cell, so every event is exactly one change indicator.
    """
    return len(timeline.events)


def draw_noise(rng: np.random.Generator, noise: str, n: int) -> np.ndarray:
    """``n`` zero-mean noise draws in one call, consuming the generator like
    ``n`` scalar draws. Families: "gaussian" (standard deviation 1),
    "uniform" (zero-mean, unit-variance bounded noise), "none"
    (deterministic, for tests)."""
    if noise == "gaussian":
        return rng.standard_normal(n)
    if noise == "uniform":
        return rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, n)
    if noise == "none":
        # x + (-0.0) == x bit for bit, a mean of -0.0 included.
        return np.full(n, -0.0)
    _check_choice("noise", noise, NOISE_FAMILIES)  # raises: none of the three matched


def sample_reward(
    timeline: MeanRewardTimeline,
    player: int,
    arm: int,
    t: int,
    rng: np.random.Generator,
    noise: str = "gaussian",
) -> float:
    """Draw one stochastic reward around the true mean at round ``t``
    (noise families as in ``draw_noise``)."""
    _check_integer("player", player, least=0, most=timeline.n_players - 1)
    _check_integer("arm", arm, least=0, most=timeline.n_arms - 1)
    return means_at(timeline, t)[player][arm] + draw_noise(rng, noise, 1).item()


def true_orderings(means: Sequence[Sequence[float]]) -> list[RankOrdering]:
    """Each player's true rank ordering under the given mean matrix."""
    return [
        RankOrdering(i, tuple(sorted(range(len(row)), key=lambda a: -row[a])))
        for i, row in enumerate(means)
    ]


def stable_benchmarks(
    timeline: MeanRewardTimeline,
    market: MarketInstance,
) -> list[tuple[Matching, Matching]]:
    """(player-optimal, player-pessimal) stable matching of each constant
    segment, aligned with ``timeline.segments()``, built from the true
    means."""
    if timeline.n_players != market.n_players or timeline.n_arms != market.n_arms:
        raise InputError("dimensions disagree with the market's", "timeline")
    return [optimal_pessimal(true_orderings(means), market) for _, _, means in timeline.segments()]
