"""Simulation loop: synchronized UCB restarts, platform clearing through
player-proposing deferred acceptance, reward dispatch, and regret
accounting against the per-round stable benchmarks.

Seeds of one config can share one round loop (``run_rcb_seeds``); other
independent runs share no state and can be driven in parallel.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

# The loop no longer calls deferred_acceptance or sample_reward; they stay
# importable here because perfbench/tracing.py wraps them at these names.
from .environment import (NOISE_FAMILIES, MeanRewardTimeline, draw_noise,  # noqa: F401
                          sample_reward, stable_benchmarks, total_changes)
from .errors import InputError
from .learner import ucb_ranking, ucb_values
from .market import (MarketInstance, Matching, deferred_acceptance,  # noqa: F401
                     player_proposing_da)

BASELINES = ("pessimal", "optimal")

# Trace CSV column schema; stable, documented in the README.
TRACE_COLUMNS = (
    "t",
    "block_index",
    "restart_flag",
    "player",
    "matched_arm",
    "sampled_reward",
    "true_mean",
    "benchmark_arm",
    "regret_increment",
    "cumulative_regret",
)
META_TRACE_COLUMNS = TRACE_COLUMNS + ("epoch_index", "chosen_H")


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of a single simulation run.

    ``restart_period=None`` means "auto": derive the block length from the
    horizon and the timeline's total change count.
    """

    horizon: int
    restart_period: Optional[int] = None
    seed: int = 0
    noise: str = "gaussian"
    baseline: str = "pessimal"

    def __post_init__(self):
        if self.horizon < 1:
            raise InputError("horizon must be at least 1")
        if self.restart_period is not None and self.restart_period < 1:
            raise InputError("explicit restart period must be at least 1")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
        if self.noise not in NOISE_FAMILIES:
            raise InputError(f"noise must be one of {NOISE_FAMILIES}, got {self.noise!r}")
        if self.baseline not in BASELINES:
            raise InputError(f"baseline must be one of {BASELINES}")


@dataclass
class SimulationTrace:
    """Per-round record of a run plus the resolved run parameters.

    ``segments`` are the timeline's constant segments as (first round, last
    round, means); true and benchmark means are derived from them on demand.
    The traces of one batch share ``segments``, the benchmark arm lists and
    the restart schedule (``restart_flags``, ``block_index``).
    """

    n_players: int
    horizon: int
    restart_period: int
    seed: int
    noise: str
    baseline: str
    # (T, N) arrays, row t - 1 for round t; matchings are int64.
    matchings: np.ndarray
    rewards: np.ndarray
    segments: list[tuple[int, int, tuple[tuple[float, ...], ...]]] = field(default_factory=list)
    optimal_arms: list[tuple[int, ...]] = field(default_factory=list)
    pessimal_arms: list[tuple[int, ...]] = field(default_factory=list)
    restart_flags: list[int] = field(default_factory=list)
    block_index: list[int] = field(default_factory=list)
    # Meta-mode extras; None for plain runs.
    epoch_index: Optional[list[int]] = None
    chosen_h: Optional[list[int]] = None
    epoch_summaries: Optional[list] = None

    @property
    def true_means(self) -> np.ndarray:
        """(T, N) true means of the matched arms, derived on every access."""
        offsets = np.arange(self.n_players) * len(self.segments[0][2][0])
        out = np.empty(self.matchings.shape)
        for start, end, means in self.segments:
            # The cells are in range; "clip" lets take write into out unbuffered.
            np.ravel(means).take(self.matchings[start - 1:end] + offsets,
                                 out=out[start - 1:end], mode="clip")
        return out

    def benchmark_arms(self, baseline: Optional[str] = None) -> list[tuple[int, ...]]:
        baseline = baseline or self.baseline
        if baseline == "optimal":
            return self.optimal_arms
        if baseline == "pessimal":
            return self.pessimal_arms
        raise InputError(f"unknown baseline {baseline!r}; must be one of {BASELINES}")

    def benchmark_means(self, baseline: Optional[str] = None) -> np.ndarray:
        """(T, N) true means of the benchmark matching. The benchmark is
        constant within a segment, so each segment is filled with one row."""
        arms = self.benchmark_arms(baseline)
        out = np.empty(self.matchings.shape)
        for start, end, means in self.segments:
            out[start - 1:end] = [row[arm] for row, arm in zip(means, arms[start - 1])]
        return out


@dataclass(frozen=True)
class RegretReport:
    """Regret curves derived from a trace with true (not sampled) means."""

    baseline: str
    increments: np.ndarray  # (T, N)
    cumulative: np.ndarray  # (T, N)
    block_sums: np.ndarray  # (blocks, N)
    block_bounds: tuple[tuple[int, int], ...]  # 1-based inclusive round ranges

    def final(self) -> np.ndarray:
        """Cumulative regret per player at the horizon."""
        return self.cumulative[-1]


def compute_restart_period(horizon: int, change_count: int) -> int:
    """Block length sqrt(T / L), rounded and clamped to [1, T]; a
    stationary timeline (L = 0) gets a single block."""
    if horizon < 1:
        raise InputError("horizon must be at least 1")
    if change_count < 0:
        raise InputError("change count cannot be negative")
    if change_count == 0:
        return horizon
    h = int(round(math.sqrt(horizon / change_count)))
    return max(1, min(horizon, h))


def _check_dimensions(config: SimulationConfig, market: MarketInstance,
                      timeline: MeanRewardTimeline) -> None:
    if market.n_players != timeline.n_players or market.n_arms != timeline.n_arms:
        raise InputError("market and timeline dimensions disagree")
    if config.horizon != timeline.horizon:
        raise InputError(
            f"config horizon {config.horizon} != timeline horizon {timeline.horizon}"
        )


def run_rcb(
    config: SimulationConfig,
    market: MarketInstance,
    timeline: MeanRewardTimeline,
    rng: Optional[np.random.Generator] = None,
) -> SimulationTrace:
    """Run the restart-UCB matching loop for the full horizon.

    Every round: restart all learners when a new block begins, collect each
    player's UCB rank ordering, clear the market with player-proposing
    deferred acceptance, then sample and feed back rewards. Identical
    config and seed give bit-identical traces.
    """
    return _run_rcb(config, market, timeline, [config.seed], rng)[0]


def run_rcb_seeds(config: SimulationConfig, market: MarketInstance, timeline: MeanRewardTimeline,
                  seeds: Sequence[int]) -> list[SimulationTrace]:
    """``run_rcb`` for every seed in ``seeds`` (not ``config.seed``), all
    advanced by one round loop. Trace i equals ``run_rcb(replace(config,
    seed=seeds[i]), market, timeline)`` bit for bit."""
    if len(seeds) == 0 or min(seeds) < 0:
        raise InputError(f"seeds must name at least one seed, none negative, got {list(seeds)}")
    return _run_rcb(config, market, timeline, seeds)


def _run_rcb(config: SimulationConfig, market: MarketInstance, timeline: MeanRewardTimeline,
             seeds: Sequence[int], rng=None) -> list[SimulationTrace]:
    _check_dimensions(config, market, timeline)
    horizon = config.horizon
    if config.restart_period is not None:
        period = min(config.restart_period, horizon)
    else:
        period = compute_restart_period(horizon, total_changes(timeline))
    run = _Run(config, market, timeline, seeds, stable_benchmarks(timeline, market), rng,
               restart_period=period)
    run.play(1, horizon, period)
    return run.traces


class _Run:
    """Runs of S >= 1 seeds in progress: the market, a noise stream per seed
    (``rng`` replaces a single seed's) and the traces they fill. The plain
    and the meta loop both advance it with ``play``; extra keyword
    arguments become trace fields."""

    def __init__(self, config: SimulationConfig, market: MarketInstance,
                 timeline: MeanRewardTimeline, seeds: Sequence[int],
                 benchmarks: Sequence[tuple[Matching, Matching]], rng=None, **trace_fields):
        self.market = market
        self.noise = config.noise
        self.rngs = [rng] if rng is not None else [np.random.default_rng(s) for s in seeds]
        n, width = market.n_players, len(seeds) * market.n_players
        # (T, S * N) arrays; seed s owns columns s * N to (s + 1) * N, which
        # its trace sees as its (T, N) arrays.
        self.matchings = np.zeros((config.horizon, width), dtype=np.int64)
        self.rewards = np.zeros((config.horizon, width))
        segments = timeline.segments()
        # One restart schedule for the whole batch, like the benchmarks.
        self.restart_flags, self.block_index = [], []
        shared = dict(segments=segments, restart_flags=self.restart_flags,
                      block_index=self.block_index,
                      optimal_arms=[opt.assignment for opt, _ in benchmarks],
                      pessimal_arms=[pess.assignment for _, pess in benchmarks])
        self.traces = [
            SimulationTrace(n, config.horizon, seed=seed, noise=config.noise,
                            baseline=config.baseline, matchings=self.matchings[:, lo:lo + n],
                            rewards=self.rewards[:, lo:lo + n], **shared, **trace_fields)
            for seed, lo in zip(seeds, range(0, width, n))
        ]
        # Each segment's (N, K) means, flat and repeated once per seed.
        self.segment_means = [np.tile(np.ravel(means), len(seeds)) for _, _, means in segments]

    def play(self, start: int, end: int, period: int) -> None:
        """Play rounds ``start`` to ``end`` inclusive for every seed,
        restarting every learner when ``(t - start) % period == 0``, so at
        ``start`` too. Block numbers continue from the schedule so far."""
        n, k, utilities = self.market.n_players, self.market.n_arms, self.market.arm_utilities
        matchings, rewards = self.matchings, self.rewards
        restart_flags, block_index = self.restart_flags, self.block_index
        width = rewards.shape[1]
        seed_rows = range(0, width, n)  # each seed's first trace column and learner row
        # Each seed's noise for the whole range in one draw (the same stream
        # as one draw per round); each round adds its true means to its row.
        rows = rewards[start - 1:end]
        for lo, rng in zip(seed_rows, self.rngs):
            rows[:, lo:lo + n] = draw_noise(rng, self.noise, len(rows) * n).reshape(-1, n)
        # Learner state: (S * N, K) pull counts and reward sums, row s * N + i
        # for player i of seed s, also viewed flat with cell offsets[row] + a,
        # and the block round count tau shared by all (restarts are synchronized).
        counts, sums = np.zeros((width, k)), np.zeros((width, k))
        flat_counts, flat_sums = counts.reshape(-1), sums.reshape(-1)
        offsets = np.arange(width) * k
        segments, segment_means = self.traces[0].segments, self.segment_means
        seg_idx = tau = 0
        block = block_index[-1] if block_index else 0
        for t in range(start, end + 1):
            while segments[seg_idx][1] < t:
                seg_idx += 1
            restart = (t - start) % period == 0
            if restart:
                block += 1
                counts.fill(0)
                sums.fill(0.0)
                tau = 0
            tau += 1
            rankings = ucb_ranking(ucb_values(counts, sums, tau)).tolist()
            cells = offsets + [arm for lo in seed_rows
                               for arm in player_proposing_da(rankings[lo:lo + n], utilities)]
            row = rewards[t - 1]
            row += segment_means[seg_idx].take(cells)
            flat_counts[cells] += 1
            flat_sums[cells] += row
            matchings[t - 1] = cells  # made arm indices after the loop
            restart_flags.append(1 if restart else 0)
            block_index.append(block)
        matchings[start - 1:end] -= offsets


def regret_report(trace: SimulationTrace, baseline: Optional[str] = None) -> RegretReport:
    """Cumulative and per-block regret against the chosen benchmark,
    computed from the true (not sampled) means of the matched arms."""
    baseline = baseline or trace.baseline
    increments = trace.benchmark_means(baseline) - trace.true_means
    cumulative = np.cumsum(increments, axis=0)

    flags = trace.restart_flags
    starts = [0] + [t for t in range(1, len(flags)) if flags[t]]
    bounds = [(s + 1, e) for s, e in zip(starts, starts[1:] + [len(flags)])]
    block_sums = np.add.reduceat(increments, starts, axis=0)
    return RegretReport(
        baseline=baseline,
        increments=increments,
        cumulative=cumulative,
        block_sums=block_sums,
        block_bounds=tuple(bounds),
    )


def trace_metadata(trace: SimulationTrace) -> list[tuple[str, str]]:
    """Resolved run parameters embedded in every exported artifact."""
    meta = [
        ("horizon", str(trace.horizon)),
        ("restart_period", str(trace.restart_period)),
        ("seed", str(trace.seed)),
        ("noise", trace.noise),
        ("baseline", trace.baseline),
        ("n_players", str(trace.n_players)),
    ]
    if trace.chosen_h is not None:
        meta.append(("mode", "meta"))
    else:
        meta.append(("mode", "rcb"))
    return meta


def write_trace_csv(trace: SimulationTrace, path,
                    extra_metadata: Sequence[tuple[str, str]] = ()) -> RegretReport:
    """Write one row per (round, player); resolved parameters go into
    leading '#' comment lines so the file alone reproduces the run.
    Returns the regret report the rows were computed from."""
    report = regret_report(trace)
    bench_arms = trace.benchmark_arms()
    true_means = trace.true_means
    is_meta = trace.chosen_h is not None
    columns = META_TRACE_COLUMNS if is_meta else TRACE_COLUMNS
    with open(path, "w", newline="") as fh:
        for key, value in list(trace_metadata(trace)) + list(extra_metadata):
            fh.write(f"# {key} = {value}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for t in range(trace.horizon):
            # One round at a time: Python floats for repr, little memory.
            arms = trace.matchings[t].tolist()
            rewards = trace.rewards[t].tolist()
            means = true_means[t].tolist()
            increments = report.increments[t].tolist()
            cumulative = report.cumulative[t].tolist()
            head = (t + 1, trace.block_index[t], trace.restart_flags[t])
            tail = (trace.epoch_index[t], trace.chosen_h[t]) if is_meta else ()
            writer.writerows(
                (*head, i, arms[i], repr(rewards[i]), repr(means[i]), bench_arms[t][i],
                 repr(increments[i]), repr(cumulative[i]), *tail)
                for i in range(trace.n_players)
            )
    return report
