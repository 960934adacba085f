"""Simulation loop: synchronized UCB restarts, platform clearing through
player-proposing deferred acceptance, reward dispatch, and regret
accounting against the per-round stable benchmarks.

A run is strictly sequential; independent runs (seeds, configs) share no
state and can be driven in parallel by a sweep caller.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

# The loop no longer calls deferred_acceptance or sample_reward; they stay
# importable here because perfbench/tracing.py wraps them at these names.
from .environment import (MeanRewardTimeline, draw_noise, sample_reward,  # noqa: F401
                          stable_benchmarks, total_changes)
from .errors import InputError
from .learner import ucb_ranking, ucb_values
from .market import (MarketInstance, Matching, RankOrdering,  # noqa: F401
                     deferred_acceptance, player_proposing_da)

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
    record_orderings: Optional[bool] = None

    def __post_init__(self):
        if self.horizon < 1:
            raise InputError("horizon must be at least 1")
        if self.restart_period is not None and self.restart_period < 1:
            raise InputError("explicit restart period must be at least 1")
        if self.baseline not in BASELINES:
            raise InputError(f"baseline must be one of {BASELINES}")


@dataclass
class SimulationTrace:
    """Per-round record of a run plus the resolved run parameters.

    ``segments`` are the timeline's constant segments as (first round, last
    round, means); benchmark means are derived from them on demand.
    """

    n_players: int
    horizon: int
    restart_period: int
    seed: int
    noise: str
    baseline: str
    segments: list[tuple[int, int, tuple[tuple[float, ...], ...]]] = field(default_factory=list)
    # (T, N) arrays, row t - 1 for round t; matchings are int64.
    matchings: np.ndarray = field(init=False)
    rewards: np.ndarray = field(init=False)
    true_means: np.ndarray = field(init=False)
    optimal_arms: list[tuple[int, ...]] = field(default_factory=list)
    pessimal_arms: list[tuple[int, ...]] = field(default_factory=list)
    restart_flags: list[int] = field(default_factory=list)
    block_index: list[int] = field(default_factory=list)
    orderings: Optional[list[tuple[RankOrdering, ...]]] = None
    # Meta-mode extras; None for plain runs.
    epoch_index: Optional[list[int]] = None
    chosen_h: Optional[list[int]] = None
    epoch_summaries: Optional[list] = None

    def __post_init__(self):
        shape = (self.horizon, self.n_players)
        self.matchings = np.zeros(shape, dtype=np.int64)
        self.rewards = np.zeros(shape)
        self.true_means = np.zeros(shape)

    def benchmark_arms(self, baseline: Optional[str] = None) -> list[tuple[int, ...]]:
        baseline = baseline or self.baseline
        if baseline == "optimal":
            return self.optimal_arms
        if baseline == "pessimal":
            return self.pessimal_arms
        raise InputError(f"unknown baseline {baseline!r}; must be one of {BASELINES}")

    def benchmark_means(self, baseline: Optional[str] = None) -> list[tuple[float, ...]]:
        """Per-round true means of the benchmark matching. The benchmark is
        constant within a segment, so each row is built once per segment."""
        arms = self.benchmark_arms(baseline)
        out: list[tuple[float, ...]] = []
        for start, end, means in self.segments:
            bench = arms[start - 1]
            row = tuple(means[i][bench[i]] for i in range(self.n_players))
            out.extend([row] * (end - start + 1))
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
    _check_dimensions(config, market, timeline)
    horizon = config.horizon
    if config.restart_period is not None:
        period = min(config.restart_period, horizon)
    else:
        period = compute_restart_period(horizon, total_changes(timeline))
    run = _Run(config, market, timeline, rng, stable_benchmarks(timeline, market),
               restart_period=period)
    run.play(1, horizon, period)
    return run.trace


class _Run:
    """One run in progress: the market, the noise stream and the trace
    they fill. The plain and the meta loop both advance it with ``play``;
    extra keyword arguments become trace fields.
    """

    def __init__(self, config: SimulationConfig, market: MarketInstance,
                 timeline: MeanRewardTimeline, rng: Optional[np.random.Generator],
                 benchmarks: Sequence[tuple[Matching, Matching]], **trace_fields):
        self.market = market
        self.noise = config.noise
        self.rng = np.random.default_rng(config.seed) if rng is None else rng
        record_orderings = config.record_orderings
        if record_orderings is None:
            record_orderings = config.horizon <= 5000
        self.trace = SimulationTrace(
            n_players=market.n_players,
            horizon=config.horizon,
            seed=config.seed,
            noise=config.noise,
            baseline=config.baseline,
            segments=timeline.segments(),
            optimal_arms=[opt.assignment for opt, _ in benchmarks],
            pessimal_arms=[pess.assignment for _, pess in benchmarks],
            orderings=[] if record_orderings else None,
            **trace_fields,
        )
        self.segment_means = [np.ravel(means) for _, _, means in self.trace.segments]

    def play(self, start: int, end: int, period: int) -> None:
        """Play rounds ``start`` to ``end`` inclusive, restarting every
        learner when ``(t - start) % period == 0``, so at ``start`` too.
        Block numbers continue from the trace."""
        trace, n, k = self.trace, self.market.n_players, self.market.n_arms
        # Learner state: (N, K) pull counts and reward sums, also viewed flat
        # with cell offsets[i] + a for (player i, arm a), and the block round
        # count tau shared by all players (restarts are synchronized).
        counts, sums = np.zeros((n, k)), np.zeros((n, k))
        flat_counts, flat_sums = counts.reshape(-1), sums.reshape(-1)
        offsets = np.arange(n) * k
        segments, segment_means = trace.segments, self.segment_means
        seg_idx = tau = 0
        block = trace.block_index[-1] if trace.block_index else 0
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
            arms = player_proposing_da(rankings, self.market.arm_utilities)
            cells = offsets + arms
            true_row = segment_means[seg_idx].take(cells)
            rewards = true_row + draw_noise(self.rng, self.noise, len(arms))
            flat_counts[cells] += 1
            flat_sums[cells] += rewards

            trace.matchings[t - 1] = arms
            trace.rewards[t - 1] = rewards
            trace.true_means[t - 1] = true_row
            trace.restart_flags.append(1 if restart else 0)
            trace.block_index.append(block)
            if trace.orderings is not None:
                trace.orderings.append(
                    tuple(RankOrdering(i, tuple(r)) for i, r in enumerate(rankings)))


def regret_report(trace: SimulationTrace, baseline: Optional[str] = None) -> RegretReport:
    """Cumulative and per-block regret against the chosen benchmark,
    computed from true means recorded in the trace."""
    baseline = baseline or trace.baseline
    increments = np.asarray(trace.benchmark_means(baseline)) - trace.true_means
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
            means = trace.true_means[t].tolist()
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
