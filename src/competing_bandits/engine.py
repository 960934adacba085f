"""Simulation loop: synchronized UCB restarts, platform clearing through
player-proposing deferred acceptance, reward dispatch, and regret
accounting against the per-round stable benchmarks.

Seeds of one config can share one round loop (``run_rcb_seeds``); other
independent runs share no state and can be driven in parallel.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from itertools import chain, count, islice
from typing import Optional, Sequence

import numpy as np

# The loop no longer calls deferred_acceptance or sample_reward; they stay
# importable here because perfbench/tracing.py wraps them at these names.
from .environment import (NOISE_FAMILIES, MeanRewardTimeline, _check_integer,  # noqa: F401
                          draw_noise, sample_reward, stable_benchmarks, total_changes)
from .errors import InputError
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
# Rounds per chunk of the trace export; one chunk's column strings are held
# at a time, so export memory does not grow with the horizon.
_EXPORT_CHUNK_ROUNDS = 256


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
        _check_integer("horizon", self.horizon)
        _check_integer("seed", self.seed)
        if self.restart_period is not None:
            _check_integer("restart_period", self.restart_period)
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
        return _true_means(self, 0, self.horizon)

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


def _true_means(trace: SimulationTrace, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, N) true means of the matched arms in rows lo to hi - 1,
    from the segments that cover those rounds."""
    segments = trace.segments
    offsets = np.arange(trace.n_players) * len(segments[0][2][0])
    out = np.empty((hi - lo, trace.n_players))
    # The first segment that ends at round lo + 1 or later.
    for i in range(bisect.bisect_right(segments, lo, key=lambda s: s[1]), len(segments)):
        start, end, means = segments[i]
        if start > hi:
            break
        a, b = max(start - 1, lo), min(end, hi)
        # The cells are in range; "clip" lets take write into out unbuffered.
        np.ravel(means).take(trace.matchings[a:b] + offsets, out=out[a - lo:b - lo], mode="clip")
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


def run_rcb(
    config: SimulationConfig,
    market: MarketInstance,
    timeline: MeanRewardTimeline,
) -> SimulationTrace:
    """Run the restart-UCB matching loop for the full horizon.

    Every round: restart all learners when a new block begins, collect each
    player's UCB rank ordering, clear the market with player-proposing
    deferred acceptance, then sample and feed back rewards. Identical
    config and seed give bit-identical traces.
    """
    return run_rcb_seeds(config, market, timeline, [config.seed])[0]


def run_rcb_seeds(config: SimulationConfig, market: MarketInstance, timeline: MeanRewardTimeline,
                  seeds: Sequence[int]) -> list[SimulationTrace]:
    """``run_rcb`` for every seed in ``seeds`` (not ``config.seed``), all
    advanced by one round loop. Trace i equals ``run_rcb(replace(config,
    seed=seeds[i]), market, timeline)`` bit for bit."""
    for seed in seeds:
        _check_integer("seeds", seed)
    if len(seeds) == 0 or min(seeds) < 0:
        raise InputError(f"seeds must name at least one seed, none negative, got {list(seeds)}")
    horizon = config.horizon
    if config.restart_period is not None:
        period = min(config.restart_period, horizon)
    else:
        period = compute_restart_period(horizon, total_changes(timeline))
    run = _Run(config, market, timeline, seeds, stable_benchmarks(timeline, market),
               restart_period=period)
    run.play(1, horizon, period)
    return run.traces


class _Run:
    """Runs of S >= 1 seeds in progress: the market, a noise stream per seed
    and the traces they fill. The plain and the meta loop both advance it
    with ``play``; extra keyword arguments become trace fields."""

    def __init__(self, config: SimulationConfig, market: MarketInstance,
                 timeline: MeanRewardTimeline, seeds: Sequence[int],
                 benchmarks: Sequence[tuple[Matching, Matching]], **trace_fields):
        if market.n_players != timeline.n_players or market.n_arms != timeline.n_arms:
            raise InputError("market and timeline dimensions disagree")
        if config.horizon != timeline.horizon:
            raise InputError(
                f"config horizon {config.horizon} != timeline horizon {timeline.horizon}"
            )
        self.market = market
        self.noise = config.noise
        self.rngs = [np.random.default_rng(s) for s in seeds]
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

    @np.errstate(divide="ignore")  # the UCB bonus of an unexplored arm is 1 / 0
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
        # Learner state: (S * N, K) pull counts, reward sums and negated means,
        # row s * N + i for player i of seed s, also viewed flat with cell
        # offsets[row] + a, and the block round count tau shared by all
        # (restarts are synchronized). A round changes only the matched cells.
        counts, sums, neg_means = (np.zeros((width, k)) for _ in range(3))
        flat_counts, flat_sums, flat_neg = counts.ravel(), sums.ravel(), neg_means.ravel()
        offsets = np.arange(width) * k
        segments, segment_means = self.traces[0].segments, self.segment_means
        seg_idx = tau = 0
        flags = [1 if (t - start) % period == 0 else 0 for t in range(start, end + 1)]
        restart_flags.extend(flags)
        # One int object per block, shared by its rounds (ints past 256 are not cached).
        blocks = count(block_index[-1] + 1 if block_index else 1)
        block_index.extend(islice((b for b in blocks for _ in range(period)), end - start + 1))
        # After a restart every UCB value is +inf, so the stable ranking is
        # ascending arm index. DA depends only on the rankings (the utilities
        # are fixed), so a seed whose rankings repeat keeps last round's arms.
        identity = [list(range(k))] * width
        last_rankings, last_arms = [None] * len(seed_rows), [None] * len(seed_rows)
        # A round followed by a restart, or the last round of this call (the
        # learner state is local to it), leaves learner state nothing reads.
        for t, restart, stale in zip(range(start, end + 1), flags, flags[1:] + [1]):
            while segments[seg_idx][1] < t:
                seg_idx += 1
            if restart:
                counts.fill(0)
                sums.fill(0.0)
                tau = 0
            tau += 1
            # ucb_ranking(ucb_values(counts, sums, tau)) bit for bit, as IEEE
            # rounding is sign-symmetric; a count of 0 gives an infinite bonus
            # over any finite mean an earlier block left, so -inf ties.
            rankings = identity if restart else (
                neg_means - np.sqrt(1.5 * math.log(tau) / counts)
            ).argsort(axis=-1, kind="stable").tolist()
            changed = False
            for s, lo in enumerate(seed_rows):
                ranks = rankings[lo:lo + n]
                if ranks != last_rankings[s]:
                    arms = player_proposing_da(ranks, utilities)
                    changed = changed or arms != last_arms[s]
                    last_rankings[s], last_arms[s] = ranks, arms
            if changed:
                cells = np.fromiter(chain.from_iterable(last_arms), np.int64, width) + offsets
            row = rewards[t - 1]
            row += segment_means[seg_idx].take(cells)
            matchings[t - 1] = cells  # made arm indices after the loop
            if not stale:
                c, total = flat_counts[cells] + 1, flat_sums[cells] + row
                flat_counts[cells], flat_sums[cells], flat_neg[cells] = c, total, total / -c
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
    return [
        ("horizon", str(trace.horizon)),
        ("restart_period", str(trace.restart_period)),
        ("seed", str(trace.seed)),
        ("noise", trace.noise),
        ("baseline", trace.baseline),
        ("n_players", str(trace.n_players)),
        ("mode", "rcb" if trace.chosen_h is None else "meta"),
    ]


def write_trace_csv(trace: SimulationTrace, path,
                    extra_metadata: Sequence[tuple[str, str]] = ()) -> RegretReport:
    """Write one row per (round, player); resolved parameters go into
    leading '#' comment lines so the file alone reproduces the run.
    Returns the regret report the rows were computed from.

    Rows carry csv.writer's bytes ("\\r\\n" line ends, floats as ``repr``).
    Within a segment a row's true mean, benchmark arm and regret increment
    depend only on its (player, matched arm) cell, so they come from one
    string table per segment; ``_EXPORT_CHUNK_ROUNDS`` rounds are joined at
    a time."""
    report = regret_report(trace)
    n, k = trace.n_players, len(trace.segments[0][2][0])
    offsets, players = np.arange(n) * k, range(n)
    is_meta = trace.chosen_h is not None
    columns = META_TRACE_COLUMNS if is_meta else TRACE_COLUMNS
    player_arm = [f"{p},{a}," for p in players for a in range(k)]  # cell p * K + a
    # ",true_mean,benchmark_arm,regret_increment," of cell p * K + a in
    # segment s at s * N * K + p * K + a; the increment is regret_report's
    # subtraction.
    bench_arms = trace.benchmark_arms()
    tables = [f",{v!r},{b},{row[b] - v!r}," for start, _, means in trace.segments
              for row, b in zip(means, bench_arms[start - 1]) for v in row]
    segment_ends = [end for _, end, _ in trace.segments]
    with open(path, "w", newline="") as fh:
        for key, value in list(trace_metadata(trace)) + list(extra_metadata):
            fh.write(f"# {key} = {value}\n")
        fh.write(",".join(columns) + "\r\n")
        for lo in range(0, trace.horizon, _EXPORT_CHUNK_ROUNDS):
            hi = min(lo + _EXPORT_CHUNK_ROUNDS, trace.horizon)
            rounds = np.arange(lo + 1, hi + 1)
            cells = (trace.matchings[lo:hi] + offsets).ravel()
            segment_cells = cells + np.searchsorted(segment_ends, rounds).repeat(n) * (n * k)
            heads = [f"{t},{b},{f}," for t, b, f in zip(rounds.tolist(), trace.block_index[lo:hi],
                                                         trace.restart_flags[lo:hi])]
            ends = ([f",{e},{h}\r\n" for e, h in zip(trace.epoch_index[lo:hi],
                                                      trace.chosen_h[lo:hi])]
                    if is_meta else ["\r\n"] * (hi - lo))
            # Cumulative regret takes few distinct values: repr each distinct
            # bit pattern once (bits, not values, so -0.0 stays apart from 0.0).
            bits, inverse = np.unique(report.cumulative[lo:hi].ravel().view(np.int64),
                                      return_inverse=True)
            distinct = [repr(v) for v in bits.view(np.float64).tolist()]
            fh.write("".join(chain.from_iterable(zip(
                (h for h in heads for _ in players), map(player_arm.__getitem__, cells.tolist()),
                map(repr, trace.rewards[lo:hi].ravel().tolist()),
                map(tables.__getitem__, segment_cells.tolist()),
                map(distinct.__getitem__, inverse.tolist()), (e for e in ends for _ in players),
            ))))
    return report
