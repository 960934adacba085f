"""Simulation loop: synchronized UCB restarts, platform clearing through
player-proposing deferred acceptance, reward dispatch, and regret
accounting against the per-segment stable benchmarks.

Seeds of one config share one loop (``run_rcb_seeds``), in which the
restart blocks of a ``play`` call advance in lockstep groups, one step per
in-block round. Other independent runs share no state and can be driven in
parallel.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

# The loop no longer calls deferred_acceptance or sample_reward; they stay
# importable here because perfbench/tracing.py wraps them at these names.
from .environment import (NOISE_FAMILIES, MeanRewardTimeline, draw_noise,  # noqa: F401
                          sample_reward, stable_benchmarks, total_changes)
from .errors import InputError, _check_integer
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
# Learner cells (blocks * seeds * players * arms) of one lockstep group in
# ``_Run.play``; bigger groups pay fewer steps but slower DA and rankings.
_GROUP_CELLS = 4096


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
        for name, least in (("horizon", 1), ("restart_period", 1), ("seed", 0)):
            value = getattr(self, name)
            if value is not None or name != "restart_period":  # its None is "auto"
                _check_integer(name, value)
                if value < least:
                    raise InputError(f"must be at least {least}, got {value}", name)
        if self.noise not in NOISE_FAMILIES:
            raise InputError(f"must be one of {NOISE_FAMILIES}, got {self.noise!r}", "noise")
        if self.baseline not in BASELINES:
            raise InputError(f"must be one of {BASELINES}, got {self.baseline!r}", "baseline")


@dataclass
class SimulationTrace:
    """Per-round record of a run plus the resolved run parameters.

    ``segments`` are the timeline's constant segments as (first round, last
    round, means); ``true_means`` is derived from them on every access.
    ``optimal_arms`` and ``pessimal_arms`` hold one benchmark assignment per
    segment, aligned with ``segments``. ``schedule`` holds one entry per
    ``play`` call; blocks, restarts and meta epochs are read from it. The
    traces of one batch share ``segments``, the benchmark arm lists and
    ``schedule``.
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
    # (first round, last round, restart period) per play call: learners
    # restart at the first round and every period rounds after it.
    schedule: list[tuple[int, int, int]] = field(default_factory=list)
    # Meta mode's per-epoch summaries; None for plain runs.
    epoch_summaries: Optional[list] = None

    @property
    def true_means(self) -> np.ndarray:
        """(T, N) true means of the matched arms, derived on every access
        from the segments."""
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
        raise InputError(f"must be one of {BASELINES}, got {baseline!r}", "baseline")


@dataclass(frozen=True)
class RegretReport:
    """Regret curves derived from a trace with true (not sampled) means."""

    baseline: str
    increments: np.ndarray  # (T, N)
    cumulative: np.ndarray  # (T, N)
    block_sums: np.ndarray  # (blocks, N)
    block_bounds: np.ndarray  # (blocks, 2) int64, 1-based inclusive round ranges

    def final(self) -> np.ndarray:
        """Cumulative regret per player at the horizon."""
        return self.cumulative[-1]


def compute_restart_period(horizon: int, change_count: int) -> int:
    """Block length sqrt(T / L), rounded and clamped to [1, T]; a
    stationary timeline (L = 0) gets a single block."""
    _check_integer("horizon", horizon)
    _check_integer("change_count", change_count)
    if horizon < 1:
        raise InputError(f"must be at least 1, got {horizon}", "horizon")
    if change_count < 0:
        raise InputError(f"cannot be negative, got {change_count}", "change_count")
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
        raise InputError(f"must name at least one seed, none negative, got {list(seeds)}", "seeds")
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
        if config.horizon != timeline.horizon:
            raise InputError(f"horizon {timeline.horizon} differs from the config's "
                             f"{config.horizon}", "timeline")
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
        self.schedule = []
        shared = dict(segments=segments, schedule=self.schedule,
                      optimal_arms=[opt.assignment for opt, _ in benchmarks],
                      pessimal_arms=[pess.assignment for _, pess in benchmarks])
        self.traces = [
            SimulationTrace(n, config.horizon, seed=seed, noise=config.noise,
                            baseline=config.baseline, matchings=self.matchings[:, lo:lo + n],
                            rewards=self.rewards[:, lo:lo + n], **shared, **trace_fields)
            for seed, lo in zip(seeds, range(0, width, n))
        ]
        # Each segment's (N, K) means, flat and repeated once per seed: row
        # j of the table is segment j, cell s * N * K + i * K + a in it.
        self.segment_means = np.tile([np.ravel(means) for _, _, means in segments], len(seeds))
        self.segment_ends = [end for _, end, _ in segments]
        # ``play`` advances up to ``group`` restart blocks in lockstep: learner
        # row r = (b * S + s) * N + i is player i of seed s in block b, whose
        # cells are r * K + a. The G * S markets m = r // N share no arms, so
        # one DA call clears them as one: arm a of market m is arm m * K + a,
        # its utility row arm a's repeated G * S times (K lists, each shared
        # G * S times), ranked by row r as arm_offset[r, a] + a (m * K in
        # every column: a full-shape add beats a broadcast).
        k = market.n_arms
        self.group = max(1, min(config.horizon, _GROUP_CELLS // (width * k)))
        subs = self.group * len(seeds)
        self.utilities = [row * subs for row in market.arm_utilities] * subs
        self.arm_offset = np.repeat(np.arange(subs * n) // n * k, k).reshape(subs * n, k)
        self.cell_offset = np.arange(subs * n).reshape(self.group, width) * k
        self.cell_base = self.cell_offset - self.arm_offset[:, 0].reshape(self.group, width)
        # After a restart every UCB value is +inf, so every row ranks the arms
        # by index: one market's DA gives every market's arms.
        restart = player_proposing_da([list(range(k))] * n, market.arm_utilities)
        self.restart_arms = np.tile(restart, subs).reshape(self.group, width)
        self.restart_cells = self.cell_offset + self.restart_arms

    @np.errstate(divide="ignore")  # the UCB bonus of an unexplored arm is 1 / 0
    def play(self, start: int, end: int, period: int) -> None:
        """Play rounds ``start`` to ``end`` inclusive for every seed,
        restarting every learner when ``(t - start) % period == 0``, so at
        ``start`` too, and add the call to the schedule."""
        self.schedule.append((start, end, period))
        n, k = self.market.n_players, self.market.n_arms
        matchings, rewards = self.matchings, self.rewards
        width = rewards.shape[1]
        # Each seed's noise for the whole range in one draw (the same stream
        # as one draw per round); each round adds its true means to its row.
        rows = rewards[start - 1:end]
        for lo, rng in zip(range(0, width, n), self.rngs):
            rows[:, lo:lo + n] = draw_noise(rng, self.noise, len(rows) * n).reshape(-1, n)
        # The blocks are independent runs on fixed noise, so a group of them
        # takes one step per in-block round: step j plays round j + 1 of every
        # block, rows lo + j + b * period, through strided row views.
        ends = self.segment_ends
        for lo in range(start - 1, end, self.group * period):  # the group's first row
            blocks = min(self.group, -(-(end - lo) // period))
            steps = min(period, end - lo)
            last = min(steps, end - lo - (blocks - 1) * period)  # steps of the last block
            cells, chosen, active = self.restart_cells[:blocks], self.restart_arms[:blocks], blocks
            stop = lo + (blocks - 1) * period + 1  # one past the last active block's row
            if steps > 1:  # else the only step, a restart, reads no learner state
                # (G * S * N, K) pull counts, reward sums and negated means, also
                # flat; tau = j + 1 is shared. A step changes only matched cells.
                counts, sums, neg_means = (np.zeros((blocks * width, k)) for _ in range(3))
                flat_counts, flat_sums, flat_neg = counts.ravel(), sums.ravel(), neg_means.ravel()
                arm_offset = self.arm_offset[:len(counts)]
                cell_base = self.cell_base[:blocks].ravel()
                utilities = self.utilities[:len(counts) // n * k]
                last_rankings = last_arms = None
            # Each block's segment per step. Steps where one changes, and the
            # step at which a partial last block drops out of the active prefix,
            # cut the group's steps into runs of one means vector.
            seg = bisect_left(ends, lo + 1)
            if ends[seg] >= min(end, lo + blocks * period):  # all in one segment
                means = self.segment_means[seg if blocks == 1 else [seg] * blocks].ravel()
                segment, cuts = None, []
            else:
                segment = np.searchsorted(ends, np.minimum(end, np.arange(
                    lo + 1, lo + 1 + steps)[:, None] + np.arange(blocks) * period))
                cuts = (np.flatnonzero((segment[1:] != segment[:-1]).any(axis=1)) + 1).tolist()
            cuts = sorted({0, last, steps, *cuts})
            for first, after in zip(cuts, cuts[1:]):
                if first == last:
                    active, stop = active - 1, stop - period
                    counts, neg_means = counts[:active * width], neg_means[:active * width]
                    arm_offset, cell_base = arm_offset[:len(counts)], cell_base[:len(counts)]
                if segment is not None:
                    means = self.segment_means[segment[first]].ravel()
                for j in range(first, after):
                    if j:  # step 0 restarts: cells are restart_cells
                        # ucb_ranking(ucb_values(counts, sums, tau)) bit for bit, as IEEE
                        # rounding is sign-symmetric; a count of 0 gives -inf.
                        order = (neg_means - np.sqrt(1.5 * math.log(j + 1) / counts)
                                 ).argsort(kind="stable")
                        rankings = (order + arm_offset).tolist()
                        # DA depends only on the rankings (the utilities are fixed),
                        # so a step whose rankings repeat keeps last step's arms.
                        if rankings != last_rankings:
                            arms = player_proposing_da(rankings, utilities)
                            if arms != last_arms:
                                cells = (cell_base + arms).reshape(active, width)
                                chosen = cells - self.cell_offset[:active]
                            last_rankings, last_arms = rankings, arms
                    got = rewards[lo + j:stop + j:period]
                    got += means[cells]
                    matchings[lo + j:stop + j:period] = chosen
                    # The last step's learner state is read by nothing.
                    if j < steps - 1:
                        c, total = flat_counts[cells] + 1, flat_sums[cells] + got
                        flat_counts[cells], flat_sums[cells], flat_neg[cells] = c, total, total / -c


def regret_report(trace: SimulationTrace, baseline: Optional[str] = None) -> RegretReport:
    """Cumulative and per-block regret against the chosen benchmark,
    computed from the true (not sampled) means of the matched arms."""
    baseline = baseline or trace.baseline
    # The benchmark is constant within a segment: one row fills each.
    increments = np.empty(trace.matchings.shape)
    for (start, end, means), arms in zip(trace.segments, trace.benchmark_arms(baseline)):
        increments[start - 1:end] = [row[arm] for row, arm in zip(means, arms)]
    increments -= trace.true_means
    cumulative = np.cumsum(increments, axis=0)

    # Each block's first row, 0-based.
    starts = np.concatenate([np.arange(start - 1, end, period)
                             for start, end, period in trace.schedule])
    return RegretReport(
        baseline=baseline,
        increments=increments,
        cumulative=cumulative,
        block_sums=np.add.reduceat(increments, starts, axis=0),
        block_bounds=np.column_stack((starts + 1, np.append(starts[1:], trace.horizon))),
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
        ("mode", "rcb" if trace.epoch_summaries is None else "meta"),
    ]


def write_trace_csv(trace: SimulationTrace, path,
                    extra_metadata: Sequence[tuple[str, str]] = ()) -> RegretReport:
    """Write one row per (round, player); resolved parameters go into
    leading '#' comment lines so the file alone reproduces the run.
    Returns the regret report the rows were computed from.

    Rows carry csv.writer's bytes ("\\r\\n" line ends, floats as ``repr``).
    Within a segment a row's true mean, benchmark arm and regret increment
    depend only on its (player, matched arm) cell, so they come from one
    string table per segment. The schedule gives each round's block and
    restart flag, and in meta mode its epoch and period. Up to
    ``_EXPORT_CHUNK_ROUNDS`` rounds of one play call are joined at a time,
    from a list of six parts per row filled one column at a time."""
    report = regret_report(trace)
    n, k = trace.n_players, len(trace.segments[0][2][0])
    offsets = np.arange(n) * k
    is_meta = trace.epoch_summaries is not None
    columns = META_TRACE_COLUMNS if is_meta else TRACE_COLUMNS
    player_arm = [f"{p},{a}," for p in range(n) for a in range(k)]  # cell p * K + a
    # ",true_mean,benchmark_arm,regret_increment," of cell p * K + a in
    # segment s at s * N * K + p * K + a; the increment is regret_report's
    # subtraction.
    tables = [f",{v!r},{b},{row[b] - v!r}," for (_, _, means), arms in zip(
              trace.segments, trace.benchmark_arms()) for row, b in zip(means, arms) for v in row]
    segment_ends = [end for _, end, _ in trace.segments]
    with open(path, "w", newline="") as fh:
        for key, value in list(trace_metadata(trace)) + list(extra_metadata):
            fh.write(f"# {key} = {value}\n")
        fh.write(",".join(columns) + "\r\n")
        first_block = 1
        for epoch, (start, end, period) in enumerate(trace.schedule):
            tail = f",{epoch},{period}\r\n" if is_meta else "\r\n"
            for lo in range(start - 1, end, _EXPORT_CHUNK_ROUNDS):
                hi = min(lo + _EXPORT_CHUNK_ROUNDS, end)
                rounds = np.arange(lo + 1, hi + 1)
                cells = (trace.matchings[lo:hi] + offsets).ravel()
                segment_cells = cells + np.searchsorted(segment_ends, rounds).repeat(n) * (n * k)
                # Cumulative regret takes few distinct values: repr each distinct
                # bit pattern once (bits, not values, so -0.0 stays apart from 0.0).
                bits, inverse = np.unique(report.cumulative[lo:hi].ravel().view(np.int64),
                                          return_inverse=True)
                distinct = [repr(v) for v in bits.view(np.float64).tolist()]
                # Row r's parts are parts[6 * r:6 * r + 6], prefilled with the tail;
                # each column fills its parts with one strided slice assignment.
                parts = [tail] * (6 * len(cells))
                i = rounds - start  # round t is round i of this play call, from 0
                blocks, flags = first_block + i // period, (i % period == 0).astype(np.int64)
                heads = list(map("{},{},{},".format, rounds.tolist(), blocks.tolist(),
                                 flags.tolist()))
                for p in range(n):
                    parts[6 * p::6 * n] = heads
                parts[1::6] = map(player_arm.__getitem__, cells.tolist())
                parts[2::6] = map(repr, trace.rewards[lo:hi].ravel().tolist())
                parts[3::6] = map(tables.__getitem__, segment_cells.tolist())
                parts[4::6] = map(distinct.__getitem__, inverse.tolist())
                fh.write("".join(parts))
            first_block += len(range(start, end + 1, period))
    return report
