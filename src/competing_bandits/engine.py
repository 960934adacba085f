"""Simulation loop: synchronized UCB restarts, platform clearing through
player-proposing deferred acceptance, reward dispatch, and regret
accounting against the per-segment stable benchmarks.

Seeds of one config share one loop (``run_rcb_seeds``), in which the
restart blocks of a ``play`` call advance in lockstep groups, one step per
in-block round. Independent runs share no state. A ``play`` call with
enough work, and a big trace export, share their groups or chunks out to
forked workers, one per further usable CPU.
"""

from __future__ import annotations

import math
import os
import signal
import tempfile
import traceback
import warnings
from bisect import bisect_left
from contextlib import ExitStack, suppress
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Optional, Sequence

import numpy as np

# The loop no longer calls deferred_acceptance or sample_reward; they stay
# importable here because perfbench/tracing.py wraps them at these names.
from .environment import (NOISE_FAMILIES, MeanRewardTimeline, draw_noise,  # noqa: F401
                          sample_reward, stable_benchmarks, total_changes)
from .errors import InputError, _check_choice, _check_integer
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
# Noise values per seed and draw in ``_Run.play``, whatever the call's length.
_NOISE_VALUES = 1 << 16
# Learner cells (blocks * seeds * players * arms) of one lockstep group in
# ``_Run.play``; bigger groups pay fewer steps but slower DA and rankings.
_GROUP_CELLS = 4096
# Learner cell-rounds (non-restart rounds * seeds * players * arms) from which
# a ``play`` call shares its groups out to forked workers. A two-way split
# broke even at about 1.8e5 and saved 25-41% from 5e5 up (README, ``engine``).
_FORK_CELLS = 1 << 20
# Trace rows (rounds * players) from which the export forks (README, ``engine``).
_FORK_ROWS = 1 << 14


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if forks else 1


def _share_out(label: str, items: Sequence, parts: int, work, buffers) -> None:
    """Call ``work(i, share)`` on share i of ``parts`` contiguous shares of ``items``: here
    for i = 0, else in a forked worker, which sends the arrays ``buffers(i, share)`` down a
    pipe into this process's own and leaves with ``os._exit``. A failed or short worker
    raises RuntimeError; any error kills and reaps the workers not yet reaped."""
    shares = [items[i * len(items) // parts:(i + 1) * len(items) // parts] for i in range(parts)]
    workers = []  # (pid, pipe, buffers) of each worker not yet reaped
    try:
        for i, share in enumerate(shares[1:], 1):
            read, write = os.pipe()
            with warnings.catch_warnings():
                # Python >= 3.12 warns on fork in a process with threads, such as
                # numpy's BLAS pool. The worker is safe: it calls no BLAS routine,
                # takes no lock held elsewhere, and leaves with os._exit.
                warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                        DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # the worker sends its buffers and never returns
                try:
                    work(i, share)
                    with open(write, "wb") as pipe:
                        pipe.writelines(buffers(i, share))
                except BaseException:
                    traceback.print_exc()
                    os._exit(1)
                os._exit(0)
            os.close(write)
            workers.append((pid, open(read, "rb"), buffers(i, share)))
        work(0, shares[0])
        while workers:
            pid, pipe, arrays = workers[0]
            with pipe:
                size = sum(pipe.readinto(b) for b in arrays)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            expected = sum(b.nbytes for b in arrays)
            if status or size != expected:
                raise RuntimeError(f"{label} worker {pid} exited with status {status} after "
                                   f"sending {size} of {expected} bytes")
    finally:
        for pid, pipe, _ in workers:  # after an error: stop and reap the rest
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
        _check_integer("horizon", self.horizon, least=1)
        if self.restart_period is not None:  # None is "auto"
            _check_integer("restart_period", self.restart_period, least=1)
        _check_integer("seed", self.seed, least=0)
        _check_choice("noise", self.noise, NOISE_FAMILIES)
        _check_choice("baseline", self.baseline, BASELINES)


@dataclass
class SimulationTrace:
    """Per-round record of a run plus the resolved run parameters.

    ``segments`` are the timeline's constant segments as (first round, last
    round, means). ``optimal_arms`` and ``pessimal_arms`` hold one benchmark
    assignment per segment, aligned with ``segments``. ``schedule`` holds one
    entry per ``play`` call; blocks, restarts and meta epochs are read from
    it. The traces of one batch share ``segments``, the benchmark arm lists
    and ``schedule``.
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

    def benchmark_arms(self, baseline: Optional[str] = None) -> list[tuple[int, ...]]:
        baseline = _check_choice("baseline", self.baseline if baseline is None else baseline,
                                 BASELINES)
        return self.optimal_arms if baseline == "optimal" else self.pessimal_arms


@dataclass(frozen=True)
class RegretReport:
    """Regret derived from a trace with true (not sampled) means."""

    increments: np.ndarray  # (T, N)
    block_sums: np.ndarray  # (blocks, N)
    block_bounds: np.ndarray  # (blocks, 2) int64, 1-based inclusive round ranges
    last_row: np.ndarray  # (N,) running sum of ``increments`` at the horizon

    @cached_property
    def cumulative(self) -> np.ndarray:
        """(T, N) running sum of ``increments``, computed when first read."""
        return np.cumsum(self.increments, axis=0)

    def final(self) -> np.ndarray:
        """Cumulative regret per player at the horizon, ``cumulative[-1]`` bit for bit."""
        return self.last_row


def compute_restart_period(horizon: int, change_count: int) -> int:
    """Block length sqrt(T / L), rounded and clamped to [1, T]; a
    stationary timeline (L = 0) gets a single block."""
    _check_integer("horizon", horizon, least=1)
    _check_integer("change_count", change_count, least=0)
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
        _check_integer("seeds", seed, least=0)
    if len(seeds) == 0:
        raise InputError("must name at least one seed", "seeds")
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

    def play(self, start: int, end: int, period: int) -> None:
        """Play rounds ``start`` to ``end`` inclusive for every seed,
        restarting every learner when ``(t - start) % period == 0``, so at
        ``start`` too, and add the call to the schedule."""
        self.schedule.append((start, end, period))
        n, k = self.market.n_players, self.market.n_arms
        matchings, rewards = self.matchings, self.rewards
        width = rewards.shape[1]
        # Each seed's noise in consecutive bounded pieces (the same stream as one
        # draw per round); each round adds its true means to its row.
        piece = max(1, _NOISE_VALUES // n)
        for r in range(start - 1, end, piece):
            rows = rewards[r:min(r + piece, end)]
            for lo, rng in zip(range(0, width, n), self.rngs):
                rows[:, lo:lo + n] = draw_noise(rng, self.noise, len(rows) * n).reshape(-1, n)
        # With enough work (rounds past the nearly free restart steps, times S * N * K),
        # a forked worker per further usable CPU plays a contiguous share of the
        # groups, which are independent on fixed noise.
        groups = range(start - 1, end, self.group * period)  # each group's first row
        work = (end - start + 1 - len(range(start, end + 1, period))) * width * k
        parts = min(len(groups), _usable_cpus() if work >= _FORK_CELLS else 1)
        _share_out("play", groups, parts, lambda _, share: self._groups(share, end, period),
                   lambda _, share: [a[share.start:min(share.stop, end)]  # the share's rows
                                     for a in (matchings, rewards)])

    @np.errstate(divide="ignore")  # the UCB bonus of an unexplored arm is 1 / 0
    def _groups(self, groups: range, end: int, period: int) -> None:
        """Play the lockstep groups whose first rows are ``groups``, up to round ``end``."""
        n, k = self.market.n_players, self.market.n_arms
        matchings, rewards = self.matchings, self.rewards
        width = rewards.shape[1]
        # The blocks are independent runs on fixed noise, so a group of them
        # takes one step per in-block round: step j plays round j + 1 of every
        # block, rows lo + j + b * period, through strided row views.
        ends = self.segment_ends
        for lo in groups:
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
            # A segment end e among the group's rounds changes a block's means at
            # step (e - lo) % period. Those steps and the step at which a partial
            # last block leaves the active prefix cut the steps into runs.
            changes = ends[bisect_left(ends, lo + 1):
                           bisect_left(ends, min(end, lo + blocks * period))]
            cuts = sorted({0, last, steps, *((e - lo) % period for e in changes)})
            for first, after in zip(cuts, cuts[1:]):
                if first == last:
                    active, stop = active - 1, stop - period
                    counts, neg_means = counts[:active * width], neg_means[:active * width]
                    arm_offset, cell_base = arm_offset[:len(counts)], cell_base[:len(counts)]
                # Each active block's means: the segment of its round at the run's first step.
                means = self.segment_means[np.searchsorted(
                    ends, range(lo + 1 + first, stop + 1 + first, period))].ravel()
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


def _segment_cells(trace: SimulationTrace, baseline: Optional[str] = None) -> list:
    """Per segment, each cell p * K + a's (mean, benchmark arm, benchmark mean minus mean)."""
    return [[(v, b, row[b] - v) for row, b in zip(means, arms) for v in row]
            for (_, _, means), arms in zip(trace.segments, trace.benchmark_arms(baseline))]


def _chunk_bounds(trace: SimulationTrace):
    """(call, lo, hi, segment) of each chunk of rows lo:hi, in order: at most
    ``_EXPORT_CHUNK_ROUNDS`` rounds of one play call within one segment. ``call``
    is the play call's (index, first round, period, first block number)."""
    ends, segment, block = [end for _, end, _ in trace.segments], 0, 1
    for index, (start, end, period) in enumerate(trace.schedule):
        lo = start - 1
        while lo < end:
            segment += ends[segment] <= lo  # row lo, round lo + 1, is past the segment
            hi = min(lo + _EXPORT_CHUNK_ROUNDS, end, ends[segment])
            yield (index, start, period, block), lo, hi, segment
            lo = hi
        block += len(range(start, end + 1, period))


def _regret_chunks(trace: SimulationTrace, baseline: Optional[str] = None):
    """Each ``_chunk_bounds`` chunk's (call, lo, hi, segment), rows lo:hi's (hi - lo, N) regret
    increments and their running sum, carried across chunks: one running sum's adds."""
    offsets = np.arange(trace.n_players) * len(trace.segments[0][2][0])
    gaps = np.array(_segment_cells(trace, baseline))[:, :, 2]  # (segments, N * K)
    carry = np.empty((0, trace.n_players))  # none at round 1: 0.0 + -0.0 is 0.0
    for call, lo, hi, segment in _chunk_bounds(trace):
        increments = gaps[segment].take(trace.matchings[lo:hi] + offsets)
        cumulative = np.add.accumulate(np.concatenate((carry, increments)))[len(carry):]
        carry = cumulative[-1:]
        yield call, lo, hi, segment, increments, cumulative


def regret_report(trace: SimulationTrace, baseline: Optional[str] = None) -> RegretReport:
    """Per-round and per-block regret against the chosen benchmark,
    computed from the true (not sampled) means of the matched arms."""
    increments = np.empty(trace.matchings.shape)
    for _, lo, hi, _, chunk, cumulative in _regret_chunks(trace, baseline):
        increments[lo:hi] = chunk
    # Each block's first row, 0-based.
    starts = np.concatenate([np.arange(start - 1, end, period)
                             for start, end, period in trace.schedule])
    return RegretReport(increments, np.add.reduceat(increments, starts, axis=0),
                        np.column_stack((starts + 1, np.append(starts[1:], trace.horizon))),
                        last_row=cumulative[-1])


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


def _formatter(trace: SimulationTrace, extra_metadata: Sequence[tuple[str, str]]):
    """The export's header text ('#' lines of one-line pairs, then the column row)
    and its one row formatter: ``write(out, chunk)`` writes a ``_regret_chunks``
    chunk's rows to ``out`` and returns its last cumulative regret row. Rows carry
    csv.writer's bytes ("\\r\\n" line ends, floats as ``repr``); each chunk is joined
    at once from six parts per row, filled column by column, and a row's true mean,
    benchmark arm and increment come from its segment's string table."""
    metadata = list(trace_metadata(trace)) + list(extra_metadata)
    for key, value in metadata:
        if any(c in f"{key}{value}" for c in "\n\r"):
            raise InputError(f"must be one line each, got {key!r} = {value!r}", "extra_metadata")
    n, k = trace.n_players, len(trace.segments[0][2][0])
    offsets = np.arange(n) * k
    is_meta = trace.epoch_summaries is not None
    header = "".join(f"# {key} = {value}\n" for key, value in metadata)
    header += ",".join(META_TRACE_COLUMNS if is_meta else TRACE_COLUMNS) + "\r\n"
    player_arm = [f"{p},{a}," for p in range(n) for a in range(k)]  # cell p * K + a
    tables = [[f",{v!r},{b},{gap!r}," for v, b, gap in cells] for cells in _segment_cells(trace)]

    def write(out, chunk) -> np.ndarray:
        (epoch, start, period, block), lo, hi, segment, _, cumulative = chunk
        tail = f",{epoch},{period}\r\n" if is_meta else "\r\n"
        # Cumulative regret takes few distinct values: repr each distinct
        # bit pattern once (bits, not values, so -0.0 stays apart from 0.0).
        bits, inverse = np.unique(cumulative.ravel().view(np.int64), return_inverse=True)
        distinct = [repr(v) for v in bits.view(np.float64).tolist()]
        # Row r's parts are parts[6 * r:6 * r + 6], prefilled with the tail;
        # each column fills its parts with one strided slice assignment.
        parts = [tail] * (6 * (hi - lo) * n)
        rounds = np.arange(lo + 1, hi + 1)
        j = rounds - start  # round t is round j of its play call, from 0
        blocks, flags = block + j // period, (j % period == 0).astype(np.int64)
        heads = list(map("{},{},{},".format, rounds.tolist(), blocks.tolist(), flags.tolist()))
        for p in range(n):
            parts[6 * p::6 * n] = heads
        cells = (trace.matchings[lo:hi] + offsets).ravel().tolist()
        parts[1::6] = map(player_arm.__getitem__, cells)
        parts[2::6] = map(repr, trace.rewards[lo:hi].ravel().tolist())
        parts[3::6] = map(tables[segment].__getitem__, cells)
        parts[4::6] = map(distinct.__getitem__, inverse.tolist())
        out.write("".join(parts))
        return cumulative[-1]
    return header, write


def write_trace_csv(trace: SimulationTrace, path,
                    extra_metadata: Sequence[tuple[str, str]] = ()) -> np.ndarray:
    """Write one row per (round, player); resolved parameters go into
    leading '#' comment lines so the file alone reproduces the run.
    Returns each player's cumulative regret at the horizon, bit for bit
    ``regret_report(trace).final()``.

    From ``_FORK_ROWS`` rows up, a forked worker per further usable CPU
    formats a later share of the chunks into an unlinked temporary file,
    appended after this process's share."""
    header, write = _formatter(trace, extra_metadata)

    def write_share(i, share):
        """Write the chunks ``share`` to ``outs[i]``; earlier ones only carry the regret."""
        for chunk in islice(_regret_chunks(trace), share.start, share.stop):  # runs earlier ones
            finals[i] = write(outs[i], chunk)
        outs[i].flush()

    count = sum(1 for _ in _chunk_bounds(trace))
    with open(path, "w", newline="") as fh, ExitStack() as temps:
        fh.write(header)
        shares = min(count, _usable_cpus() if trace.horizon * trace.n_players >= _FORK_ROWS else 1)
        outs = [fh] + [temps.enter_context(tempfile.TemporaryFile(
            "w+", newline="", dir=os.path.dirname(path) or ".")) for _ in range(1, shares)]
        finals = np.zeros((shares, trace.n_players))
        _share_out("export", range(count), shares, write_share, lambda i, _: [finals[i]])
        for tmp in outs[1:]:
            size, sent = os.fstat(tmp.fileno()).st_size, 0
            while sent < size:  # sendfile may copy less than asked
                sent += os.sendfile(fh.fileno(), tmp.fileno(), sent, size - sent)
    return finals[-1]


@dataclass
class _TraceStream:
    """``write_trace_csv(trace, path, extra_metadata)`` of a meta run, written while
    its epochs play (``run_rcb_meta(..., export=)``); ``final`` is its return value."""

    path: str | os.PathLike
    extra_metadata: Sequence[tuple[str, str]] = ()
    final: Optional[np.ndarray] = None

    def run(self, trace: SimulationTrace, play) -> None:
        """Call ``play(send)``, which plays ``trace``'s calls in order, calling ``send(start,
        end, period)`` after each, and export the trace: as the calls arrive in a worker
        forked for ``_share_out``'s share 1 from ``_FORK_ROWS`` rows on 2 or more usable
        CPUs, else by ``write_trace_csv`` after the run."""
        if trace.horizon * trace.n_players < _FORK_ROWS or _usable_cpus() < 2:
            play(lambda *call: None)
            self.final = write_trace_csv(trace, self.path, self.extra_metadata)
            return
        header, write = _formatter(trace, self.extra_metadata)
        rows, self.final = (trace.matchings, trace.rewards), np.zeros(trace.n_players)

        def send(start, end, period):
            calls_out.writelines([np.array([start, end, period], dtype=np.int64),
                                  *(a[start - 1:end] for a in rows)])
            calls_out.flush()

        def work(i, _):
            (calls_in, calls_out)[i].close()  # each side keeps its own end
            if i == 0:
                with suppress(BrokenPipeError), calls_out:  # a dead writer: _share_out says so
                    play(send)
                return
            chunks, call = _regret_chunks(trace), np.zeros(3, dtype=np.int64)
            while calls_in.readinto(call):
                start, end, period = call.tolist()
                trace.schedule.append((start, end, period))
                for a in rows:
                    calls_in.readinto(a[start - 1:end])
                while (chunk := next(chunks))[2] < end:  # the call's chunks, the last ending at end
                    write(fh, chunk)
                self.final[:] = write(fh, chunk)
            fh.flush()

        with open(self.path, "w", newline="") as fh:
            fh.write(header)
            fh.flush()  # before the fork, so the worker appends after it
            read, written = os.pipe()
            with open(read, "rb") as calls_in, open(written, "wb") as calls_out:
                _share_out("export", range(2), 2, work, lambda *_: [self.final])
