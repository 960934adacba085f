"""Simulation loop: restart schedule, seed batching, regret accounting,
trace export."""

import string
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from competing_bandits import (
    ChangeEvent,
    InputError,
    MarketInstance,
    Matching,
    MeanRewardTimeline,
    SimulationConfig,
    blocking_pairs,
    compute_restart_period,
    deferred_acceptance,
    means_at,
    optimal_pessimal,
    regret_report,
    run_rcb,
    run_rcb_meta,
    run_rcb_seeds,
    write_trace_csv,
)
from competing_bandits import engine
from competing_bandits.config import GeneratorSpec, generate_instance
from competing_bandits.engine import _EXPORT_CHUNK_ROUNDS
from competing_bandits.environment import NOISE_FAMILIES, true_orderings
from trace_oracle import schedule_columns, write_trace_csv_rows


def conflict_setup(horizon, events=()):
    """Both players prefer a0; both arms prefer p0. Unique stable matching
    (0, 1)."""
    market = MarketInstance(2, 2, ((2.0, 1.0), (2.0, 1.0)))
    timeline = MeanRewardTimeline(horizon, ((0.9, 0.4), (0.8, 0.3)), events)
    return market, timeline


def benchmark_rows(trace, baseline):
    """Per round, the true means of the benchmark arms, expanded from the
    trace's segments and their benchmark assignments."""
    return [[row[arm] for row, arm in zip(means, arms)]
            for (start, end, means), arms in zip(trace.segments, trace.benchmark_arms(baseline))
            for _ in range(start, end + 1)]


def single_player_setup(horizon):
    market = MarketInstance(1, 2, ((1.0,), (1.0,)))
    timeline = MeanRewardTimeline(horizon, ((0.3, 0.7),))
    return market, timeline


# --- restart period -----------------------------------------------------------

def test_restart_period_square_root_rule():
    assert compute_restart_period(10_000, 4) == 50
    assert compute_restart_period(10_000, 1) == 100
    assert compute_restart_period(100, 4) == 5


def test_restart_period_stationary_single_block():
    assert compute_restart_period(5_000, 0) == 5_000


def test_restart_period_clamped_to_unit():
    assert compute_restart_period(10, 1_000) == 1


def test_restart_period_rejects_bad_inputs():
    with pytest.raises(InputError) as err:
        compute_restart_period(0, 1)
    assert err.value.field == "horizon"
    with pytest.raises(InputError) as err:
        compute_restart_period(10, -1)
    assert err.value.field == "change_count"
    # A float fails naming its argument instead of coming back as the period.
    with pytest.raises(InputError, match="horizon: expected an integer"):
        compute_restart_period(5.5, 0)
    with pytest.raises(InputError, match="change_count: expected an integer"):
        compute_restart_period(100, 1.5)
    assert compute_restart_period(np.int64(100), np.int64(4)) == 5


def test_explicit_period_clamped_to_horizon():
    market, timeline = single_player_setup(5)
    trace = run_rcb(SimulationConfig(5, restart_period=10**9), market, timeline)
    assert trace.restart_period == 5


def test_auto_period_uses_timeline_change_count():
    market = MarketInstance(1, 2, ((1.0,), (1.0,)))
    events = tuple(ChangeEvent(1_000 * (i + 1), 0, 0, 0.1 + 0.05 * i) for i in range(4))
    timeline = MeanRewardTimeline(10_000, ((0.3, 0.7),), events)
    trace = run_rcb(SimulationConfig(10_000, noise="none"), market, timeline)
    assert trace.restart_period == 50


# --- config and dimension validation --------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(InputError):
        SimulationConfig(0)
    with pytest.raises(InputError):
        SimulationConfig(10, restart_period=0)
    with pytest.raises(InputError):
        SimulationConfig(10, baseline="median")
    with pytest.raises(InputError, match="seed"):
        SimulationConfig(10, seed=-1)
    with pytest.raises(InputError, match="noise"):
        SimulationConfig(5, noise="cauchy")


@pytest.mark.parametrize("field, values", [
    ("restart_period", {"restart_period": 2.5}),
    ("seed", {"seed": 1.5}),
    ("horizon", {"horizon": 4.0}),
    ("horizon", {"horizon": True, "restart_period": True, "seed": False}),
])
def test_config_rejects_non_integer_fields(field, values):
    with pytest.raises(InputError, match=f"{field}: expected an integer"):
        SimulationConfig(**{"horizon": 4, **values})


def test_run_rejects_horizon_mismatch():
    market, timeline = single_player_setup(10)
    with pytest.raises(InputError) as err:
        run_rcb(SimulationConfig(20), market, timeline)
    assert err.value.field == "timeline"


def test_run_rejects_shape_mismatch():
    market = MarketInstance(2, 2, ((2.0, 1.0), (1.0, 2.0)))
    _, timeline = single_player_setup(10)
    with pytest.raises(InputError) as err:
        run_rcb(SimulationConfig(10), market, timeline)
    assert err.value.field == "timeline"


# --- loop mechanics ---------------------------------------------------------------

def test_restart_flags_follow_the_block_grid():
    market, timeline = single_player_setup(30)
    trace = run_rcb(SimulationConfig(30, restart_period=7, noise="none"), market, timeline)
    assert trace.schedule == [(1, 30, 7)]
    blocks, flags, _, _ = schedule_columns(trace)
    flagged = [t + 1 for t, f in enumerate(flags) if f]
    assert flagged == [1, 8, 15, 22, 29]
    assert blocks == [1 + (t // 7) for t in range(30)]


def test_single_player_explores_then_commits():
    market, timeline = single_player_setup(200)
    trace = run_rcb(SimulationConfig(200, noise="none"), market, timeline)
    # Unexplored arms rank first, index ties ascending: arm 0 then arm 1.
    assert trace.matchings[0].tolist() == [0]
    assert trace.matchings[1].tolist() == [1]
    # Equal counts at t=3, so the true means decide: arm 1 wins.
    assert trace.matchings[2].tolist() == [1]
    # The worse arm is only re-pulled when its confidence bonus catches up,
    # which happens logarithmically often.
    bad_pulls = sum(1 for m in trace.matchings if m[0] == 0)
    assert bad_pulls <= 30


def test_conflict_market_first_rounds_hand_simulated():
    market, timeline = conflict_setup(50)
    trace = run_rcb(SimulationConfig(50, noise="none"), market, timeline)
    # t=1: everyone unexplored, both propose a0, a0 keeps p0.
    # t=2: each player's unexplored arm ranks first, so they swap.
    # t=3: true means take over; both want a0 again and p0 wins.
    assert trace.matchings[:3].tolist() == [[0, 1], [1, 0], [0, 1]]


def test_conflict_market_converges_to_unique_stable_matching():
    market, timeline = conflict_setup(300)
    trace = run_rcb(SimulationConfig(300, noise="none"), market, timeline)
    stable_rounds = sum(1 for m in trace.matchings.tolist() if m == [0, 1])
    assert stable_rounds >= 0.9 * 300
    assert trace.matchings[-1].tolist() == [0, 1]


def test_every_round_is_stable_for_submitted_orderings(submitted_orderings):
    market, timeline = conflict_setup(120)
    trace = run_rcb(SimulationConfig(120, seed=5), market, timeline)
    rounds = zip(trace.matchings.tolist(), submitted_orderings(trace, market.n_arms))
    for m, orderings in rounds:
        assert blocking_pairs(Matching(m), orderings, market) == []
        # The loop's clearing is the reference DA on the replayed orderings.
        assert deferred_acceptance(orderings, market).assignment == tuple(m)


@pytest.mark.parametrize("period", [1, 50, 200])
def test_clearing_shortcuts_match_reference_da(monkeypatch, submitted_orderings, period):
    """Restart steps take the identity ranking's DA, made once per run, and
    a lockstep step whose rankings repeat keeps last step's arms; every
    round of every seed still equals the reference DA on the replayed
    orderings, and DA, called at most once per step for a whole group of
    blocks and seeds, is called fewer times than there are rounds."""
    market, timeline = generate_instance(
        GeneratorSpec(seed=3, n_players=3, n_arms=4, delta=0.25, n_changes=0), 200)
    calls = []
    da = engine.player_proposing_da

    def counted(rankings, utilities):
        calls.append(1)
        return da(rankings, utilities)

    monkeypatch.setattr(engine, "player_proposing_da", counted)
    seeds = [0, 1, 2, 3]
    traces = run_rcb_seeds(SimulationConfig(200, restart_period=period), market, timeline, seeds)
    assert len(calls) < 200
    for trace in traces:
        rounds = zip(trace.matchings.tolist(), submitted_orderings(trace, market.n_arms))
        for m, orderings in rounds:
            assert deferred_acceptance(orderings, market).assignment == tuple(m)


# The fixture is a pure replay function, safe to share across examples.
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_clearing_shortcuts_match_reference_da_on_generated_instances(submitted_orderings, data):
    """The loop ranks by negated running means updated at the matched cells
    only, takes the identity ranking's DA (made once per run) on restart
    steps and skips DA for a lockstep step whose rankings repeat; every
    round of every seed still equals the reference DA on the orderings a
    reference ``UcbState`` replay submits.
    Neither run_rcb_seeds nor run_rcb_meta warns (a count of 0 divides by zero)
    or leaves numpy's error state changed."""
    n = data.draw(st.integers(1, 6), label="N")
    k = data.draw(st.integers(n, 6), label="K")
    horizon = data.draw(st.integers(1, 150), label="T")
    spec = GeneratorSpec(seed=data.draw(st.integers(0, 2**31 - 1), label="instance"),
                         n_players=n, n_arms=k, delta=0.05,
                         n_changes=data.draw(st.integers(0, min(3, horizon - 1)), label="L"))
    market, timeline = generate_instance(spec, horizon)
    if data.draw(st.booleans(), label="zero means"):
        # Each player's lowest initial mean becomes -0.0: with noise "none"
        # its reward sums are exact zeros and its running mean is -0.0.
        means = [[-0.0 if v == min(row) else v for v in row] for row in timeline.initial_means]
        try:
            timeline = MeanRewardTimeline(horizon, means, timeline.events, timeline.mu_bar)
        except InputError:
            assume(False)  # an event set another mean of that row to 0.0
    period = data.draw(st.sampled_from([1, 2, 7, None, horizon + 1]), label="H")
    config = SimulationConfig(horizon, restart_period=period,
                              noise=data.draw(st.sampled_from(NOISE_FAMILIES), label="noise"))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3), label="seeds")
    calls = []
    da = engine.player_proposing_da

    def counted(rankings, utilities):
        calls.append(1)
        return da(rankings, utilities)

    error_state = np.geterr()
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(engine, "player_proposing_da", counted)
        warnings.simplefilter("error")
        traces = run_rcb_seeds(config, market, timeline, seeds)
        da_calls = len(calls)
        if horizon > 1:
            run_rcb_meta(replace(config, restart_period=None), market, timeline)
    assert np.geterr() == error_state
    if period == 1:
        # Every round restarts, so every step is a restart step: the only DA
        # call is the identity ranking's, made once per run.
        assert da_calls == 1
    for trace in traces:
        rounds = zip(trace.matchings.tolist(), submitted_orderings(trace, market.n_arms))
        for m, orderings in rounds:
            assert deferred_acceptance(orderings, market).assignment == tuple(m)


def test_same_seed_gives_identical_traces():
    market, timeline = conflict_setup(100)
    a = run_rcb(SimulationConfig(100, seed=3), market, timeline)
    b = run_rcb(SimulationConfig(100, seed=3), market, timeline)
    assert np.array_equal(a.matchings, b.matchings)
    assert np.array_equal(a.rewards, b.rewards)
    c = run_rcb(SimulationConfig(100, seed=4), market, timeline)
    assert not np.array_equal(a.rewards, c.rewards)


# --- seed batching --------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batched_runs_equal_sequential_runs(data):
    """Every trace of one batched run equals the run of its seed alone, on
    random markets with K >= N, each noise family, restart periods from
    every round to never, and repeated seeds."""
    n = data.draw(st.integers(1, 4), label="N")
    k = data.draw(st.integers(n, 6), label="K")
    horizon = data.draw(st.integers(1, 60), label="T")
    spec = GeneratorSpec(seed=data.draw(st.integers(0, 2**31 - 1), label="instance"),
                         n_players=n, n_arms=k, delta=0.05,
                         n_changes=data.draw(st.integers(0, min(3, horizon - 1)), label="L"))
    market, timeline = generate_instance(spec, horizon)
    config = SimulationConfig(
        horizon,
        restart_period=data.draw(st.sampled_from([1, horizon, None])
                                 | st.integers(1, horizon), label="H"),
        noise=data.draw(st.sampled_from(["gaussian", "uniform", "none"]), label="noise"),
    )
    # A small pool next to the full range makes repeated seeds common.
    seeds = data.draw(st.lists(st.integers(0, 3) | st.integers(0, 2**32 - 1),
                               min_size=1, max_size=5), label="seeds")
    batched = run_rcb_seeds(config, market, timeline, seeds)
    assert [trace.seed for trace in batched] == seeds
    for seed, trace in zip(seeds, batched):
        alone = run_rcb(replace(config, seed=seed), market, timeline)
        for name in ("matchings", "rewards", "true_means"):
            assert np.array_equal(getattr(trace, name), getattr(alone, name)), name
        assert trace.schedule == alone.schedule
        assert trace.restart_period == alone.restart_period


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lockstep_groups_equal_one_block_per_group(data):
    """``play`` advances groups of restart blocks in lockstep, each group at
    most ``_GROUP_CELLS`` learner cells. One block per group, every block in
    one group and a drawn group size give equal matchings, rewards,
    schedules and meta epoch summaries bit for bit: for rcb batches of 1-3
    seeds with repeats, meta runs (whose epochs are rarely multiples of the
    period), each noise family, K >= N, periods up to beyond T and partial
    last blocks, also alone in the last group."""
    n = data.draw(st.integers(1, 3), label="N")
    k = data.draw(st.integers(n, 5), label="K")
    horizon = data.draw(st.integers(1, 80), label="T")
    spec = GeneratorSpec(seed=data.draw(st.integers(0, 2**31 - 1), label="instance"),
                         n_players=n, n_arms=k, delta=0.05,
                         n_changes=data.draw(st.integers(0, min(3, horizon - 1)), label="L"))
    market, timeline = generate_instance(spec, horizon)
    period = data.draw(st.sampled_from([1, horizon, horizon + 3]) | st.integers(1, horizon),
                       label="H")
    config = SimulationConfig(horizon, restart_period=period,
                              noise=data.draw(st.sampled_from(NOISE_FAMILIES), label="noise"))
    seeds = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3), label="seeds")
    # With blocks - 1 blocks per group a partial last block is its group's only one.
    blocks = -(-horizon // min(period, horizon))
    group = data.draw(st.sampled_from([max(1, blocks - 1)]) | st.integers(1, blocks),
                      label="blocks per group")
    runs = []
    for cells in (1, group * len(seeds) * n * k, horizon * len(seeds) * n * k):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_GROUP_CELLS", cells)
            traces = run_rcb_seeds(config, market, timeline, seeds)
            if horizon > 1:
                traces.append(run_rcb_meta(replace(config, restart_period=None, seed=seeds[0]),
                                           market, timeline))
        runs.append([(t.matchings.tobytes(), t.rewards.tobytes(), t.schedule,
                      repr(t.epoch_summaries)) for t in traces])
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_batched_run_rejects_empty_seed_list():
    market, timeline = single_player_setup(5)
    with pytest.raises(InputError, match="seeds") as err:
        run_rcb_seeds(SimulationConfig(5), market, timeline, [])
    assert err.value.field == "seeds"
    with pytest.raises(InputError, match="negative") as err:
        run_rcb_seeds(SimulationConfig(5), market, timeline, [0, -1])
    assert err.value.field == "seeds"


def test_batched_run_rejects_non_integer_seed():
    market, timeline = single_player_setup(5)
    config = SimulationConfig(np.int64(5), restart_period=np.int64(2), seed=np.int64(1))
    assert len(run_rcb_seeds(config, market, timeline, np.arange(2))) == 2
    with pytest.raises(InputError, match="seeds: expected an integer"):
        run_rcb_seeds(config, market, timeline, [0, 1.5])


# --- regret accounting ---------------------------------------------------------------

def test_benchmarks_recorded_from_true_means():
    market, timeline = conflict_setup(20)
    trace = run_rcb(SimulationConfig(20, noise="none"), market, timeline)
    # Unique stable matching, so both benchmarks coincide every round.
    assert set(trace.optimal_arms) == {(0, 1)}
    assert trace.optimal_arms == trace.pessimal_arms
    assert benchmark_rows(trace, "optimal") == [[0.9, 0.3]] * 20


def test_true_means_are_the_matched_arms_means():
    market, timeline = conflict_setup(40, (ChangeEvent(15, 0, 1, 0.95),
                                           ChangeEvent(30, 1, 0, 0.1)))
    trace = run_rcb(SimulationConfig(40, seed=4), market, timeline)
    for t, (arms, means) in enumerate(zip(trace.matchings.tolist(),
                                          trace.true_means.tolist()), start=1):
        assert means == [means_at(timeline, t)[i][a] for i, a in enumerate(arms)]


def test_true_means_and_benchmarks_per_segment():
    """The true means a trace derives from its segments, its per-segment
    benchmark arms and the regret report's increments, on a trace whose
    segments start on the first, the last and inner rounds, against each
    round's means and DA on its true orderings. The benchmark flips in the
    last segment, so a misaligned one fails."""
    events = tuple(ChangeEvent(t, t % 2, 1 - t % 2, 0.95 * t / 12) for t in (2, 3, 7, 12))
    market, timeline = conflict_setup(12, events)
    trace = run_rcb(SimulationConfig(12, seed=3), market, timeline)
    expected = [[means_at(timeline, t)[i][a] for i, a in enumerate(arms)]
                for t, arms in enumerate(trace.matchings.tolist(), start=1)]
    assert trace.true_means.tolist() == expected
    baselines = ("optimal", "pessimal")
    rows = {b: benchmark_rows(trace, b) for b in baselines}
    increments = {b: regret_report(trace, b).increments for b in baselines}
    for t in range(1, 13):
        means = means_at(timeline, t)
        for b, benchmark in zip(baselines, optimal_pessimal(true_orderings(means), market)):
            bench = [row[a] for row, a in zip(means, benchmark.assignment)]
            assert rows[b][t - 1] == bench, (b, t)
            assert increments[b][t - 1].tolist() == (
                np.array(bench) - trace.true_means[t - 1]).tolist(), (b, t)


def test_regret_uses_true_means_not_samples():
    market, timeline = conflict_setup(40)
    trace = run_rcb(SimulationConfig(40, seed=1, noise="gaussian"), market, timeline)
    report = regret_report(trace, "pessimal")
    expected = np.array(benchmark_rows(trace, "pessimal")) - trace.true_means
    assert np.allclose(report.increments, expected)
    assert np.allclose(report.cumulative, np.cumsum(expected, axis=0))
    assert np.allclose(report.final(), report.cumulative[-1])
    with pytest.raises(InputError, match="median") as err:
        regret_report(trace, "median")
    assert err.value.field == "baseline"


def test_optimal_regret_dominates_pessimal_regret():
    rng = np.random.default_rng(6)
    market = MarketInstance(3, 3, tuple(tuple(float(v) for v in rng.permutation(3)) for _ in range(3)))
    means = tuple(tuple(float(v) for v in (rng.permutation(3) + 1) / 4) for _ in range(3))
    timeline = MeanRewardTimeline(150, means)
    trace = run_rcb(SimulationConfig(150, seed=2), market, timeline)
    opt = regret_report(trace, "optimal")
    pess = regret_report(trace, "pessimal")
    assert np.all(opt.increments >= pess.increments - 1e-12)


def test_block_sums_partition_the_increments():
    market, timeline = conflict_setup(50)
    trace = run_rcb(SimulationConfig(50, restart_period=12, seed=0), market, timeline)
    report = regret_report(trace)
    assert report.block_bounds.tolist() == [[1, 12], [13, 24], [25, 36], [37, 48], [49, 50]]
    assert np.allclose(report.block_sums.sum(axis=0), report.final())


def scanned_block_bounds(trace):
    """Block bounds from a scan of the per-round restart flags."""
    starts = [t for t, flag in enumerate(schedule_columns(trace)[1], start=1) if flag]
    return [[s, e] for s, e in zip(starts, [s - 1 for s in starts[1:]] + [trace.horizon])]


def test_block_bounds_follow_the_restart_flags():
    """regret_report takes its blocks from the schedule; they equal a scan of
    the restart flags on a batched rcb trace and on a meta trace whose epochs
    (11 rounds at T = 120) are not a multiple of every chosen period, so a
    block also starts at each epoch start."""
    market, timeline = conflict_setup(50, (ChangeEvent(20, 0, 1, 0.95),))
    traces = run_rcb_seeds(SimulationConfig(50, restart_period=12), market, timeline, [0, 1, 1])
    for trace in traces:
        assert trace.schedule is traces[0].schedule == [(1, 50, 12)]
        assert trace.epoch_summaries is None
        assert regret_report(trace).block_bounds.tolist() == scanned_block_bounds(trace)

    market, timeline = conflict_setup(120, (ChangeEvent(60, 0, 1, 0.95),))
    trace = run_rcb_meta(SimulationConfig(120, seed=4), market, timeline)
    periods = [s.chosen_h for s in trace.epoch_summaries]
    assert any(11 % h for h in periods)
    assert [(start, end) for start, end, _ in trace.schedule] == [
        (s, min(s + 10, 120)) for s in range(1, 121, 11)]
    report = regret_report(trace)
    assert report.block_bounds.tolist() == scanned_block_bounds(trace)
    for (lo, hi), sums in zip(report.block_bounds.tolist(), report.block_sums):
        assert np.allclose(sums, report.increments[lo - 1:hi].sum(axis=0))


def test_zero_regret_when_matched_to_benchmark():
    market, timeline = single_player_setup(30)
    trace = run_rcb(SimulationConfig(30, noise="none"), market, timeline)
    report = regret_report(trace, "pessimal")
    (arms,) = trace.pessimal_arms  # the stationary timeline's one segment
    for t, m in enumerate(trace.matchings.tolist()):
        if m == list(arms):
            assert report.increments[t].tolist() == [0.0] * trace.n_players


# --- trace export -----------------------------------------------------------------------

def test_trace_csv_round_trips(tmp_path):
    market, timeline = conflict_setup(25)
    trace = run_rcb(SimulationConfig(25, seed=8), market, timeline)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, extra_metadata=(("label", "unit-test"),))
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("# ")]
    assert "# seed = 8" in comments
    assert "# restart_period = 25" in comments
    assert "# label = unit-test" in comments
    header = lines[len(comments)]
    assert header.split(",") == [
        "t", "block_index", "restart_flag", "player", "matched_arm",
        "sampled_reward", "true_mean", "benchmark_arm", "regret_increment",
        "cumulative_regret",
    ]
    rows = lines[len(comments) + 1:]
    assert len(rows) == 25 * 2
    # The last row's cumulative regret equals the report's final value.
    final = regret_report(trace).final()
    assert float(rows[-1].split(",")[-1]) == pytest.approx(final[1])


def test_trace_csv_bytes_reproducible(tmp_path):
    market, timeline = conflict_setup(40)
    payloads = []
    for run in range(2):
        trace = run_rcb(SimulationConfig(40, seed=11), market, timeline)
        path = tmp_path / f"trace_{run}.csv"
        write_trace_csv(trace, path)
        payloads.append(path.read_bytes())
    assert payloads[0] == payloads[1]


CHUNK = _EXPORT_CHUNK_ROUNDS


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_trace_csv_equals_row_wise_oracle(tmp_path_factory, data):
    """The column-wise, chunked writer gives the row-wise writer's bytes for
    rcb and meta traces (batched ones included), every noise family and
    horizons around the chunk size, with and without extra metadata."""
    mode = data.draw(st.sampled_from(["rcb", "rcb batch", "meta"]), label="mode")
    n = data.draw(st.integers(1, 4), label="N")
    k = data.draw(st.integers(n, 6), label="K")
    # Meta mode needs two rounds and tunes its own restart period.
    horizon = data.draw(st.integers(1 + (mode == "meta"), CHUNK - 1)
                        | st.sampled_from([CHUNK, 2 * CHUNK, 3 * CHUNK])
                        | st.sampled_from([m * CHUNK + d for m in (1, 2) for d in (-1, 1)]),
                        label="T")
    spec = GeneratorSpec(seed=data.draw(st.integers(0, 2**31 - 1), label="instance"),
                         n_players=n, n_arms=k, delta=0.05,
                         n_changes=data.draw(st.integers(0, min(3, horizon - 1)), label="L"))
    market, timeline = generate_instance(spec, horizon)
    period = None if mode == "meta" else data.draw(st.none() | st.integers(1, horizon), label="H")
    config = SimulationConfig(
        horizon,
        restart_period=period,
        seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
        noise=data.draw(st.sampled_from(["gaussian", "uniform", "none"]), label="noise"),
    )
    if mode == "meta":
        trace = run_rcb_meta(config, market, timeline)
    else:
        # The last trace of a batch sees column slices of the batch arrays.
        seeds = [config.seed] if mode == "rcb" else [config.seed + 1, config.seed]
        trace = run_rcb_seeds(config, market, timeline, seeds)[-1]
    text = st.text(string.ascii_letters + string.digits + " _.=-", max_size=12)
    extra = data.draw(st.lists(st.tuples(text, text), max_size=3), label="extra_metadata")
    out = tmp_path_factory.mktemp("export")
    report = write_trace_csv(trace, out / "columns.csv", extra)
    expected = write_trace_csv_rows(trace, out / "rows.csv", extra)
    assert (out / "columns.csv").read_bytes() == (out / "rows.csv").read_bytes()
    assert np.array_equal(report.cumulative, expected.cumulative)


@pytest.mark.parametrize("noise", NOISE_FAMILIES)
@pytest.mark.parametrize("mode", ["rcb", "meta"])
def test_trace_csv_equals_row_wise_oracle_with_short_segments(tmp_path, mode, noise):
    """Many segments start inside one export chunk, so the writer switches
    segment tables mid-chunk; the bytes are still the row-wise writer's."""
    market, timeline = generate_instance(
        GeneratorSpec(seed=5, n_players=2, n_arms=3, delta=0.05, n_changes=40), 300)
    starts = [start for start, _, _ in timeline.segments()]
    assert sum(1 < start <= CHUNK for start in starts) >= 20
    config = SimulationConfig(300, seed=9, noise=noise)
    trace = (run_rcb_meta if mode == "meta" else run_rcb)(config, market, timeline)
    write_trace_csv(trace, tmp_path / "columns.csv")
    write_trace_csv_rows(trace, tmp_path / "rows.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_trace_csv_keeps_negative_zero(tmp_path):
    """A -0.0 mean exports as -0.0 (reward and true mean of round 1) while
    the 0.0 increments of later rounds in the same chunk stay 0.0: the
    distinct-value repr keys on bit patterns, not float values."""
    market = MarketInstance(1, 2, ((0.0,), (1.0,)))
    timeline = MeanRewardTimeline(4, ((-0.0, 0.5),))
    trace = run_rcb(SimulationConfig(4, noise="none"), market, timeline)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header, *rows = [line.split(",") for line in lines]
    first, second = dict(zip(header, rows[0])), dict(zip(header, rows[1]))
    assert first["matched_arm"] == "0"
    assert first["sampled_reward"] == first["true_mean"] == "-0.0"
    assert second["regret_increment"] == "0.0"
    write_trace_csv_rows(trace, tmp_path / "rows.csv")
    assert path.read_bytes() == (tmp_path / "rows.csv").read_bytes()
