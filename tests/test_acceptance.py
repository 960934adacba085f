"""End-to-end acceptance checks.

Each test prints one PASS line when its criterion holds; tolerances and
runtime budgets are asserted explicitly. Run with ``pytest -s`` to see the
lines on success.
"""

import math
import time

import numpy as np

from competing_bandits import (
    ChangeEvent,
    MarketInstance,
    Matching,
    MeanRewardTimeline,
    SimulationConfig,
    UcbState,
    blocking_pairs,
    build_ensemble,
    regret_report,
    run_rcb,
    run_rcb_meta,
    run_rcb_seeds,
    write_trace_csv,
)
from competing_bandits.cli import oracle_check
from competing_bandits.config import GeneratorSpec, generate_instance
from competing_bandits.engine import compute_restart_period

N_SEEDS = 20


def report(number, message):
    print(f"PASS criterion {number}: {message}", flush=True)


def stationary_3x3():
    """Random 3x3 instance with a comfortable reward gap (min gap >= 3)."""
    spec = GeneratorSpec(
        seed=3, n_players=3, n_arms=3, delta=3.0, n_changes=0, mu_bar=10.0
    )
    return generate_instance(spec, 5_000)


def toggle_instance(horizon=10_000, n_toggles=100):
    """One player's top arm flips between best and worst 100 times.

    A learner that never restarts commits to stale statistics; a learner
    that restarts every round never learns at all. The tuned block length
    tracks the flips.
    """
    initial = ((8.0, 5.0, 2.0), (2.0, 8.0, 5.0), (5.0, 2.0, 8.0))
    utilities = ((1.0, 3.0, 2.0), (2.0, 1.0, 3.0), (1.0, 3.0, 2.0))
    market = MarketInstance(3, 3, utilities)
    events = tuple(
        ChangeEvent(51 + 100 * i, 0, 0, 0.0 if i % 2 == 0 else 8.0)
        for i in range(n_toggles)
    )
    timeline = MeanRewardTimeline(horizon, initial, events, mu_bar=10.0)
    return market, timeline


def hard_stationary_instance(horizon):
    """Serial-dictatorship market with reward gaps of only 0.3: every fixed
    restart period needs most of the horizon to separate the arms, so no
    ensemble member runs away from the meta-learner."""
    g, c = 0.3, 5.0
    means = ((c, c + g, c - g), (c + g, c - g, c), (c - g, c, c + g))
    market = MarketInstance(3, 3, ((3.0, 2.0, 1.0),) * 3)
    timeline = MeanRewardTimeline(horizon, means, (), mu_bar=6.5)
    return market, timeline


def mean_max_player_regret(traces, baseline="pessimal"):
    return float(
        np.mean([regret_report(t, baseline).final().max() for t in traces])
    )


# --- 1: oracle equivalence -----------------------------------------------------

def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    mismatches = oracle_check(200, (2, 3, 4), seed=0)
    elapsed = time.perf_counter() - start
    assert mismatches == []
    assert elapsed < 10.0
    report(1, f"200 instances, both DA orientations match enumeration ({elapsed:.1f}s)")


# --- 2: stability certification --------------------------------------------------

def test_criterion_2_stability_certification(submitted_orderings):
    checked = 0
    for market, timeline, mode in [
        (*stationary_3x3(), "rcb"),
        (*toggle_instance(horizon=2_000, n_toggles=19), "rcb"),
        (*hard_stationary_instance(2_000), "meta"),
    ]:
        for seed in range(3):
            config = SimulationConfig(timeline.horizon, seed=seed)
            runner = run_rcb_meta if mode == "meta" else run_rcb
            trace = runner(config, market, timeline)
            rounds = zip(trace.matchings.tolist(), submitted_orderings(trace, market.n_arms))
            for m, orderings in rounds:
                assert blocking_pairs(Matching(m), orderings, market) == []
                checked += 1
    report(2, f"zero blocking pairs across {checked} simulated rounds")


# --- 3: UCB formula exactness ------------------------------------------------------

def test_criterion_3_ucb_formula_exactness():
    # One pull of 0.5, two rounds elapsed.
    s = UcbState(0, 2)
    s.begin_round()
    s.observe(0, 0.5)
    s.begin_round()
    assert abs(s.ucb_values()[0] - (0.5 + math.sqrt(3 * math.log(2) / 2))) < 1e-9
    assert s.ucb_values()[1] == math.inf
    assert s.rank_ordering().ranks[0] == 1  # unexplored arm ranks first

    # Two pulls averaging 0.3, five rounds elapsed.
    s = UcbState(0, 1)
    s.observe(0, 0.1)
    s.observe(0, 0.5)
    s.rounds_since_restart = 5
    assert abs(s.ucb_values()[0] - (0.3 + math.sqrt(3 * math.log(5) / 4))) < 1e-9

    # First round after a restart: zero bonus.
    s = UcbState(0, 1)
    s.begin_round()
    s.observe(0, 0.7)
    assert abs(s.ucb_values()[0] - 0.7) < 1e-9
    report(3, "confidence bound matches hand-derived values to 1e-9")


# --- 4: stationary convergence -------------------------------------------------------

def test_criterion_4_stationary_convergence():
    start = time.perf_counter()
    market, timeline = stationary_3x3()
    horizon, mu_bar = timeline.horizon, timeline.mu_bar
    config = SimulationConfig(horizon, restart_period=horizon)
    for trace in run_rcb_seeds(config, market, timeline, range(N_SEEDS)):
        final = regret_report(trace, "pessimal").final()
        assert np.all(final / horizon <= 0.02 * mu_bar)
        tail = trace.matchings[-1_000:]
        bench = trace.optimal_arms[-1_000:]
        for player in range(3):
            hits = sum(1 for m, b in zip(tail, bench) if m[player] == b[player])
            assert hits >= 0.9 * 1_000
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(4, f"{N_SEEDS} seeds converge to the optimal stable matching ({elapsed:.1f}s)")


# --- 5: sublinearity in the horizon ----------------------------------------------------

def test_criterion_5_sublinear_regret():
    start = time.perf_counter()
    rates = {}
    for horizon in (5_000, 20_000):
        spec = GeneratorSpec(
            seed=3, n_players=3, n_arms=3, delta=3.0, n_changes=4,
            mu_bar=10.0, change_fractions=(0.2, 0.4, 0.6, 0.8),
        )
        market, timeline = generate_instance(spec, horizon)
        traces = run_rcb_seeds(SimulationConfig(horizon), market, timeline, range(N_SEEDS))
        rates[horizon] = mean_max_player_regret(traces) / horizon
    elapsed = time.perf_counter() - start
    assert rates[20_000] < 0.8 * rates[5_000]
    assert elapsed < 120.0
    report(5, f"per-round regret drops {rates[5_000]:.4f} -> {rates[20_000]:.4f} "
              f"as T grows 4x ({elapsed:.1f}s)")


# --- 6: restart necessity ----------------------------------------------------------------

def test_criterion_6_restart_necessity():
    start = time.perf_counter()
    horizon = 10_000
    market, timeline = toggle_instance(horizon, n_toggles=100)
    assert compute_restart_period(horizon, 100) == 10

    means = {}
    for label, period in (("auto", None), ("unit", 1), ("never", horizon)):
        traces = run_rcb_seeds(SimulationConfig(horizon, restart_period=period),
                               market, timeline, range(N_SEEDS))
        means[label] = mean_max_player_regret(traces)
    elapsed = time.perf_counter() - start
    assert means["auto"] <= 0.8 * means["unit"]
    assert means["auto"] <= 0.8 * means["never"]
    assert elapsed < 120.0
    report(6, f"tuned H=10 regret {means['auto']:.0f} vs H=1 {means['unit']:.0f} "
              f"and H=T {means['never']:.0f} ({elapsed:.1f}s)")


# --- 7: variation accounting ----------------------------------------------------------------

def test_criterion_7_variation_accounting():
    from competing_bandits import means_at, total_changes

    rng = np.random.default_rng(0)
    for _ in range(50):
        horizon = int(rng.integers(10, 201))
        n_changes = int(rng.integers(0, min(8, horizon - 1)))
        spec = GeneratorSpec(
            seed=int(rng.integers(1_000_000)), n_players=2, n_arms=3,
            delta=0.05, n_changes=n_changes,
        )
        _, timeline = generate_instance(spec, horizon, rng=rng)
        # Direct double loop over the materialized per-round mean tensor.
        direct = 0
        for t in range(2, horizon + 1):
            prev, cur = means_at(timeline, t - 1), means_at(timeline, t)
            for i in range(timeline.n_players):
                for k in range(timeline.n_arms):
                    direct += prev[i][k] != cur[i][k]
        assert total_changes(timeline) == direct == n_changes
    report(7, "event count equals the materialized per-cell change count (50 timelines)")


# --- 8: meta mode within a factor of the best fixed period ------------------------------------

def test_criterion_8_meta_mode_sanity():
    start = time.perf_counter()
    horizon = 10_000
    market, timeline = hard_stationary_instance(horizon)

    def joint_regret(trace):
        return float(regret_report(trace, "pessimal").final().sum())

    fixed = {}
    for period in build_ensemble(horizon).periods:
        traces = run_rcb_seeds(SimulationConfig(horizon, restart_period=period),
                               market, timeline, range(N_SEEDS))
        fixed[period] = float(np.mean([joint_regret(trace) for trace in traces]))
    best = min(fixed.values())

    meta_finals = []
    for seed in range(N_SEEDS):
        trace = run_rcb_meta(SimulationConfig(horizon, seed=seed), market, timeline)
        meta_finals.append(joint_regret(trace))
        for summary in trace.epoch_summaries:
            assert abs(sum(summary.probabilities) - 1.0) < 1e-12
    meta = float(np.mean(meta_finals))

    elapsed = time.perf_counter() - start
    assert meta <= 3.0 * best
    assert elapsed < 180.0
    report(8, f"meta regret {meta:.0f} within 3x of best fixed period "
              f"{best:.0f} ({elapsed:.1f}s)")


# --- 9: determinism -----------------------------------------------------------------------------

def test_criterion_9_byte_identical_traces(tmp_path):
    market, timeline = toggle_instance(horizon=2_000, n_toggles=19)
    for mode, runner in (("rcb", run_rcb), ("meta", run_rcb_meta)):
        payloads = []
        for attempt in range(2):
            trace = runner(SimulationConfig(2_000, seed=42), market, timeline)
            path = tmp_path / f"{mode}_{attempt}.csv"
            write_trace_csv(trace, path)
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]
    report(9, "repeated runs write byte-identical trace CSVs (both modes)")
