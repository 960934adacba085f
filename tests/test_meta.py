"""Restart-period ensemble, EXP3 meta-learner, and the epoch loop."""

import math

import numpy as np
import pytest

from competing_bandits import (
    Exp3State,
    InputError,
    MarketInstance,
    MeanRewardTimeline,
    SimulationConfig,
    build_ensemble,
    compute_restart_period,
    exp3_select,
    exp3_update,
    run_rcb,
    run_rcb_meta,
    write_epoch_summary_csv,
)
from competing_bandits.meta import default_gamma


def single_player_setup(horizon, means=(0.1, 6.4), mu_bar=6.5):
    market = MarketInstance(1, 2, ((1.0,), (1.0,)))
    timeline = MeanRewardTimeline(horizon, (means,), (), mu_bar)
    return market, timeline


# --- ensemble construction -----------------------------------------------------

def test_ensemble_ten_thousand():
    e = build_ensemble(10_000)
    assert e.periods == (1, 2, 4, 8, 16, 32, 64, 128)
    assert e.epoch_length == 100
    assert e.epoch_count == 100


def test_ensemble_tiny_horizon():
    e = build_ensemble(4)
    assert e.periods == (1, 2)
    assert e.epoch_length == 2
    assert e.epoch_count == 2


def test_ensemble_rejects_degenerate_horizon():
    with pytest.raises(InputError):
        build_ensemble(1)


def test_ensemble_epochs_cover_horizon():
    for t in (2, 7, 100, 999, 10_000, 123_456):
        e = build_ensemble(t)
        assert e.epoch_length * e.epoch_count >= t
        assert e.epoch_length * (e.epoch_count - 1) < t


def test_ensemble_covers_tuned_period_within_factor_two():
    # Whatever the (unknown) change count, some ensemble member is within a
    # factor two of the period the tuned rule would pick.
    for horizon in (100, 1_024, 10_000, 50_000):
        e = build_ensemble(horizon)
        for changes in (1, 2, 3, 5, 10, 50, horizon // 2, horizon):
            tuned = compute_restart_period(horizon, changes)
            assert any(p / 2 <= tuned <= p * 2 for p in e.periods)


# --- EXP3 -------------------------------------------------------------------------

def test_exp3_rejects_bad_construction():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError):
        Exp3State(np.array([]), 0.5, rng)
    with pytest.raises(InputError):
        Exp3State(np.array([1.0, -1.0]), 0.5, rng)
    with pytest.raises(InputError):
        Exp3State(np.array([1.0, 1.0]), 0.0, rng)


def test_fresh_probabilities_uniform():
    state = Exp3State.fresh(4, 0.5, np.random.default_rng(0))
    assert np.allclose(state.probabilities(), 0.25)
    assert state.probabilities().sum() == pytest.approx(1.0)


def test_full_exploration_draws_uniformly():
    state = Exp3State.fresh(4, 1.0, np.random.default_rng(1))
    draws = np.array([exp3_select(state) for _ in range(100_000)])
    for arm in range(4):
        assert abs((draws == arm).mean() - 0.25) < 0.01


def test_dominant_weight_dominates_draws():
    rng = np.random.default_rng(2)
    state = Exp3State(np.array([1e-9, 1.0, 1e-9]), 1e-6, rng)
    draws = [exp3_select(state) for _ in range(1_000)]
    assert draws.count(1) >= 990


def test_update_rejects_out_of_range_reward():
    state = Exp3State.fresh(2, 0.5, np.random.default_rng(0))
    with pytest.raises(InputError):
        exp3_update(state, 0, 1.5)
    with pytest.raises(InputError):
        exp3_update(state, 0, -0.1)
    with pytest.raises(InputError):
        exp3_update(state, 5, 0.5)


def test_zero_reward_leaves_probabilities_unchanged():
    state = Exp3State.fresh(3, 0.3, np.random.default_rng(0))
    before = state.probabilities().copy()
    exp3_update(state, 1, 0.0)
    assert np.allclose(state.probabilities(), before)


def test_repeated_wins_concentrate_probability():
    state = Exp3State.fresh(2, 0.2, np.random.default_rng(0))
    last = state.probabilities()[0]
    for _ in range(400):
        exp3_update(state, 0, 1.0)
        p = state.probabilities()[0]
        assert p >= last - 1e-12
        last = p
    # Probability saturates at 1 - gamma + gamma / J.
    assert last == pytest.approx(1 - 0.2 + 0.2 / 2, abs=1e-3)
    assert state.probabilities().sum() == pytest.approx(1.0)


def test_default_gamma_bounds():
    assert default_gamma(1, 100) == 1.0
    g = default_gamma(8, 100)
    assert 0 < g <= 1
    assert g == pytest.approx(
        math.sqrt(8 * math.log(8) / ((math.e - 1) * 100))
    )
    assert default_gamma(8, 1) == 1.0  # capped


# --- epoch loop ---------------------------------------------------------------------

def test_meta_rejects_explicit_restart_period():
    market, timeline = single_player_setup(100)
    with pytest.raises(InputError):
        run_rcb_meta(SimulationConfig(100, restart_period=10), market, timeline)


def test_single_epoch_equals_plain_run_with_drawn_period():
    # T=2 gives one epoch covering the whole horizon; after replaying the
    # meta-learner's single draw, the base loop must match round for round.
    market, timeline = single_player_setup(2)
    meta = run_rcb_meta(SimulationConfig(2, seed=5), market, timeline)

    rng = np.random.default_rng(5)
    gamma = default_gamma(2, 1)
    probs = np.full(2, (1 - gamma) / 2 + gamma / 2)
    chosen = int(rng.choice(2, p=probs / probs.sum()))
    period = (1, 2)[chosen]
    plain = run_rcb(SimulationConfig(2, restart_period=period, seed=5), market, timeline, rng=rng)

    assert meta.chosen_h == [period, period]
    assert np.array_equal(meta.matchings, plain.matchings)
    assert np.array_equal(meta.rewards, plain.rewards)
    assert meta.restart_flags == plain.restart_flags


def test_epoch_bookkeeping_consistent():
    market, timeline = single_player_setup(1_000)
    trace = run_rcb_meta(SimulationConfig(1_000, seed=0), market, timeline)
    ensemble = build_ensemble(1_000)
    assert len(trace.matchings) == 1_000
    assert len(trace.epoch_summaries) == ensemble.epoch_count
    for t in range(1_000):
        epoch = t // ensemble.epoch_length
        assert trace.epoch_index[t] == epoch
        assert trace.chosen_h[t] == trace.epoch_summaries[epoch].chosen_h
        offset = t - epoch * ensemble.epoch_length
        assert trace.restart_flags[t] == (offset % trace.chosen_h[t] == 0)
    # Block indices never decrease and step by one at each restart.
    for prev, cur, flag in zip(trace.block_index, trace.block_index[1:], trace.restart_flags[1:]):
        assert cur - prev == (1 if flag else 0)


def test_normalized_rewards_in_unit_interval():
    market, timeline = single_player_setup(2_000)
    trace = run_rcb_meta(SimulationConfig(2_000, seed=1), market, timeline)
    for summary in trace.epoch_summaries:
        assert 0.0 <= summary.normalized_reward <= 1.0
        assert sum(summary.probabilities) == pytest.approx(1.0)


def test_meta_run_deterministic_per_seed():
    market, timeline = single_player_setup(500)
    a = run_rcb_meta(SimulationConfig(500, seed=9), market, timeline)
    b = run_rcb_meta(SimulationConfig(500, seed=9), market, timeline)
    assert np.array_equal(a.matchings, b.matchings)
    assert a.epoch_summaries == b.epoch_summaries
    c = run_rcb_meta(SimulationConfig(500, seed=10), market, timeline)
    assert a.epoch_summaries != c.epoch_summaries


def test_selection_drifts_toward_longer_periods():
    # On a stationary instance where tiny restart periods forfeit almost all
    # reward, the average chosen period should grow from the first quarter
    # of the epochs to the last (aggregated over seeds).
    market, timeline = single_player_setup(10_000)
    firsts, lasts = [], []
    for seed in range(20):
        trace = run_rcb_meta(SimulationConfig(10_000, seed=seed), market, timeline)
        hs = [s.chosen_h for s in trace.epoch_summaries]
        quarter = len(hs) // 4
        firsts.append(np.mean([math.log2(h) for h in hs[:quarter]]))
        lasts.append(np.mean([math.log2(h) for h in hs[-quarter:]]))
    assert np.mean(lasts) > np.mean(firsts)


def test_epoch_summary_csv(tmp_path):
    market, timeline = single_player_setup(400)
    trace = run_rcb_meta(SimulationConfig(400, seed=2), market, timeline)
    path = tmp_path / "epochs.csv"
    write_epoch_summary_csv(trace, path)
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("# ")]
    header = lines[len(comments)].split(",")
    n_periods = len(build_ensemble(400).periods)
    assert header == ["epoch", "chosen_H", "normalized_reward"] + [
        f"p_{j}" for j in range(n_periods)
    ]
    assert len(lines) - len(comments) - 1 == len(trace.epoch_summaries)


def test_epoch_summary_csv_rejects_plain_trace(tmp_path):
    market, timeline = single_player_setup(50)
    trace = run_rcb(SimulationConfig(50), market, timeline)
    with pytest.raises(InputError):
        write_epoch_summary_csv(trace, tmp_path / "epochs.csv")
