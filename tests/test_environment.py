"""Piecewise-constant mean timelines, noise families, and benchmarks."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from competing_bandits import (
    AssumptionError,
    ChangeEvent,
    InputError,
    MarketInstance,
    MeanRewardTimeline,
    blocking_pairs,
    means_at,
    min_gap,
    sample_reward,
    stable_benchmarks,
    total_changes,
)
from competing_bandits.environment import NOISE_FAMILIES, draw_noise, true_orderings


def flat_timeline(horizon=10, events=(), mu_bar=1.0):
    return MeanRewardTimeline(
        horizon, ((0.1, 0.5, 0.9), (0.8, 0.2, 0.6)), events, mu_bar
    )


# --- construction and validation --------------------------------------------

def test_rejects_out_of_range_initial_mean():
    with pytest.raises(AssumptionError):
        MeanRewardTimeline(10, ((0.1, 1.5),))


def test_rejects_negative_initial_mean():
    with pytest.raises(AssumptionError):
        MeanRewardTimeline(10, ((-0.1, 0.5),))


def test_rejects_duplicate_means_in_initial_segment():
    with pytest.raises(AssumptionError):
        MeanRewardTimeline(10, ((0.5, 0.5),))


def test_rejects_event_creating_duplicate_means():
    with pytest.raises(AssumptionError):
        flat_timeline(events=(ChangeEvent(5, 0, 0, 0.5),))


def test_rejects_event_before_round_two():
    with pytest.raises(InputError):
        flat_timeline(events=(ChangeEvent(1, 0, 0, 0.3),))


def test_rejects_event_after_horizon():
    with pytest.raises(InputError):
        flat_timeline(events=(ChangeEvent(11, 0, 0, 0.3),))


def test_rejects_noop_event():
    with pytest.raises(InputError):
        flat_timeline(events=(ChangeEvent(5, 0, 0, 0.1),))


def test_rejects_event_mean_above_mu_bar():
    with pytest.raises(AssumptionError):
        flat_timeline(events=(ChangeEvent(5, 0, 0, 1.2),))


@pytest.mark.parametrize("mu_bar", [math.nan, math.inf])
def test_rejects_non_finite_mu_bar(mu_bar):
    with pytest.raises(InputError, match="mu_bar must be positive and finite"):
        flat_timeline(mu_bar=mu_bar)


def test_rejects_event_with_bad_indices():
    with pytest.raises(InputError):
        flat_timeline(events=(ChangeEvent(5, 2, 0, 0.3),))


def test_rejects_non_integer_horizon():
    """A float horizon used to be truncated silently."""
    with pytest.raises(InputError, match="horizon: expected an integer"):
        flat_timeline(horizon=4.5)


@pytest.mark.parametrize("field, value", [("time", 2.5), ("player", 0.5), ("arm", 1.5)])
def test_rejects_non_integer_event_field(field, value):
    """An event at t = 2.5 used to give segments (1, 1.5) and (2.5, 10), on
    which run_rcb raised TypeError; an in-range float index raised it here."""
    fields = {"time": 5, "player": 0, "arm": 0, "new_mean": 0.3, field: value}
    with pytest.raises(InputError, match=f"event {field}: expected an integer"):
        flat_timeline(events=(ChangeEvent(**fields),))


def test_accepts_numpy_integer_fields():
    timeline = flat_timeline(horizon=np.int64(10),
                             events=(ChangeEvent(np.int64(5), np.int64(1), np.int32(2), 0.3),))
    assert [(start, end) for start, end, _ in timeline.segments()] == [(1, 4), (5, 10)]


def test_rejects_ragged_rows():
    with pytest.raises(InputError):
        MeanRewardTimeline(10, ((0.1, 0.5), (0.2,)))


# --- means_at and segments ---------------------------------------------------

def test_means_constant_without_events():
    tl = flat_timeline()
    for t in (1, 5, 10):
        assert means_at(tl, t) == ((0.1, 0.5, 0.9), (0.8, 0.2, 0.6))


def test_means_switch_exactly_at_event_time():
    tl = flat_timeline(events=(ChangeEvent(5, 1, 2, 0.95),))
    assert means_at(tl, 4)[1][2] == 0.6
    assert means_at(tl, 5)[1][2] == 0.95
    assert means_at(tl, 10)[1][2] == 0.95


def test_two_events_same_cell_apply_in_order():
    tl = flat_timeline(events=(ChangeEvent(5, 0, 0, 0.3), ChangeEvent(7, 0, 0, 0.7)))
    assert [means_at(tl, t)[0][0] for t in (4, 5, 6, 7, 8)] == [0.1, 0.3, 0.3, 0.7, 0.7]


def test_means_at_rejects_out_of_range_round():
    tl = flat_timeline()
    with pytest.raises(InputError):
        means_at(tl, 0)
    with pytest.raises(InputError):
        means_at(tl, 11)


def test_segments_partition_the_horizon():
    tl = flat_timeline(events=(ChangeEvent(3, 0, 0, 0.2), ChangeEvent(8, 1, 1, 0.4)))
    segs = tl.segments()
    assert [(s, e) for s, e, _ in segs] == [(1, 2), (3, 7), (8, 10)]
    for start, end, means in segs:
        for t in range(start, end + 1):
            assert means_at(tl, t) == means


def test_means_change_only_at_event_times():
    rng = np.random.default_rng(0)
    for _ in range(10):
        horizon = 30
        times = sorted(int(v) for v in rng.choice(np.arange(2, 31), 4, replace=False))
        events, current = [], [0.1, 0.5, 0.9]
        for t in times:
            j = int(rng.integers(3))
            others = [current[a] for a in range(3) if a != j]
            new = float(rng.uniform(0, 1))
            while any(abs(new - o) < 1e-6 for o in others) or new == current[j]:
                new = float(rng.uniform(0, 1))
            events.append(ChangeEvent(t, 0, j, new))
            current[j] = new
        tl = MeanRewardTimeline(horizon, ((0.1, 0.5, 0.9),), events)
        for t in range(2, horizon + 1):
            changed = means_at(tl, t) != means_at(tl, t - 1)
            assert changed == (t in times)


# --- change counting and gap -------------------------------------------------

def test_total_changes_counts_events():
    assert total_changes(flat_timeline()) == 0
    assert total_changes(flat_timeline(events=(ChangeEvent(5, 0, 0, 0.3),))) == 1
    two = flat_timeline(events=(ChangeEvent(5, 0, 0, 0.3), ChangeEvent(5, 0, 1, 0.45)))
    assert total_changes(two) == 2


def test_min_gap_single_segment():
    assert min_gap(flat_timeline()) == pytest.approx(0.2)


def test_min_gap_shrinks_after_event():
    tl = flat_timeline(events=(ChangeEvent(5, 0, 0, 0.45),))
    assert min_gap(tl) == pytest.approx(0.05)


def test_min_gap_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(20):
        means = tuple(tuple(float(v) for v in rng.permutation(4) / 4 + 0.1) for _ in range(2))
        tl = MeanRewardTimeline(5, means)
        brute = min(
            abs(row[a] - row[b])
            for row in means
            for a in range(4)
            for b in range(4)
            if a != b
        )
        assert min_gap(tl) == pytest.approx(brute)


# --- reward sampling ----------------------------------------------------------

def test_noise_none_returns_exact_mean():
    tl = flat_timeline()
    rng = np.random.default_rng(0)
    assert sample_reward(tl, 1, 2, 3, rng, "none") == 0.6


def test_sampling_is_deterministic_per_seed():
    tl = flat_timeline()
    draws = []
    for _ in range(2):
        rng = np.random.default_rng(7)
        draws.append([sample_reward(tl, 0, 1, 1, rng) for _ in range(50)])
    assert draws[0] == draws[1]


def test_gaussian_noise_centers_on_mean():
    tl = flat_timeline()
    rng = np.random.default_rng(2)
    values = np.array([sample_reward(tl, 0, 2, 1, rng, "gaussian") for _ in range(100_000)])
    assert abs(values.mean() - 0.9) < 0.02
    assert abs(values.std() - 1.0) < 0.02


def test_uniform_noise_bounded_and_unit_variance():
    tl = flat_timeline()
    rng = np.random.default_rng(3)
    values = np.array([sample_reward(tl, 0, 0, 1, rng, "uniform") for _ in range(100_000)])
    half_width = math.sqrt(3.0)
    assert values.min() >= 0.1 - half_width
    assert values.max() <= 0.1 + half_width
    assert abs(values.mean() - 0.1) < 0.02
    assert abs(values.var() - 1.0) < 0.03


@pytest.mark.parametrize("family", NOISE_FAMILIES)
@given(a=st.integers(0, 40), b=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_one_block_draw_equals_consecutive_draws(family, a, b, seed):
    """The engine draws a whole range of rounds' noise in one call; that is
    only the sequential stream if a draw of a + b values equals a draw of a
    followed by a draw of b from the same generator, bit for bit."""
    block = draw_noise(np.random.default_rng(seed), family, a + b)
    rng = np.random.default_rng(seed)
    parts = np.concatenate([draw_noise(rng, family, a), draw_noise(rng, family, b)])
    assert block.tobytes() == parts.tobytes(), (
        f"numpy draws {family} noise for {a} + {b} values differently in one call "
        "than in two; the engine's one draw per play() block then no longer "
        "reproduces round-by-round draws, and traces change")


def test_unknown_noise_family_rejected():
    tl = flat_timeline()
    with pytest.raises(InputError):
        sample_reward(tl, 0, 0, 1, np.random.default_rng(0), "bernoulli")


def test_sample_reward_rejects_bad_indices():
    tl = flat_timeline()
    with pytest.raises(InputError):
        sample_reward(tl, 2, 0, 1, np.random.default_rng(0))
    with pytest.raises(InputError):
        sample_reward(tl, 0, 3, 1, np.random.default_rng(0))


def test_sample_reward_tracks_change_events():
    tl = flat_timeline(events=(ChangeEvent(5, 0, 0, 0.7),))
    rng = np.random.default_rng(0)
    assert sample_reward(tl, 0, 0, 4, rng, "none") == 0.1
    assert sample_reward(tl, 0, 0, 5, rng, "none") == 0.7


# --- stable benchmarks ---------------------------------------------------------

def test_benchmarks_constant_for_stationary_timeline():
    market = MarketInstance(2, 3, ((2.0, 1.0), (1.0, 2.0), (2.0, 1.0)))
    tl = flat_timeline()
    bench = stable_benchmarks(tl, market)
    assert len(bench) == 10
    assert len({(o.assignment, p.assignment) for o, p in bench}) == 1


def test_benchmarks_flip_when_top_arm_changes():
    market = MarketInstance(1, 2, ((1.0,), (1.0,)))
    tl = MeanRewardTimeline(8, ((0.3, 0.7),), (ChangeEvent(5, 0, 0, 0.9),))
    bench = stable_benchmarks(tl, market)
    # Single player: both benchmarks are just the argmax arm.
    assert [o.assignment[0] for o, _ in bench] == [1] * 4 + [0] * 4
    assert [p.assignment[0] for _, p in bench] == [1] * 4 + [0] * 4


def test_benchmarks_are_stable_each_round():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        market = MarketInstance(
            n, n, tuple(tuple(float(v) for v in rng.permutation(n)) for _ in range(n))
        )
        means = tuple(tuple(float(v) for v in (rng.permutation(n) + 1) / (n + 1)) for _ in range(n))
        tl = MeanRewardTimeline(6, means)
        for t, (opt, pess) in enumerate(stable_benchmarks(tl, market), start=1):
            orderings = true_orderings(means_at(tl, t))
            assert not blocking_pairs(opt, orderings, market)
            assert not blocking_pairs(pess, orderings, market)


def test_benchmarks_reject_dimension_mismatch():
    market = MarketInstance(1, 2, ((1.0,), (1.0,)))
    with pytest.raises(InputError):
        stable_benchmarks(flat_timeline(), market)
