"""UCB learner state: bonus formula, restarts, and rank orderings."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from competing_bandits import InputError, UcbState
from competing_bandits.learner import ucb_ranking, ucb_values


def test_needs_at_least_one_arm():
    with pytest.raises(InputError):
        UcbState(0, 0)


def test_fresh_state_all_infinite():
    s = UcbState(0, 3)
    assert s.ucb_values() == [math.inf] * 3
    assert s.rank_ordering().ranks == (0, 1, 2)


def test_single_pull_bonus_frozen_value():
    # One pull of reward 0.5, two rounds elapsed:
    # value = 0.5 + sqrt(3 ln 2 / 2).
    s = UcbState(0, 2)
    s.begin_round()
    s.observe(0, 0.5)
    s.begin_round()
    expected = 0.5 + math.sqrt(1.5 * math.log(2.0))
    assert s.ucb_values()[0] == pytest.approx(expected, abs=1e-9)
    assert s.ucb_values()[1] == math.inf


def test_first_round_bonus_is_zero():
    # tau = 1 means ln(tau) = 0, so the bound equals the empirical mean.
    s = UcbState(0, 2)
    s.begin_round()
    s.observe(0, 0.3)
    assert s.ucb_values()[0] == pytest.approx(0.3)


def test_empirical_mean_averages_rewards():
    s = UcbState(0, 1)
    s.begin_round()
    s.observe(0, 0.2)
    s.observe(0, 0.8)
    bonus = math.sqrt(1.5 * math.log(1) / 2)
    assert s.ucb_values()[0] == pytest.approx(0.5 + bonus)


def test_observe_rejects_bad_arm():
    s = UcbState(0, 2)
    with pytest.raises(InputError):
        s.observe(2, 0.5)


# --- restart semantics --------------------------------------------------------

def test_restart_clears_everything():
    s = UcbState(0, 2)
    for _ in range(5):
        s.begin_round()
        s.observe(0, 1.0)
    s.restart()
    assert s.pull_counts == [0, 0]
    assert s.reward_sums == [0.0, 0.0]
    assert s.rounds_since_restart == 0
    assert s.ucb_values() == [math.inf, math.inf]


_observations = st.integers(1, 6).flatmap(lambda k: st.tuples(st.just(k), st.lists(
    st.tuples(st.booleans(), st.integers(0, k - 1), st.floats(-10, 10)), max_size=30)))


@given(_observations)
def test_restart_is_idempotent(case):
    """After any sequence of rounds and pulls, one restart gives the fresh
    state and a second restart changes nothing."""
    n_arms, steps = case
    s = UcbState(0, n_arms)
    for new_round, arm, reward in steps:
        if new_round:
            s.begin_round()
        s.observe(arm, reward)
    s.restart()
    snapshot = (list(s.pull_counts), list(s.reward_sums), s.rounds_since_restart)
    assert snapshot == ([0] * n_arms, [0.0] * n_arms, 0)
    s.restart()
    assert (list(s.pull_counts), list(s.reward_sums), s.rounds_since_restart) == snapshot


def test_state_after_restart_matches_fresh_state():
    rng = np.random.default_rng(0)
    used = UcbState(0, 3)
    for _ in range(20):
        used.begin_round()
        used.observe(int(rng.integers(3)), float(rng.uniform()))
    used.restart()
    fresh = UcbState(0, 3)
    assert used.pull_counts == fresh.pull_counts
    assert used.reward_sums == fresh.reward_sums
    assert used.ucb_values() == fresh.ucb_values()


# --- rank orderings -------------------------------------------------------------

def test_ranking_follows_ucb_values():
    s = UcbState(2, 3)
    s.begin_round()  # tau = 1 keeps the bonus at zero
    for arm, reward in ((0, 0.2), (1, 0.9), (2, 0.5)):
        s.observe(arm, reward)
    o = s.rank_ordering()
    assert o.owner == 2
    assert o.ranks == (1, 2, 0)


def test_unexplored_arms_rank_first():
    s = UcbState(0, 3)
    s.begin_round()
    s.observe(1, 100.0)  # finite, so still below the two infinite arms
    assert s.rank_ordering().ranks == (0, 2, 1)


def test_ties_break_by_ascending_index():
    s = UcbState(0, 3)
    s.begin_round()
    for arm in (0, 1, 2):
        s.observe(arm, 0.5)
    assert s.rank_ordering().ranks == (0, 1, 2)


def test_ranking_matches_argsort_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = UcbState(0, 4)
        for _ in range(int(rng.integers(1, 12))):
            s.begin_round()
            s.observe(int(rng.integers(4)), float(rng.normal()))
        values = s.ucb_values()
        oracle = sorted(range(4), key=lambda j: (-values[j], j))
        assert list(s.rank_ordering().ranks) == oracle


# --- bonus monotonicity -----------------------------------------------------------

def test_bonus_decreases_with_pull_count():
    previous = math.inf
    for count in (1, 2, 4, 8, 16):
        s = UcbState(0, 1)
        for _ in range(count):
            s.observe(0, 0.0)
        s.rounds_since_restart = 10
        value = s.ucb_values()[0]
        assert value < previous
        previous = value


def test_bonus_increases_with_elapsed_rounds():
    previous = -math.inf
    for tau in (1, 2, 5, 20, 100):
        s = UcbState(0, 1)
        s.observe(0, 0.0)
        s.rounds_since_restart = tau
        value = s.ucb_values()[0]
        assert value > previous
        previous = value


def test_replay_is_deterministic():
    def run():
        rng = np.random.default_rng(9)
        s = UcbState(0, 3)
        values = []
        for _ in range(30):
            s.begin_round()
            s.observe(int(rng.integers(3)), float(rng.normal()))
            values.append(tuple(s.ucb_values()))
        return values

    assert run() == run()


# --- array formula and ranking (properties) -------------------------------------

# Rows mixing exact ties, signed zeros and infinities with arbitrary floats.
_value = st.sampled_from([math.inf, -math.inf, 0.0, -0.0, 0.5, -1.0]) | st.floats(allow_nan=False)
_value_matrix = st.integers(1, 7).flatmap(
    lambda k: st.lists(st.lists(_value, min_size=k, max_size=k), min_size=1, max_size=5))


@given(_value_matrix)
def test_array_ranking_matches_keyed_sort(rows):
    ranks = ucb_ranking(np.array(rows)).tolist()
    for values, ranked in zip(rows, ranks):
        assert ranked == sorted(range(len(values)), key=lambda j: (-values[j], j))


_stats = st.integers(1, 7).flatmap(lambda k: st.lists(
    st.lists(st.tuples(st.integers(0, 4), st.floats(-10, 10)), min_size=k, max_size=k),
    min_size=1, max_size=5))


@given(_stats, st.integers(1, 60))
def test_ranking_is_permutation_with_unexplored_arms_first(rows, tau):
    counts = np.array([[c for c, _ in row] for row in rows])
    sums = np.array([[c * mean for c, mean in row] for row in rows])
    ranks = ucb_ranking(ucb_values(counts, sums, tau)).tolist()
    for row_counts, ranked in zip(counts.tolist(), ranks):
        assert sorted(ranked) == list(range(len(row_counts)))
        unexplored = [j for j, c in enumerate(row_counts) if c == 0]
        assert ranked[:len(unexplored)] == unexplored


@given(st.integers(1, 4), st.integers(1, 6), st.data())
def test_ucb_state_matches_array_row(n_players, n_arms, data):
    """Per-player states and the (N, K) arrays the engine keeps, fed the same
    pulls, give the scalar formula's values bit for bit and the same
    rankings."""
    states = [UcbState(i, n_arms) for i in range(n_players)]
    counts = np.zeros((n_players, n_arms), dtype=np.int64)
    sums = np.zeros((n_players, n_arms))
    rounds = data.draw(st.integers(0, 12))
    for _ in range(rounds):
        for s in states:
            s.begin_round()
        for i, s in enumerate(states):
            arm = data.draw(st.integers(0, n_arms - 1))
            reward = data.draw(st.floats(-5, 5))
            s.observe(arm, reward)
            counts[i, arm] += 1
            sums[i, arm] += reward
    values = ucb_values(counts, sums, rounds)
    ranks = ucb_ranking(values).tolist()
    log_tau = math.log(max(rounds, 1))
    for i, s in enumerate(states):
        # Scalar reference formula, evaluated in the same order.
        reference = [math.inf if c == 0 else total / c + math.sqrt(1.5 * log_tau / c)
                     for c, total in zip(s.pull_counts, s.reward_sums)]
        assert values[i].tolist() == reference
        assert s.ucb_values() == reference
        assert list(s.rank_ordering().ranks) == ranks[i]
