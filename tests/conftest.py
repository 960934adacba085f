"""Shared test fixtures."""

import pytest

from competing_bandits import UcbState
from trace_oracle import schedule_columns


@pytest.fixture
def submitted_orderings():
    """``submitted_orderings(trace, n_arms)`` yields, round by round, the
    ``RankOrdering``s the players of ``trace`` submitted, rebuilt with one
    reference ``UcbState`` per player fed the trace's restart schedule,
    matched arms and sampled rewards."""

    def replay(trace, n_arms):
        learners = [UcbState(i, n_arms) for i in range(trace.n_players)]
        _, restart_flags, _, _ = schedule_columns(trace)
        for flag, arms, rewards in zip(restart_flags, trace.matchings.tolist(),
                                       trace.rewards.tolist()):
            for learner in learners:
                if flag:
                    learner.restart()
                learner.begin_round()
            yield [learner.rank_ordering() for learner in learners]
            for learner, arm, reward in zip(learners, arms, rewards):
                learner.observe(arm, reward)

    return replay
