"""UCB learners with restart semantics.

State is the pull count and reward sum per arm, in arrays whose last axis
is the arms (the engine keeps one (N, K) row per player, ``UcbState`` a
single row), plus the number of rounds elapsed since the last restart. The
confidence bonus uses the natural log of that round count, so the first
decision round after a restart carries a zero bonus (all arms are
unexplored there anyway and rank as infinite).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .market import RankOrdering


def ucb_values(pull_counts: np.ndarray, reward_sums: np.ndarray, tau: int) -> np.ndarray:
    """Upper confidence bound per arm; unexplored arms are +inf.

    Explored arms get empirical mean + sqrt(3 ln(tau) / (2 count)), with
    tau the rounds elapsed in the current block (at least 1).
    """
    log_tau = math.log(max(tau, 1))
    counts = np.maximum(pull_counts, 1)  # unexplored entries are overwritten below
    values = reward_sums / counts
    values += np.sqrt(1.5 * log_tau / counts)
    values[pull_counts == 0] = math.inf
    return values


def ucb_ranking(values: np.ndarray) -> np.ndarray:
    """Arms sorted by descending value, ties broken by ascending index."""
    return (-values).argsort(axis=-1, kind="stable")


class UcbState:
    """Pull counts, reward sums and restart bookkeeping for one player."""

    __slots__ = ("owner", "n_arms", "pull_counts", "reward_sums", "rounds_since_restart")

    def __init__(self, owner: int, n_arms: int):
        if n_arms < 1:
            raise InputError("learner needs at least one arm")
        self.owner = owner
        self.n_arms = n_arms
        self.pull_counts = [0] * n_arms
        self.reward_sums = [0.0] * n_arms
        self.rounds_since_restart = 0

    def restart(self) -> None:
        """Zero all statistics. Idempotent."""
        self.pull_counts[:] = [0] * self.n_arms
        self.reward_sums[:] = [0.0] * self.n_arms
        self.rounds_since_restart = 0

    def begin_round(self) -> None:
        """Advance the block-local round counter; call once before each
        decision."""
        self.rounds_since_restart += 1

    def observe(self, arm: int, reward: float) -> None:
        """Record one pulled-arm reward."""
        if not (0 <= arm < self.n_arms):
            raise InputError(f"arm index {arm} out of range")
        self.pull_counts[arm] += 1
        self.reward_sums[arm] += reward

    def ucb_values(self) -> list[float]:
        """The module's ``ucb_values`` on this player's row."""
        return ucb_values(np.array(self.pull_counts), np.array(self.reward_sums, dtype=float),
                          self.rounds_since_restart).tolist()

    def rank_ordering(self) -> RankOrdering:
        """The module's ``ucb_ranking`` on this player's row."""
        return RankOrdering(self.owner, tuple(ucb_ranking(np.array(self.ucb_values())).tolist()))
