"""Two-sided matching markets: deferred acceptance, stability checks, and
exhaustive enumeration oracles for small instances.

Players are indexed 0..N-1 and arms 0..K-1 with K >= N. Arms hold fixed,
strict utilities over players; players submit rank orderings over arms.
A matching assigns every player an arm, injectively, so arms may stay
unmatched when K > N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapacityError, InputError

# Exhaustive enumeration is factorial in the market size; refuse anything
# bigger than this on either side.
ENUMERATION_LIMIT = 6


@dataclass(frozen=True)
class MarketInstance:
    """Static market skeleton: sizes and the arms' utilities over players.

    ``arm_utilities[j][i]`` is the utility arm j derives from player i.
    Within each arm the utilities must be pairwise distinct so that arm
    preferences are strict.
    """

    n_players: int
    n_arms: int
    arm_utilities: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if self.n_players < 1:
            raise InputError("market requires at least one player")
        if self.n_arms < self.n_players:
            raise InputError("market requires K >= N")
        if len(self.arm_utilities) != self.n_arms:
            raise InputError(
                f"expected {self.n_arms} arm utility vectors, got {len(self.arm_utilities)}"
            )
        normalized = []
        for j, row in enumerate(self.arm_utilities):
            row = tuple(float(v) for v in row)
            if len(row) != self.n_players:
                raise InputError(
                    f"arm {j}: utility vector has length {len(row)}, expected {self.n_players}"
                )
            if len(set(row)) != len(row):
                raise InputError(f"arm {j}: utilities over players must be distinct")
            normalized.append(row)
        object.__setattr__(self, "arm_utilities", tuple(normalized))

    def arm_prefers(self, arm: int, player: int, other: int) -> bool:
        """True if ``arm`` strictly prefers ``player`` over ``other``."""
        util = self.arm_utilities[arm]
        return util[player] > util[other]


@dataclass(frozen=True)
class RankOrdering:
    """A player's submitted preference: ``ranks[0]`` is the favourite arm."""

    owner: int
    ranks: tuple[int, ...]

    def __post_init__(self):
        ranks = tuple(int(r) for r in self.ranks)
        if sorted(ranks) != list(range(len(ranks))):
            raise InputError(f"player {self.owner}: ranks must be a permutation of arm indices")
        object.__setattr__(self, "ranks", ranks)

    def position_of(self, arm: int) -> int:
        """0-based position of ``arm``; smaller means more preferred."""
        return self.ranks.index(arm)


@dataclass(frozen=True)
class Matching:
    """Injective assignment ``player -> arm``, total over players."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        assignment = tuple(int(a) for a in self.assignment)
        if len(set(assignment)) != len(assignment):
            raise InputError("matching must be injective")
        object.__setattr__(self, "assignment", assignment)


@dataclass(frozen=True)
class BlockingTriplet:
    """Player ``player`` holds ``matched_arm`` but forms a blocking pair
    with ``preferred_arm``."""

    player: int
    preferred_arm: int
    matched_arm: int

    def __post_init__(self):
        if self.preferred_arm == self.matched_arm:
            raise InputError("a blocking triplet needs two distinct arms")


def _check_orderings(player_orderings: Sequence[RankOrdering], market: MarketInstance) -> None:
    if len(player_orderings) != market.n_players:
        raise InputError(
            f"expected {market.n_players} rank orderings, got {len(player_orderings)}"
        )
    for i, ordering in enumerate(player_orderings):
        if len(ordering.ranks) != market.n_arms:
            raise InputError(f"ordering for player {i} covers {len(ordering.ranks)} arms, "
                             f"expected {market.n_arms}")


def _check_size_guard(market: MarketInstance) -> None:
    if market.n_players > ENUMERATION_LIMIT or market.n_arms > ENUMERATION_LIMIT:
        raise CapacityError(
            f"enumeration limited to {ENUMERATION_LIMIT}x{ENUMERATION_LIMIT} markets "
            f"(got {market.n_players}x{market.n_arms})"
        )


def deferred_acceptance(
    player_orderings: Sequence[RankOrdering],
    market: MarketInstance,
    proposing_side: str = "players",
) -> Matching:
    """Gale-Shapley deferred acceptance for the submitted orderings.

    ``proposing_side="players"`` yields the player-optimal stable matching,
    ``proposing_side="arms"`` the player-pessimal one (both with respect to
    the submitted orderings and the market's arm utilities).
    """
    _check_orderings(player_orderings, market)
    if proposing_side == "players":
        rankings = [o.ranks for o in player_orderings]
        return Matching(tuple(player_proposing_da(rankings, market.arm_utilities)))
    if proposing_side == "arms":
        # Roles swapped: arms propose down their utilities and players accept
        # by their rankings. K - N dummy players, ranked last by every arm
        # and indifferent among arms, absorb the arms left unmatched.
        n, k = market.n_players, market.n_arms
        arm_rankings = [sorted(range(n), key=lambda p: -u[p]) + list(range(n, k))
                        for u in market.arm_utilities]
        player_utilities = [{arm: -pos for pos, arm in enumerate(o.ranks)}
                            for o in player_orderings] + [[0] * k] * (k - n)
        holders = player_proposing_da(arm_rankings, player_utilities)
        return Matching(tuple(holders.index(p) for p in range(n)))
    raise InputError(f"unknown proposing side {proposing_side!r}")


def player_proposing_da(
    rankings: Sequence[Sequence[int]],
    arm_utilities: Sequence[Sequence[float]],
) -> list[int]:
    """Player-optimal stable matching as ``assignment[player] = arm``.

    ``rankings[p]`` lists player p's arms from most to least preferred and
    ``arm_utilities[j][p]`` is arm j's utility for player p; inputs are not
    validated. A rejected player proposes again at once; the outcome does
    not depend on the proposal order. A player's arm is its last accepted
    proposal: a displaced player proposes again until it is held.
    """
    next_choice = [0] * len(rankings)  # where a held player resumes if displaced
    holder = [-1] * len(arm_utilities)  # arm -> player currently held
    assignment = [-1] * len(rankings)
    for p, ranks in enumerate(rankings):
        choice = 0
        while True:
            arm = ranks[choice]
            choice += 1
            occupant = holder[arm]
            if occupant < 0:
                holder[arm], assignment[p], next_choice[p] = p, arm, choice
                break
            utility = arm_utilities[arm]
            if utility[p] > utility[occupant]:
                holder[arm], assignment[p], next_choice[p] = p, arm, choice
                # The displaced player proposes next, from where it stopped.
                p, ranks, choice = occupant, rankings[occupant], next_choice[occupant]
    return assignment


def blocking_pairs(
    m: Matching,
    player_orderings: Sequence[RankOrdering],
    market: MarketInstance,
) -> list[BlockingTriplet]:
    """All blocking triplets (player, preferred arm, held arm) of ``m``.

    A pair blocks when the player ranks the arm above its current one and
    the arm is unmatched or strictly prefers the player to its occupant.
    The result is empty iff ``m`` is stable.
    """
    _check_orderings(player_orderings, market)
    if len(m.assignment) != market.n_players:
        raise InputError("matching size does not fit the market")
    occupant = {arm: p for p, arm in enumerate(m.assignment)}
    out = []
    for p in range(market.n_players):
        held = m.assignment[p]
        for arm in player_orderings[p].ranks:
            if arm == held:
                break  # everything after is ranked below the held arm
            other = occupant.get(arm)
            if other is None or market.arm_prefers(arm, p, other):
                out.append(BlockingTriplet(p, arm, held))
    return out


def _all_matchings(market: MarketInstance) -> Iterable[Matching]:
    for combo in itertools.permutations(range(market.n_arms), market.n_players):
        yield Matching(combo)


def enumerate_stable_matchings(
    player_orderings: Sequence[RankOrdering],
    market: MarketInstance,
) -> list[Matching]:
    """All stable matchings by brute force, sorted lexicographically.

    Never empty for complete strict preference lists. Guarded by the
    enumeration size limit.
    """
    _check_size_guard(market)
    _check_orderings(player_orderings, market)
    stable = [
        m for m in _all_matchings(market)
        if not blocking_pairs(m, player_orderings, market)
    ]
    stable.sort(key=lambda m: m.assignment)
    return stable


def optimal_pessimal(
    player_orderings: Sequence[RankOrdering],
    market: MarketInstance,
) -> tuple[Matching, Matching]:
    """(player-optimal, player-pessimal) stable matchings via both DA
    orientations."""
    return (
        deferred_acceptance(player_orderings, market, "players"),
        deferred_acceptance(player_orderings, market, "arms"),
    )

