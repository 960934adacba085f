"""Matching oracles: brute-force ones from the regret analysis of
centralized UCB + DA (valid partners, blocked sets of blocking triplets and
covers) and a textbook deferred acceptance.

No simulation path calls them; the market tests keep them as reference
implementations. The brute-force ones are factorial in the market size and
share the library's enumeration size limit.
"""

from competing_bandits.market import (BlockingTriplet, _all_matchings, _check_orderings,
                                      _check_size_guard, enumerate_stable_matchings)


def valid_partners(player, player_orderings, market):
    """Arms the player receives in at least one stable matching."""
    return {
        m.assignment[player]
        for m in enumerate_stable_matchings(player_orderings, market)
    }


def blocked_set(triplet, player_orderings, market):
    """All matchings where the triplet's player holds ``matched_arm`` and
    (player, preferred_arm) is a blocking pair."""
    _check_size_guard(market)
    _check_orderings(player_orderings, market)
    ordering = player_orderings[triplet.player]
    if ordering.position_of(triplet.preferred_arm) > ordering.position_of(triplet.matched_arm):
        return []  # blocking requires the preferred arm to outrank the held one
    out = []
    for m in _all_matchings(market):
        if m.assignment[triplet.player] != triplet.matched_arm:
            continue
        if (triplet.preferred_arm not in m.assignment
                or market.arm_prefers(triplet.preferred_arm, triplet.player,
                                      m.assignment.index(triplet.preferred_arm))):
            out.append(m)
    out.sort(key=lambda m: m.assignment)
    return out


def is_cover(triplets, target, player_orderings, market):
    """True iff the union of the triplets' blocked sets contains ``target``."""
    covered = set()
    for q in triplets:
        covered.update(m.assignment for m in blocked_set(q, player_orderings, market))
    return all(m.assignment in covered for m in target)


def all_triplets(market):
    """Every syntactically valid blocking triplet of the market."""
    return [
        BlockingTriplet(p, k, k2)
        for p in range(market.n_players)
        for k in range(market.n_arms)
        for k2 in range(market.n_arms)
        if k != k2
    ]


def player_proposing_da_reference(rankings, arm_utilities):
    """Player-proposing deferred acceptance kept in its plain form: every
    proposal reads and bumps the proposer's ``next_choice``. Same contract
    as ``market.player_proposing_da``."""
    next_choice = [0] * len(rankings)
    holder = [-1] * len(arm_utilities)  # arm -> player currently held
    for p in range(len(rankings)):
        while p >= 0:
            choice = next_choice[p]
            next_choice[p] = choice + 1
            arm = rankings[p][choice]
            occupant = holder[arm]
            if occupant < 0:
                holder[arm] = p
                break
            utility = arm_utilities[arm]
            if utility[p] > utility[occupant]:
                holder[arm] = p
                p = occupant  # the displaced player proposes next
    assignment = [-1] * len(rankings)
    for arm, p in enumerate(holder):
        if p >= 0:
            assignment[p] = arm
    return assignment
