"""Stable matching core: deferred acceptance against brute-force oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from competing_bandits import (
    BlockingTriplet,
    CapacityError,
    InputError,
    MarketInstance,
    Matching,
    RankOrdering,
    blocking_pairs,
    deferred_acceptance,
    enumerate_stable_matchings,
    optimal_pessimal,
)
from competing_bandits import market as market_module
from competing_bandits.cli import random_market_and_orderings
from competing_bandits.market import player_proposing_da
from market_oracle import (all_triplets, blocked_set, is_cover, player_proposing_da_reference,
                           valid_partners)


def ordering(owner, *ranks):
    return RankOrdering(owner, tuple(ranks))


# --- fixed small instances -------------------------------------------------

def aligned_2x2():
    """Fully aligned preferences: unique stable matching p0->a0, p1->a1."""
    market = MarketInstance(2, 2, ((2.0, 1.0), (1.0, 2.0)))
    orderings = [ordering(0, 0, 1), ordering(1, 1, 0)]
    return market, orderings


def conflict_2x2():
    """Both players want a0; both arms prefer p0."""
    market = MarketInstance(2, 2, ((2.0, 1.0), (2.0, 1.0)))
    orderings = [ordering(0, 0, 1), ordering(1, 0, 1)]
    return market, orderings


def multistable_2x2():
    """Players want different arms than the arms want: two stable matchings."""
    market = MarketInstance(2, 2, ((1.0, 2.0), (2.0, 1.0)))
    orderings = [ordering(0, 0, 1), ordering(1, 1, 0)]
    return market, orderings


def brute_force_stable(orderings, market):
    """Independent stability check straight from the blocking-pair
    definition, used as the oracle for the library's own routines."""
    stable = []
    for combo in itertools.permutations(range(market.n_arms), market.n_players):
        holder = {arm: p for p, arm in enumerate(combo)}
        blocked = False
        for p in range(market.n_players):
            my_pos = orderings[p].ranks.index(combo[p])
            for pos in range(my_pos):
                arm = orderings[p].ranks[pos]
                occ = holder.get(arm)
                if occ is None or market.arm_utilities[arm][p] > market.arm_utilities[arm][occ]:
                    blocked = True
                    break
            if blocked:
                break
        if not blocked:
            stable.append(combo)
    return sorted(stable)


# --- construction invariants -----------------------------------------------

def test_market_rejects_k_smaller_than_n():
    with pytest.raises(InputError):
        MarketInstance(3, 2, ((1.0, 2.0, 3.0), (3.0, 1.0, 2.0)))


def test_market_rejects_duplicate_arm_utilities():
    with pytest.raises(InputError):
        MarketInstance(2, 2, ((1.0, 1.0), (1.0, 2.0)))


@pytest.mark.parametrize("field, sizes", [("n_players", (2.0, 2)), ("n_arms", (2, 2.0))])
def test_market_rejects_non_integer_sizes(field, sizes):
    with pytest.raises(InputError, match=f"{field}: expected an integer"):
        MarketInstance(*sizes, ((1.0, 2.0), (2.0, 1.0)))
    assert MarketInstance(np.int64(2), np.int32(2), ((1.0, 2.0), (2.0, 1.0))).n_arms == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_market_rejects_non_finite_utilities(bad):
    """A nan compares neither above nor below any utility, so arm-proposing
    DA would return a matching that is not the player-pessimal one."""
    with pytest.raises(InputError, match="arm 1: utilities must be finite"):
        MarketInstance(2, 2, ((2.0, 1.0), (bad, 1.0)))


def test_rank_ordering_rejects_non_permutation():
    with pytest.raises(InputError):
        RankOrdering(0, (0, 0, 1))
    # Entries are not truncated: (0.9, 1.5) would read as (0, 1), (True, False) as (1, 0).
    for ranks in ((0.9, 1.5), (True, False)):
        with pytest.raises(InputError, match="expected an integer") as err:
            RankOrdering(0, ranks)
        assert err.value.field == "ranks"
    ranks = RankOrdering(0, np.array([1, 0])).ranks  # numpy integers become ints
    assert ranks == (1, 0) and all(type(r) is int for r in ranks)


def test_matching_rejects_duplicate_arm():
    with pytest.raises(InputError):
        Matching((1, 1))
    # (0.7, 1.2) would read as (0, 1).
    for assignment in ((0.7, 1.2), (False, True)):
        with pytest.raises(InputError, match="expected an integer") as err:
            Matching(assignment)
        assert err.value.field == "assignment"
    assignment = Matching(np.array([1, 0])).assignment
    assert assignment == (1, 0) and all(type(a) is int for a in assignment)


def test_blocking_triplet_rejects_equal_arms():
    with pytest.raises(InputError):
        BlockingTriplet(0, 1, 1)


# --- deferred acceptance ---------------------------------------------------

def test_da_aligned_assortative():
    market, orderings = aligned_2x2()
    assert deferred_acceptance(orderings, market).assignment == (0, 1)


def test_da_conflict_brute_forced():
    # Oracle: of the two possible matchings, only (0, 1) has no blocking pair.
    market, orderings = conflict_2x2()
    assert brute_force_stable(orderings, market) == [(0, 1)]
    assert deferred_acceptance(orderings, market, "players").assignment == (0, 1)
    assert deferred_acceptance(orderings, market, "arms").assignment == (0, 1)


def test_da_3x3_matches_enumeration_optimum():
    rng = np.random.default_rng(0)
    market, orderings = random_market_and_orderings(3, 3, rng)
    stable = enumerate_stable_matchings(orderings, market)
    da = deferred_acceptance(orderings, market, "players")
    assert da in stable
    for p in range(3):
        best = min(
            (m.assignment[p] for m in stable), key=orderings[p].position_of
        )
        assert da.assignment[p] == best


def test_da_rejects_dimension_mismatch():
    market, orderings = aligned_2x2()
    with pytest.raises(InputError):
        deferred_acceptance(orderings[:1], market)
    with pytest.raises(InputError):
        deferred_acceptance([ordering(0, 0, 1, 2), ordering(1, 0, 1, 2)], market)


def test_da_rejects_unknown_side():
    market, orderings = aligned_2x2()
    with pytest.raises(InputError):
        deferred_acceptance(orderings, market, "platform")


# --- blocking pairs ----------------------------------------------------------

def test_da_output_has_no_blocking_pairs():
    market, orderings = conflict_2x2()
    m = deferred_acceptance(orderings, market)
    assert blocking_pairs(m, orderings, market) == []


class LoggedRanking(list):
    """A ranking that logs each entry read: DA reads one per proposal."""

    def __init__(self, owner, arms, log):
        super().__init__(arms)
        self.owner, self.log = owner, log

    def __getitem__(self, position):
        self.log.append((self.owner, position))
        return super().__getitem__(position)


def logged_da(da, rankings, utilities):
    """``da``'s result and the (proposer, position) of every proposal."""
    log = []
    result = da([LoggedRanking(p, ranks, log) for p, ranks in enumerate(rankings)], utilities)
    return result, log


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_da_matches_reference_da(data):
    """The DA the loop calls makes the plain reference's proposals, in the
    same order, and returns its result, on random strict markets with
    N <= K <= 25 in both call shapes: player-proposing with float
    utilities, and the arm-proposing shape of ``deferred_acceptance`` (dict
    utilities, K - N indifferent dummy players)."""
    n = data.draw(st.integers(1, 25), label="N")
    k = data.draw(st.integers(n, 25), label="K")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    rankings = [rng.permutation(k).tolist() for _ in range(n)]
    utilities = [rng.permutation(n).astype(float).tolist() for _ in range(k)]
    arm_rankings = [sorted(range(n), key=lambda p: -u[p]) + list(range(n, k)) for u in utilities]
    player_utilities = [{arm: -pos for pos, arm in enumerate(ranks)}
                        for ranks in rankings] + [[0] * k] * (k - n)
    for shape in ((rankings, utilities), (arm_rankings, player_utilities)):
        assert logged_da(player_proposing_da, *shape) == logged_da(
            player_proposing_da_reference, *shape)
    holders = player_proposing_da(arm_rankings, player_utilities)
    market = MarketInstance(n, k, tuple(map(tuple, utilities)))
    orderings = [RankOrdering(i, tuple(ranks)) for i, ranks in enumerate(rankings)]
    assert deferred_acceptance(orderings, market, "arms").assignment == tuple(
        holders.index(p) for p in range(n))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_da_on_disjoint_union_clears_each_market(data):
    """DA on S random N x K markets joined into one with disjoint arm blocks
    (arm a of market s becomes arm s * K + a, its utility row market s's
    row of arm a repeated S times) returns each market's own DA assignment
    offset by s * K. The engine clears a batch of seeds with one call this
    way."""
    n = data.draw(st.integers(1, 6), label="N")
    k = data.draw(st.integers(n, 6), label="K")
    n_markets = data.draw(st.integers(1, 8), label="S")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    markets = [([rng.permutation(k).tolist() for _ in range(n)],
                [rng.permutation(n).astype(float).tolist() for _ in range(k)])
               for _ in range(n_markets)]
    union_rankings = [[a + s * k for a in ranks]
                      for s, (rankings, _) in enumerate(markets) for ranks in rankings]
    union = player_proposing_da(union_rankings,
                                [row * n_markets for _, utilities in markets for row in utilities])
    for s, (rankings, utilities) in enumerate(markets):
        own = player_proposing_da(rankings, utilities)
        assert union[s * n:(s + 1) * n] == [a + s * k for a in own], f"market {s} of {n_markets}"


def test_blocking_pair_reported_in_swapped_conflict():
    market, orderings = conflict_2x2()
    m = Matching((1, 0))  # p0 holds a1 while preferring a0, which prefers p0
    assert BlockingTriplet(0, 0, 1) in blocking_pairs(m, orderings, market)


def test_unmatched_arm_blocks():
    # K > N: a2 is unmatched, p0 prefers it over its assignment.
    market = MarketInstance(2, 3, ((2.0, 1.0), (1.0, 2.0), (2.0, 1.0)))
    orderings = [ordering(0, 2, 0, 1), ordering(1, 1, 0, 2)]
    m = Matching((0, 1))
    assert BlockingTriplet(0, 2, 0) in blocking_pairs(m, orderings, market)


# --- enumeration -------------------------------------------------------------

def test_enumeration_aligned_unique():
    market, orderings = aligned_2x2()
    assert [m.assignment for m in enumerate_stable_matchings(orderings, market)] == [(0, 1)]


def test_enumeration_contains_both_da_outputs():
    market, orderings = multistable_2x2()
    stable = enumerate_stable_matchings(orderings, market)
    assert len(stable) >= 2
    assert deferred_acceptance(orderings, market, "players") in stable
    assert deferred_acceptance(orderings, market, "arms") in stable


def test_enumeration_trivial_market():
    market = MarketInstance(1, 1, ((1.0,),))
    stable = enumerate_stable_matchings([ordering(0, 0)], market)
    assert [m.assignment for m in stable] == [(0,)]


def test_enumeration_size_guard():
    rng = np.random.default_rng(1)
    market, orderings = random_market_and_orderings(7, 7, rng)
    with pytest.raises(CapacityError):
        enumerate_stable_matchings(orderings, market)


def test_enumeration_never_empty_and_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        market, orderings = random_market_and_orderings(n, n, rng)
        stable = enumerate_stable_matchings(orderings, market)
        assert stable
        assert [m.assignment for m in stable] == brute_force_stable(orderings, market)


# --- valid partners / optimal-pessimal --------------------------------------

def test_valid_partners_aligned():
    market, orderings = aligned_2x2()
    assert valid_partners(0, orderings, market) == {0}


def test_valid_partners_multistable():
    market, orderings = multistable_2x2()
    assert valid_partners(0, orderings, market) == {0, 1}


def test_valid_partners_single_player():
    market = MarketInstance(1, 2, ((1.0,), (2.0,)))
    assert valid_partners(0, [ordering(0, 1, 0)], market) == {1}


def test_optimal_pessimal_aligned_coincide():
    market, orderings = aligned_2x2()
    opt, pess = optimal_pessimal(orderings, market)
    assert opt.assignment == pess.assignment == (0, 1)


def test_optimal_pessimal_multistable_bracket_enumeration():
    market, orderings = multistable_2x2()
    opt, pess = optimal_pessimal(orderings, market)
    stable = enumerate_stable_matchings(orderings, market)
    assert opt != pess
    assert opt in stable and pess in stable


def test_optimal_never_worse_than_pessimal():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        market, orderings = random_market_and_orderings(n, n, rng)
        opt, pess = optimal_pessimal(orderings, market)
        for p in range(n):
            assert (
                orderings[p].position_of(opt.assignment[p])
                <= orderings[p].position_of(pess.assignment[p])
            )


def test_da_orientations_match_enumeration_extremes():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(n, 6))
        market, orderings = random_market_and_orderings(n, k, rng)
        stable = enumerate_stable_matchings(orderings, market)
        opt, pess = optimal_pessimal(orderings, market)
        for p in range(n):
            options = {m.assignment[p] for m in stable}
            assert opt.assignment[p] == min(options, key=orderings[p].position_of)
            assert pess.assignment[p] == max(options, key=orderings[p].position_of)
        assert not blocking_pairs(opt, orderings, market)
        assert not blocking_pairs(pess, orderings, market)


# --- blocked sets and covers -------------------------------------------------

def test_blocked_set_empty_when_preference_inverted():
    market, orderings = conflict_2x2()
    # p0 ranks a0 above a1, so a triplet claiming a1 blocks while holding a0
    # can never block anything.
    assert blocked_set(BlockingTriplet(0, 1, 0), orderings, market) == []


def test_blocked_set_conflict_instance():
    market, orderings = conflict_2x2()
    blocked = blocked_set(BlockingTriplet(0, 0, 1), orderings, market)
    assert [m.assignment for m in blocked] == [(1, 0)]


def test_blocked_sets_union_is_exactly_the_unstable_matchings():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(n, 5))
        market, orderings = random_market_and_orderings(n, k, rng)
        unstable = {
            combo
            for combo in itertools.permutations(range(k), n)
            if blocking_pairs(Matching(combo), orderings, market)
        }
        union = set()
        for q in all_triplets(market):
            union.update(m.assignment for m in blocked_set(q, orderings, market))
        assert union == unstable


def test_is_cover_all_triplets_cover_unstable():
    market, orderings = conflict_2x2()
    unstable = [Matching((1, 0))]
    assert is_cover(all_triplets(market), unstable, orderings, market)


def test_is_cover_empty_triplets():
    market, orderings = conflict_2x2()
    assert not is_cover([], [Matching((1, 0))], orderings, market)


def test_is_cover_single_triplet_suffices():
    market, orderings = conflict_2x2()
    assert is_cover([BlockingTriplet(0, 0, 1)], [Matching((1, 0))], orderings, market)


def test_enumeration_checks_the_orderings_once(monkeypatch):
    """The orderings are checked once per enumeration, not once for each of
    the 720 candidate matchings of a 6x6 market."""
    calls = []
    check = market_module._check_orderings
    monkeypatch.setattr(market_module, "_check_orderings",
                        lambda *args: calls.append(args) or check(*args))
    market, orderings = random_market_and_orderings(6, 6, np.random.default_rng(0))
    assert enumerate_stable_matchings(orderings, market)
    assert len(calls) == 1
