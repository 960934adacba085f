"""Stable matching core: deferred acceptance against brute-force oracles."""

import itertools

import numpy as np
import pytest

from competing_bandits import (
    BlockingTriplet,
    CapacityError,
    InputError,
    MarketInstance,
    Matching,
    RankOrdering,
    blocked_set,
    blocking_pairs,
    deferred_acceptance,
    enumerate_stable_matchings,
    is_cover,
    optimal_pessimal,
    valid_partners,
)
from competing_bandits.market import all_triplets


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


def random_instance(n, k, rng):
    market = MarketInstance(
        n, k, tuple(tuple(float(v) for v in rng.permutation(n)) for _ in range(k))
    )
    orderings = [
        RankOrdering(i, tuple(int(a) for a in rng.permutation(k))) for i in range(n)
    ]
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


def test_rank_ordering_rejects_non_permutation():
    with pytest.raises(InputError):
        RankOrdering(0, (0, 0, 1))


def test_matching_rejects_duplicate_arm():
    with pytest.raises(InputError):
        Matching((1, 1))


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
    market, orderings = random_instance(3, 3, rng)
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
    market, orderings = random_instance(7, 7, rng)
    with pytest.raises(CapacityError):
        enumerate_stable_matchings(orderings, market)


def test_enumeration_never_empty_and_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        market, orderings = random_instance(n, n, rng)
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
        market, orderings = random_instance(n, n, rng)
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
        market, orderings = random_instance(n, k, rng)
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
        market, orderings = random_instance(n, k, rng)
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
