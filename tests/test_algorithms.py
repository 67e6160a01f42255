from dataclasses import dataclass
from typing import Callable

import pytest

from auctionlab import (
    EMPTY,
    AllocationRule,
    Declaration,
    SizeError,
    greedy_allocate,
    greedy_rule,
    optimal_allocation,
    optimal_welfare,
    partition_rule,
    two_tier_rule,
)
from auctionlab import algorithms
from auctionlab.core import Profile, declared_welfare, single_minded
from auctionlab.dynamics import seeded_rng
from auctionlab.generate import random_profile, random_types

from conftest import A, B, C, D


def naive_optimal(bids, n_agents, cap=None):
    """Exhaustive assignment search, no memoization; mirrors the oracle's
    option order so tie-breaking matches too."""
    options = [[] for _ in range(n_agents)]
    for agent, mask, value in bids:
        if mask and value > 0 and (cap is None or mask.bit_count() <= cap):
            options[agent].append((mask, value))
    for opts in options:
        opts.sort(key=lambda o: (o[0].bit_count(), o[0]))

    def rec(i, used):
        if i == n_agents:
            return 0, []
        best_w, best_rest = rec(i + 1, used)
        best_choice = 0
        for mask, value in options[i]:
            if not mask & used:
                w, rest = rec(i + 1, used | mask)
                if value + w > best_w:
                    best_w, best_choice, best_rest = value + w, mask, rest
        return best_w, [best_choice] + best_rest

    w, alloc = rec(0, 0)
    return tuple(alloc), w


class TestGreedy:
    def test_cycle_start_state(self, cycle_types):
        profile = (
            Declaration(D, 6),
            Declaration(B | C, 5),
            Declaration(C, 4),
            Declaration(D, 5),
        )
        assert greedy_allocate(profile, 2) == (D, B | C, 0, 0)

    def test_all_empty(self):
        assert greedy_allocate((EMPTY, EMPTY), 2) == (0, 0)

    def test_single_bidder(self):
        assert greedy_allocate((Declaration(A, 1),), 2) == (A,)

    def test_oversized_sets_ignored(self):
        assert greedy_allocate((Declaration(A | B | C, 9),), 2) == (0,)

    def test_value_ties_break_by_agent_index(self):
        profile = (Declaration(A, 4), Declaration(A, 4))
        assert greedy_allocate(profile) == (A, 0)


class TestTwoTier:
    def test_grand_bid_beats_small_side(self):
        profile = (Declaration(0b1111, 10), Declaration(A, 3), Declaration(B, 3))
        assert two_tier_rule(4).allocate(profile) == (0b1111, 0, 0)

    def test_small_side_beats_grand_bid(self):
        profile = (Declaration(0b1111, 5), Declaration(A, 3), Declaration(B, 3))
        assert two_tier_rule(4).allocate(profile) == (0, A, B)

    def test_mid_size_bids_ignored_by_both_sides(self):
        profile = (Declaration(A | B | C, 9),)  # size 3 on m=4: above sqrt, below m
        assert two_tier_rule(4).allocate(profile) == (0,)

    def test_welfare_tie_favors_small_side(self):
        profile = (Declaration(0b1111, 6), Declaration(A, 3), Declaration(B, 3))
        assert two_tier_rule(4).allocate(profile) == (0, A, B)

    def test_grand_bundle_is_never_a_small_set(self):
        # on 2 items ceil(sqrt(2)) = 2, yet the small side holds the singletons only
        profile = (Declaration(A | B, 5), Declaration(A, 3), Declaration(B, 3))
        assert two_tier_rule(2).allocate(profile) == (0, A, B)


class TestPartitionMax:
    def test_single_grand_side_bid_wins_over_silence(self):
        # one bidder wants the whole B side; the A-side agents stay out
        side_a, side_b = 0b00001111, 0b11110000
        assert side_b == 0b11111111 & ~side_a
        profile = (Declaration(side_b, 1), EMPTY, EMPTY, EMPTY, EMPTY)
        alloc = partition_rule(8, side_a, cap=4).allocate(profile)
        assert alloc == (side_b, 0, 0, 0, 0)
        assert declared_welfare(alloc, profile) == 1

    def test_all_empty(self):
        assert partition_rule(4, 0b0011).allocate((EMPTY, EMPTY)) == (0, 0)

    def test_higher_welfare_side_wins(self):
        profile = (Declaration(A, 3), Declaration(C, 2), Declaration(D, 2))
        alloc = partition_rule(4, A | B).allocate(profile)
        assert alloc == (0, C, D)

    def test_tie_favors_first_side(self):
        profile = (Declaration(A, 3), Declaration(C, 3))
        assert partition_rule(4, A | B).allocate(profile) == (A, 0)


class TestOracle:
    def test_cycle_instance_optimum(self, cycle_types):
        alloc, welfare = optimal_welfare(cycle_types, cap=2)
        assert welfare == 13
        assert alloc == (A | B, 0, C, D)

    def test_single_agent_gets_best_atom(self, cycle_types):
        alloc, welfare = optimal_welfare([cycle_types[0]], cap=2)
        assert welfare == 6
        assert alloc == (D,)

    def test_partition_instance_optimum(self):
        # grand-side bundle worth 1 vs four unit singletons
        types = random_types(seeded_rng(0, "unused"), 0, 4)  # placeholder, replaced below
        from auctionlab import Valuation

        types = [Valuation([(0b11110000, 1)])] + [
            Valuation([(1 << j, 1)]) for j in range(4)
        ]
        _, welfare = optimal_welfare(types)
        assert welfare == 5  # unrestricted oracle packs both sides
        bids = [(i + 1, 1 << j, 1) for i, j in enumerate(range(4))]
        _, welfare_a_only = optimal_allocation(bids, 5)
        assert welfare_a_only == 4

    def test_size_guard(self):
        with pytest.raises(SizeError):
            optimal_allocation([(0, 1 << 21, 5)], 1)

    def test_memo_keys_only_the_items_later_agents_can_take(self, monkeypatch):
        # each agent wants its own item alone: keyed on every free item, the
        # memo holds 1 + 2 + 4 + 8 subproblems; keyed on the items agents
        # i.. can take, one per agent
        bids = [(i, 1 << i, i + 1) for i in range(4)]
        solved = optimal_allocation(bids, 4)
        monkeypatch.setattr(algorithms, "ORACLE_MAX_MEMO", 4)
        assert optimal_allocation(bids, 4) == solved == ((1, 2, 4, 8), 10)
        monkeypatch.setattr(algorithms, "ORACLE_MAX_MEMO", 3)
        with pytest.raises(SizeError):
            optimal_allocation(bids, 4)

    def test_matches_naive_enumeration(self):
        rng = seeded_rng(29, "oracle-naive")
        for _ in range(150):
            n = rng.randint(1, 5)
            profile = random_profile(rng, n, 8, max_size=3, max_value=16)
            bids = [(i, d.set_mask, d.bid) for i, d in enumerate(profile) if not d.is_empty]
            cap = rng.choice([None, 2, 3])
            assert optimal_allocation(bids, n, cap) == naive_optimal(bids, n, cap)


class TestApproximation:
    def test_greedy_welfare_factor(self):
        rng = seeded_rng(31, "greedy-approx")
        for s in (1, 2, 3):
            for _ in range(300):
                n = rng.randint(2, 5)
                profile = random_profile(rng, n, 7, max_size=s, max_value=24)
                bids = [(i, d.set_mask, d.bid) for i, d in enumerate(profile) if not d.is_empty]
                _, opt = optimal_allocation(bids, n, cap=s)
                got = declared_welfare(greedy_allocate(profile, s), profile)
                assert s * got >= opt  # single-minded declared bids
                assert (s + 1) * got >= opt

    def test_two_tier_welfare_factor(self):
        from auctionlab.algorithms import ceil_sqrt

        rng = seeded_rng(37, "two-tier-approx")
        for _ in range(300):
            n = rng.randint(2, 5)
            m = rng.randint(4, 9)
            profile = random_profile(rng, n, m, max_size=m, max_value=24)
            # optimum over the bundles the algorithm can ever allocate:
            # small sets and the grand bundle
            bids = [
                (i, d.set_mask, d.bid)
                for i, d in enumerate(profile)
                if not d.is_empty
                and (d.set_mask.bit_count() <= ceil_sqrt(m) or d.set_mask == (1 << m) - 1)
            ]
            _, opt = optimal_allocation(bids, n)
            got = declared_welfare(two_tier_rule(m).allocate(profile), profile)
            assert (2 * ceil_sqrt(m) + 2) * got >= opt


# ---------------------------------------------------------------------------
# Randomized checkers for the premises of the paper's reduction: a monotone,
# loser-independent allocation rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityWitness:
    profile: Profile
    agent: int
    won_set: int
    won_bid: int
    probe_set: int
    probe_bid: int


@dataclass(frozen=True)
class LoserDependenceWitness:
    agent: int
    profile_a: Profile
    profile_b: Profile
    probe: Declaration
    outcome_a: int
    outcome_b: int


def _random_subset(rng, mask: int) -> int:
    items = []
    m = mask
    while m:
        low = m & -m
        items.append(low)
        m ^= low
    sub = 0
    for bit in items:
        if rng.random() < 0.6:
            sub |= bit
    return sub if sub else items[rng.randrange(len(items))]


def check_monotone(
    rule: AllocationRule,
    instance_generator: Callable,
    trials: int,
    seed: int = 0,
) -> MonotonicityWitness | None:
    """Randomized search for a monotonicity violation: an agent who wins S at
    bid v but loses some subset of S at a bid >= v.  None means no witness
    was found in `trials` samples (not a proof)."""
    rng = seeded_rng(seed, "monotone")
    for _ in range(trials):
        profile = instance_generator(rng)
        alloc = rule.allocate(profile)
        winners = [i for i, mask in enumerate(alloc) if mask]
        if not winners:
            continue
        i = winners[rng.randrange(len(winners))]
        won_set, won_bid = profile[i].set_mask, profile[i].bid
        probe_set = won_set if rng.random() < 0.4 else _random_subset(rng, won_set)
        probe_bid = won_bid + (0 if rng.random() < 0.5 else rng.randrange(1, 5))
        probe = tuple(
            single_minded(probe_set, probe_bid) if j == i else d for j, d in enumerate(profile)
        )
        if rule.allocate(probe)[i] != probe_set:
            return MonotonicityWitness(profile, i, won_set, won_bid, probe_set, probe_bid)
    return None


def check_loser_independent(
    rule: AllocationRule,
    instance_generator: Callable,
    trials: int,
    seed: int = 0,
) -> LoserDependenceWitness | None:
    """Randomized search for two opponent profiles with identical winners and
    winning values (when the probed agent stays out) under which one of 8
    random probe declarations earns the agent different bundles."""
    rng = seeded_rng(seed, "loser-independent")
    seen: dict[tuple, Profile] = {}
    for _ in range(trials):
        profile = instance_generator(rng)
        n = len(profile)
        if n == 0:
            continue
        i = rng.randrange(n)
        base = tuple(EMPTY if j == i else d for j, d in enumerate(profile))
        alloc = rule.allocate(base)
        signature = (
            i,
            tuple(
                (j, alloc[j], declared_welfare((alloc[j],), (base[j],)))
                for j in range(n) if j != i
            ),
        )
        other = seen.setdefault(signature, base)
        if other == base:
            continue
        span = 0
        for d in base + other:
            span |= d.set_mask
        span = span or 1
        for _ in range(8):
            probe_set = _random_subset(rng, span)
            probe = single_minded(probe_set, rng.randrange(1, 40))
            got_a = rule.allocate(tuple(probe if j == i else d for j, d in enumerate(base)))[i]
            got_b = rule.allocate(tuple(probe if j == i else d for j, d in enumerate(other)))[i]
            if got_a != got_b:
                return LoserDependenceWitness(i, base, other, probe, got_a, got_b)
    return None


class TestCheckers:
    def test_greedy_is_monotone(self):
        gen = lambda rng: random_profile(rng, 4, 5, max_size=2, max_value=8)
        assert check_monotone(greedy_rule(2), gen, 10_000, seed=1) is None

    def test_broken_rule_caught(self):
        def even_only(profile):
            filtered = tuple(d if d.bid % 2 == 0 else EMPTY for d in profile)
            return greedy_allocate(filtered, 2)

        broken = AllocationRule("even-only", even_only)
        gen = lambda rng: random_profile(rng, 4, 5, max_size=2, max_value=8)
        witness = check_monotone(broken, gen, 10_000, seed=1)
        assert witness is not None
        # replay the witness: the agent wins the original but loses the probe
        assert broken.allocate(witness.profile)[witness.agent] == witness.won_set
        assert witness.probe_set & ~witness.won_set == 0
        assert witness.probe_bid >= witness.won_bid

    def test_zero_trials(self):
        gen = lambda rng: random_profile(rng, 3, 4)
        assert check_monotone(greedy_rule(2), gen, 0) is None
        assert check_loser_independent(greedy_rule(2), gen, 0) is None

    def test_greedy_is_loser_independent(self):
        gen = lambda rng: random_profile(rng, 4, 5, max_size=2, max_value=8)
        assert check_loser_independent(greedy_rule(2), gen, 10_000, seed=2) is None

    def test_partition_rule_is_not(self):
        gen = lambda rng: random_profile(rng, 4, 4, max_size=2, max_value=6)
        witness = check_loser_independent(partition_rule(4, 0b0011, cap=2), gen, 10_000, seed=3)
        assert witness is not None
        rule = partition_rule(4, 0b0011, cap=2)
        got_a = rule.allocate(
            tuple(witness.probe if j == witness.agent else d for j, d in enumerate(witness.profile_a))
        )[witness.agent]
        got_b = rule.allocate(
            tuple(witness.probe if j == witness.agent else d for j, d in enumerate(witness.profile_b))
        )[witness.agent]
        assert got_a != got_b
