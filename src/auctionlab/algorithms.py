"""Non-strategic allocation algorithms, the exact welfare oracle, and
randomized property checkers (monotonicity, loser-independence).

All algorithms are deterministic: bids are processed by descending value
with ties broken by ascending agent index, and every other tie rule is
fixed and documented on the function.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import (
    EMPTY,
    Declaration,
    Profile,
    SizeError,
    ValidationError,
    bundle_key,
    declared_welfare,
    full_mask,
    single_minded,
)

OPEN = "open"
CLOSED = "closed"

ORACLE_MAX_ITEMS = 20

PriceFn = Callable[[int], Optional[tuple[int, str]]]


@dataclass(frozen=True)
class AllocationRule:
    """A deterministic map from single-minded profiles to feasible allocations.

    When the rule has closed-form bid thresholds, `thresholds(profile,
    agent)` returns a `price_of(set_mask)` that gives (theta, OPEN|CLOSED),
    or None for an unwinnable set, without recomputing the state shared by
    all sets; the entry profile[agent] is ignored.
    """

    name: str
    allocate: Callable[[Profile], tuple[int, ...]]
    thresholds: Callable[[Profile, int], PriceFn] | None = None


def ceil_sqrt(item_count: int) -> int:
    r = math.isqrt(item_count)
    return r if r * r == item_count else r + 1


def greedy_allocate(profile: Sequence[Declaration], cap: int | None = None) -> tuple[int, ...]:
    """Accept bids in descending value order (ties: lower agent index first)
    whenever the set is disjoint from everything accepted so far.

    Bids for sets larger than `cap` never participate.
    """
    order = sorted(
        (-bid, i, s)
        for i, (s, bid) in enumerate(profile)
        if bid > 0 and (cap is None or s.bit_count() <= cap)
    )
    used = 0
    alloc = [0] * len(profile)
    for _, i, s in order:
        if not s & used:
            alloc[i] = s
            used |= s
    return tuple(alloc)


def greedy_acceptances(
    profile: Sequence[Declaration], skip: int, cap: int | None = None
) -> list[tuple[int, int, int]]:
    """Accepted bids of the greedy run without agent `skip`, in processing
    order, as (bid, agent, set_mask) triples."""
    live = [
        (-bid, i, s)
        for i, (s, bid) in enumerate(profile)
        if i != skip and bid > 0 and (cap is None or s.bit_count() <= cap)
    ]
    live.sort()
    used = 0
    out = []
    for neg_bid, i, s in live:
        if not s & used:
            out.append((-neg_bid, i, s))
            used |= s
    return out


def greedy_thresholds(profile: Profile, agent: int, cap: int | None) -> PriceFn:
    """Bid thresholds for `agent` against the greedy run without him: the
    first accepted bid whose set intersects, with the boundary decided by
    who would win the tie at that value."""
    acceptances = greedy_acceptances(profile, agent, cap)

    def price_of(set_mask: int) -> tuple[int, str] | None:
        if set_mask == 0:
            return None
        if cap is not None and set_mask.bit_count() > cap:
            return None
        for bid, j, s in acceptances:
            if s & set_mask:
                return (bid, CLOSED) if agent < j else (bid, OPEN)
        return (0, OPEN)

    return price_of


def greedy_rule(cap: int | None = None) -> AllocationRule:
    return AllocationRule(
        name=f"greedy(cap={cap})",
        allocate=lambda profile: greedy_allocate(profile, cap),
        thresholds=lambda p, i: greedy_thresholds(p, i, cap),
    )


def two_tier_allocate(profile: Sequence[Declaration], item_count: int) -> tuple[int, ...]:
    """Greedy over sets of at most ceil(sqrt(m)) items versus the single best
    grand-bundle bid; the side with higher declared welfare wins, ties favor
    the greedy side.  Bids for mid-size sets are ignored by both sides."""
    small_cap = ceil_sqrt(item_count)
    grand = full_mask(item_count)
    galloc = greedy_allocate(profile, small_cap)
    gwelfare = declared_welfare(galloc, profile)
    bigs = [(bid, -i) for i, (s, bid) in enumerate(profile) if s == grand and bid > 0]
    if bigs:
        bid, neg_i = max(bigs)
        if bid > gwelfare:
            alloc = [0] * len(profile)
            alloc[-neg_i] = grand
            return tuple(alloc)
    return galloc


def two_tier_rule(item_count: int) -> AllocationRule:
    if item_count < 2:
        raise ValidationError("two-tier rule needs at least 2 items")
    return AllocationRule(
        name=f"two-tier(m={item_count})",
        allocate=lambda profile: two_tier_allocate(profile, item_count),
    )


def partition_max_allocate(
    profile: Sequence[Declaration], side_a: int, side_b: int, cap: int | None = None
) -> tuple[int, ...]:
    """Greedy restricted to bids inside side A versus greedy restricted to
    side B; the side with higher declared welfare wins, ties favor side A."""
    if side_a & side_b:
        raise ValidationError("partition sides must be disjoint")
    a_profile = tuple(d if d.set_mask and d.set_mask & ~side_a == 0 else EMPTY for d in profile)
    b_profile = tuple(d if d.set_mask and d.set_mask & ~side_b == 0 else EMPTY for d in profile)
    alloc_a = greedy_allocate(a_profile, cap)
    alloc_b = greedy_allocate(b_profile, cap)
    if declared_welfare(alloc_a, profile) >= declared_welfare(alloc_b, profile):
        return alloc_a
    return alloc_b


def partition_rule(item_count: int, side_a: int, cap: int | None = None) -> AllocationRule:
    side_b = full_mask(item_count) & ~side_a
    return AllocationRule(
        name=f"partition(m={item_count}, a={side_a:#x}, cap={cap})",
        allocate=lambda profile: partition_max_allocate(profile, side_a, side_b, cap),
    )


# ---------------------------------------------------------------------------
# Exact welfare oracle
# ---------------------------------------------------------------------------


def optimal_allocation(
    bids: Sequence[tuple[int, int, int]],
    n_agents: int,
    cap: int | None = None,
) -> tuple[tuple[int, ...], int]:
    """Exact maximum-welfare assignment of at most one listed bundle per agent.

    `bids` are (agent, set_mask, value) triples; bundles assigned to distinct
    agents must be disjoint and respect `cap`.  Memoized on (agent index,
    items still free); ties prefer staying out, then smaller bundles.
    Raises SizeError beyond ORACLE_MAX_ITEMS items.
    """
    span = 0
    for agent, mask, value in bids:
        if not 0 <= agent < n_agents:
            raise ValidationError(f"bid names unknown agent {agent}")
        if value < 0:
            raise ValidationError("bid values must be non-negative")
        span |= mask
    if span.bit_length() > ORACLE_MAX_ITEMS:
        raise SizeError(
            f"oracle handles at most {ORACLE_MAX_ITEMS} items, instance spans "
            f"{span.bit_length()}"
        )

    options: list[list[tuple[int, int]]] = [[] for _ in range(n_agents)]
    for agent, mask, value in bids:
        if mask and value > 0 and (cap is None or mask.bit_count() <= cap):
            options[agent].append((mask, value))
    for opts in options:
        opts.sort(key=lambda o: bundle_key(o[0]))

    free0 = span
    memo: dict[tuple[int, int], tuple[int, int]] = {}

    def solve(i: int, free: int) -> tuple[int, int]:
        if i == n_agents:
            return (0, 0)
        key = (i, free)
        hit = memo.get(key)
        if hit is not None:
            return hit
        best_w, best_choice = solve(i + 1, free)[0], 0
        for mask, value in options[i]:
            if mask & ~free == 0:
                w = value + solve(i + 1, free & ~mask)[0]
                if w > best_w:
                    best_w, best_choice = w, mask
        memo[key] = (best_w, best_choice)
        return memo[key]

    total, _ = solve(0, free0)
    alloc = []
    free = free0
    for i in range(n_agents):
        _, choice = solve(i, free)
        alloc.append(choice)
        free &= ~choice
    return tuple(alloc), total


def atoms_as_bids(types: Sequence, cap: int | None = None) -> list[tuple[int, int, int]]:
    """Lower a valuation profile to oracle bids (one per atom)."""
    out = []
    for i, t in enumerate(types):
        for mask, value in t.atoms:
            if cap is None or mask.bit_count() <= cap:
                out.append((i, mask, value))
    return out


def optimal_welfare(types: Sequence, cap: int | None = None) -> tuple[tuple[int, ...], int]:
    """Exact optimum over a valuation profile (one atom per agent, disjoint)."""
    return optimal_allocation(atoms_as_bids(types, cap), len(types), cap)


# ---------------------------------------------------------------------------
# Property checkers
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
    from .dynamics import seeded_rng

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
    from .dynamics import seeded_rng

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
            tuple((j, alloc[j], base[j].value_on(alloc[j])) for j in range(n) if j != i),
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
